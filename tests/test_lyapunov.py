"""Tests for QR-cocycle Lyapunov exponents over sampled invariant measures.

Frozen oracles:

* diag(4, 1, 2) acts on the chart {x2 != 0} as (x, y) -> (2x, y/2) with the
  origin fixed; the metric correction is the identity at the origin, so the
cocycle is exactly constant there and the exponents are +-log 2 to
  rounding.
* The rational rotation [[3/5,-4/5,0],[4/5,3/5,0],[0,0,1]] is a unitary of
  P^2, an isometry of the chordal metric: every corrected step matrix is
  unitary and both exponents vanish.
* The quadratic automorphism (x, y) -> (y, y^2 + c - dx) has constant
  chart-Jacobian determinant d = 1/4.  Along an orbit of period p with
  p | n, the metric corrections telescope to zero, so each per-point sum
  chi+ + chi- equals log(1/4) to rounding; n = 240 closes all periods <= 6.
  The cocycle re-anchors each atom to its starting representative after
  every full period (the period stamp is cloud metadata), so expanding
  rounding noise cannot drift an orbit off its cycle.
* QR identity: the two accumulated log diagonals sum to the accumulated
  log |det| of the step matrices, per orbit, to 1e-8.
* The top singular value of the corrected chart step matrix equals the
  homogeneous Fubini-Study derivative norm at the same point (independent
  3x3 projection formula), to 1e-9.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from biratdyn.geometry import ProjectivePoint
from biratdyn.lyapunov import (
    AllOrbitsExcluded,
    IntegrabilityReport,
    LyapunovError,
    _chordal_to_points,
    _cocycle_step,
    cocycle_exponents,
    hyperbolicity_verdict,
    integrability_partial,
)
from biratdyn.maps import derivative_norm
from biratdyn.measure import WeightedPointCloud, saddle_cloud, saddle_periodic_points
from biratdyn.standard_maps import henon_map, linear_map, rational_rotation_map

LOG2 = math.log(2.0)


def chart_point(x, y) -> ProjectivePoint:
    return ProjectivePoint.numeric_point(complex(x), complex(y), 1.0)


@pytest.fixture(scope="module")
def henon():
    return henon_map()


@pytest.fixture(scope="module")
def cloud6(henon):
    return saddle_cloud(henon, 6)


@pytest.fixture(scope="module")
def henon_estimate(henon, cloud6):
    return cocycle_exponents(henon, cloud6, 240)


@pytest.fixture(scope="module")
def diag_saddle():
    return linear_map([[4, 0, 0], [0, 1, 0], [0, 0, 2]], name="linsaddle")


class TestConstantCocycles:
    def test_diagonal_map_exact_exponents(self, diag_saddle):
        cloud = saddle_periodic_points(diag_saddle, 1)
        est = cocycle_exponents(diag_saddle, cloud, 64)
        assert est.chi_plus == pytest.approx(LOG2, abs=1e-10)
        assert est.chi_minus == pytest.approx(-LOG2, abs=1e-10)
        assert est.se_plus == 0.0
        assert est.se_minus == 0.0
        assert est.n_steps == 64
        assert est.excluded_mass == 0.0
        assert est.included == 1

    def test_diagonal_map_off_origin_correction_is_bounded(self, diag_saddle):
        # on the invariant line {x = 0} the orbit converges to the chart
        # saddle, the chart Jacobian is constantly diag(2, 1/2), and the
        # metric correction telescopes to a boundary term <= log(3)/n
        cloud = WeightedPointCloud.uniform(
            (chart_point(0.0, 0.7), chart_point(0.0, 0.2)), provenance="Manual"
        )
        n = 128
        est = cocycle_exponents(diag_saddle, cloud, n)
        bound = math.log(3.0) / n + 1e-12
        assert abs(est.chi_plus - LOG2) <= bound
        assert abs(est.chi_minus + LOG2) <= bound

    def test_unitary_rotation_has_zero_exponents(self):
        rot = rational_rotation_map()
        cloud = WeightedPointCloud.uniform(
            (chart_point(0.3, 0.1), chart_point(-1.2, 0.8), chart_point(2.0, -0.5)),
            provenance="Manual",
        )
        est = cocycle_exponents(rot, cloud, 100)
        assert abs(est.chi_plus) < 1e-10
        assert abs(est.chi_minus) < 1e-10

    def test_chi_plus_at_least_chi_minus(self, diag_saddle):
        cloud = WeightedPointCloud.uniform((chart_point(0.1, 0.1),), provenance="M")
        est = cocycle_exponents(diag_saddle, cloud, 16)
        assert est.chi_plus >= est.chi_minus


class TestHenonExponents:
    def test_sum_rule_from_constant_determinant(self, henon_estimate):
        est = henon_estimate
        # chart Jacobian determinant is exactly 1/4; corrections telescope
        # to zero because every orbit of period <= 6 closes at n = 240
        total = est.chi_plus + est.chi_minus
        assert total == pytest.approx(math.log(0.25), abs=1e-8)
        assert abs(total - math.log(0.25)) <= 2.0 * (est.se_plus + est.se_minus) + 1e-10
        assert est.excluded_mass == 0.0

    def test_qr_sums_match_determinant_accumulation(self, henon_estimate):
        assert henon_estimate.det_residual < 1e-8

    def test_expanding_exponent_scale(self, henon_estimate):
        # chi+ of a degree-2 polynomial automorphism is at least log 2 over
        # the measure of maximal entropy; the saddle proxy should sit near it
        assert henon_estimate.chi_plus > 0.5
        assert henon_estimate.chi_plus < 1.2
        assert henon_estimate.chi_minus < -1.0

    def test_per_point_estimates_concentrate(self, henon_estimate):
        est = henon_estimate
        per = np.array(est.per_point_plus)
        assert len(per) == est.included
        # halves of the cloud agree within 3 combined standard errors
        half_a, half_b = per[0::2], per[1::2]
        se_a = half_a.std(ddof=1) / math.sqrt(len(half_a))
        se_b = half_b.std(ddof=1) / math.sqrt(len(half_b))
        assert abs(half_a.mean() - half_b.mean()) <= 3.0 * (se_a + se_b)

    def test_per_point_exponents_match_stored_multipliers(
        self, henon_estimate, cloud6
    ):
        # along a closed orbit of period p the cocycle power-iterates the
        # orbit derivative, so chi+ at each atom equals log of the stored
        # expanding eigenvalue modulus over p, up to the O(1/n) transient
        for chi, p, (hi, _lo) in zip(
            henon_estimate.per_point_plus, cloud6.periods, cloud6.eigenvalue_moduli
        ):
            assert chi == pytest.approx(math.log(hi) / p, abs=0.02)

    def test_per_point_sum_rule(self, henon_estimate):
        # the determinant identity holds orbit by orbit, not just on average
        for a, b in zip(
            henon_estimate.per_point_plus, henon_estimate.per_point_minus
        ):
            assert a + b == pytest.approx(math.log(0.25), abs=1e-10)

    def test_step_norm_matches_homogeneous_formula(self, henon, cloud6):
        points = cloud6.points[:10]
        mats, _, finite, _ = _cocycle_step(
            henon, np.stack([p.unit_vector() for p in points])
        )
        assert finite.all()
        for p, mat in zip(points, mats):
            top = float(np.linalg.svd(mat, compute_uv=False)[0])
            assert top == pytest.approx(derivative_norm(henon, p), rel=1e-9)


class TestExclusion:
    def test_orbit_through_indeterminacy_is_dropped(self, henon):
        good = chart_point(2.0, 2.0)  # fixed saddle, period stamp 1
        bad = ProjectivePoint.exact_point(1, 0, 0)  # indeterminacy point
        cloud = WeightedPointCloud(
            points=(good, bad),
            weights=(Fraction(1, 2), Fraction(1, 2)),
            provenance="Manual",
            periods=(1, 0),
        )
        est = cocycle_exponents(henon, cloud, 240)
        assert est.excluded_mass == 0.5
        assert est.included == 1
        # the surviving point is the fixed saddle: chi+ approximates the log
        # of its expanding multiplier up to the O(1/n) non-normality error
        assert est.chi_plus == pytest.approx(math.log(2.0 + math.sqrt(3.75)), abs=0.02)

    def test_small_distances_keep_their_digits(self):
        # rows at exact chordal distance r from a non-coordinate unit vector,
        # written sqrt(1 - r^2) c + r v with v a unit vector orthogonal to c
        c = np.array([1 + 2j, -0.5 + 0.25j, 0.75 - 1j])
        c /= np.linalg.norm(c)
        rng = np.random.default_rng(20)
        radii = np.geomspace(1e-10, 1e-7, 200)
        rows = []
        for r in radii:
            v = rng.normal(size=3) + 1j * rng.normal(size=3)
            v -= np.vdot(c, v) * c
            v /= np.linalg.norm(v)
            rows.append(math.sqrt(1.0 - r * r) * c + r * v)
        d = _chordal_to_points(np.array(rows), [c])
        assert np.all(np.abs(d - radii) <= 1e-6 * radii)

    def test_all_orbits_excluded_raises(self, henon):
        cloud = WeightedPointCloud.uniform(
            (ProjectivePoint.exact_point(1, 0, 0),), provenance="Manual"
        )
        with pytest.raises(AllOrbitsExcluded):
            cocycle_exponents(henon, cloud, 10)


class TestHyperbolicityVerdict:
    def test_henon_with_rho_two_is_saddle_type(self, henon_estimate):
        verdict = hyperbolicity_verdict(henon_estimate, 2.0)
        assert verdict.expanding_ok and verdict.contracting_ok
        assert verdict.threshold == pytest.approx(LOG2 / 8.0)
        assert verdict.margin_plus > 0.4  # chi+ ~ log 2 vs bound log 2 / 8
        assert verdict.margin_minus > 1.0

    def test_diagonal_margins_exact(self, diag_saddle):
        cloud = saddle_periodic_points(diag_saddle, 1)
        est = cocycle_exponents(diag_saddle, cloud, 64)
        verdict = hyperbolicity_verdict(est, 2.0)
        assert verdict.expanding_ok and verdict.contracting_ok
        assert verdict.margin_plus == pytest.approx(LOG2 - LOG2 / 8.0, abs=1e-10)
        assert verdict.margin_minus == pytest.approx(LOG2 - LOG2 / 8.0, abs=1e-10)

    def test_unitary_map_fails_the_verdict(self):
        rot = rational_rotation_map()
        cloud = WeightedPointCloud.uniform(
            (chart_point(0.3, 0.1), chart_point(-0.4, 0.6)), provenance="Manual"
        )
        est = cocycle_exponents(rot, cloud, 100)
        verdict = hyperbolicity_verdict(est, 2.0)
        assert not verdict.expanding_ok
        assert not verdict.contracting_ok

    def test_rho_must_exceed_one(self, henon_estimate):
        with pytest.raises(LyapunovError):
            hyperbolicity_verdict(henon_estimate, 1.0)


class TestIntegrability:
    def test_unitary_truncated_means_vanish(self):
        rot = rational_rotation_map()
        cloud = WeightedPointCloud.uniform(
            (chart_point(0.2, -0.3), chart_point(1.5, 0.4)), provenance="Manual"
        )
        report = integrability_partial(rot, cloud)
        assert isinstance(report, IntegrabilityReport)
        assert len(report.levels) == 12
        assert report.levels[0] == 2.0 and report.levels[-1] == 4096.0
        assert all(m < 1e-12 for m in report.means)
        assert report.consistent

    def test_saddle_cloud_means_saturate(self, henon, cloud6):
        report = integrability_partial(henon, cloud6)
        assert all(b >= a for a, b in zip(report.means, report.means[1:]))
        assert report.means[-1] == report.means[-2]  # fully saturated
        assert report.cauchy_gap == 0.0
        assert report.consistent

    def test_point_on_indeterminacy_flags_inconsistent(self, henon):
        cloud = WeightedPointCloud.uniform(
            (
                chart_point(2.0, 2.0),
                chart_point(-0.75, -0.75),
                ProjectivePoint.exact_point(1, 0, 0),
            ),
            provenance="Manual",
        )
        report = integrability_partial(henon, cloud)
        # the indeterminate atom contributes min(inf, M) = M at every level,
        # so the means grow by weight * 2^(k-1) per level and never settle
        assert not report.consistent
        assert report.cauchy_gap == pytest.approx(2048.0 / 3.0, rel=1e-12)

    def test_planted_points_grow_linearly_with_log_distance(self, henon):
        # points at chordal distance ~10^-k from I(h) = [1:0:0] have
        # derivative norm growing like a positive power of the inverse
        # distance, so the saturated means grow linearly in k
        ks = [3, 6, 9, 12]
        finals = []
        for k in ks:
            plant = ProjectivePoint.numeric_point(1.0, 10.0 ** (-k), 0.0)
            cloud = WeightedPointCloud.uniform((plant,), provenance="Planted")
            report = integrability_partial(henon, cloud)
            finals.append(report.means[-1])
        diffs = [b - a for a, b in zip(finals, finals[1:])]
        assert all(d > 0 for d in diffs)
        # consecutive increments agree (linear growth) within 20 percent
        for d in diffs[1:]:
            assert d == pytest.approx(diffs[0], rel=0.2)
