"""Tests for saddle-orbit sampling of the invariant measure.

Oracles, all derived independently of the implementation:

* Fixed points of the quadratic plane automorphism (x, y) -> (y, y^2 + c - dx)
  with c = -3/2, d = 1/4 solve y^2 - (1 + d) y + c = 0, giving (2, 2) and
  (-3/4, -3/4).  The derivative [[0, 1], [-d, 2y]] has eigenvalues
  y +- sqrt(y^2 - d), so the moduli are (2 + sqrt(15)/2, 2 - sqrt(15)/2) and
  (3/4 + sqrt(5)/4, 3/4 - sqrt(5)/4): both points are saddles.
* The unique minimal-period-2 orbit solves x + y = -(1 + d),
  xy = ((1+d)^2 - ((1+d)^2 - 2c)) / 2 = d^2/... computed directly below; its
  multiplier matrix has determinant d^2 with a complex-conjugate eigenvalue
  pair of modulus d = 1/4 < 1, so the orbit is a sink and contributes no
  saddles.
* Counts of minimal-period-n points of a degree-2 polynomial automorphism:
  sum_{k | n} mu(n/k) 2^k = 2, 2, 6, 12, 30, 54 for n = 1..6.  All are
  saddles for these parameters except the period-2 sink pair.
* det D(f^n) = d^n exactly, so the product of the two eigenvalue moduli at
  any period-n point equals (1/4)^n.
* The linear map diag(4, 1, 2) fixes the origin of the chart {x2 != 0} with
  multiplier spectrum (4/2, 1/2) = (2, 1/2): a saddle.  diag(4, 2, 1) has
  chart spectrum (4, 2) (a source) and the rational rotation has neutral
  spectrum (1, 1): neither yields saddles.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from biratdyn.geometry import ProjectivePoint, proj_distance
from biratdyn.measure import (
    IndeterminateEncounter,
    MeasureError,
    NoSaddlesFound,
    Observable,
    WeightedPointCloud,
    ball_mass_decay,
    bump_observable,
    cloud_agreement,
    coordinate_observables,
    invariance_residual,
    measure_average,
    mixing_correlation,
    random_observable,
    saddle_cloud,
    saddle_periodic_points,
    tube_observable,
)
from biratdyn.standard_maps import (
    Y,
    diagonal_scaling_map,
    henon_map,
    linear_map,
    rational_rotation_map,
)

C_COEFF = -1.5
DELTA = 0.25

# Frozen from the quadratic formula: eigenvalue moduli at the two fixed
# saddles y = 2 and y = -3/4 (lambda = y +- sqrt(y^2 - 1/4)).
MODULI_AT_2 = (2.0 + math.sqrt(3.75), 2.0 - math.sqrt(3.75))
MODULI_AT_M34 = (0.75 + math.sqrt(0.3125), 0.75 - math.sqrt(0.3125))

# Minimal-period point counts for a degree-2 polynomial automorphism.
MINIMAL_COUNTS = {1: 2, 2: 2, 3: 6, 4: 12, 5: 30, 6: 54}


def affine_step(x, y):
    return y, y * y + C_COEFF - DELTA * x


def affine_orbit_matrix(x, y, n):
    """D(f^n) at (x, y) from the explicit 2x2 chart derivative chain."""
    m = np.eye(2, dtype=complex)
    for _ in range(n):
        m = np.array([[0.0, 1.0], [-DELTA, 2.0 * y]], dtype=complex) @ m
        x, y = affine_step(x, y)
    return m


def affine_coords(p: ProjectivePoint):
    v = p.unit_vector()
    return v[0] / v[2], v[1] / v[2]


def chart_point(x, y) -> ProjectivePoint:
    return ProjectivePoint.numeric_point(complex(x), complex(y), 1.0)


@pytest.fixture(scope="module")
def henon():
    return henon_map()


@pytest.fixture(scope="module")
def period_clouds(henon):
    return {n: saddle_periodic_points(henon, n) for n in (1, 3, 4)}


@pytest.fixture(scope="module")
def cloud5(henon):
    return saddle_cloud(henon, 5)


@pytest.fixture(scope="module")
def cloud6(henon):
    return saddle_cloud(henon, 6)


class TestWeightedPointCloud:
    def test_weights_must_be_fractions_summing_to_one(self):
        points = (chart_point(0, 0), chart_point(1, 1))
        cloud = WeightedPointCloud(
            points=points,
            weights=(Fraction(1, 4), Fraction(3, 4)),
            provenance="Manual",
        )
        assert sum(cloud.weights) == Fraction(1)
        with pytest.raises(MeasureError):
            WeightedPointCloud(
                points=points,
                weights=(Fraction(1, 2), Fraction(1, 3)),
                provenance="Manual",
            )
        with pytest.raises(MeasureError):
            WeightedPointCloud(
                points=points,
                weights=(Fraction(3, 2), Fraction(-1, 2)),
                provenance="Manual",
            )
        with pytest.raises(MeasureError):
            WeightedPointCloud(points=points, weights=(0.5, 0.5), provenance="Manual")
        with pytest.raises(MeasureError):
            WeightedPointCloud(
                points=points, weights=(Fraction(1),), provenance="Manual"
            )

    def test_uniform_weighting_is_exact(self):
        points = tuple(chart_point(k, -k) for k in range(7))
        cloud = WeightedPointCloud.uniform(points, provenance="Manual")
        assert all(w == Fraction(1, 7) for w in cloud.weights)
        assert sum(cloud.weights) == Fraction(1)
        assert cloud.size == 7

    def test_forbidden_point_guard(self):
        far = WeightedPointCloud.uniform(
            (chart_point(1.0, -1.0),), provenance="Manual"
        )
        pole = ProjectivePoint.exact_point(1, 0, 0)
        far.check_clear_of([pole], eps=1e-6)  # should not raise
        near = WeightedPointCloud.uniform(
            (ProjectivePoint.numeric_point(1.0, 1e-9, 1e-9),), provenance="Manual"
        )
        with pytest.raises(MeasureError):
            near.check_clear_of([pole], eps=1e-6)

    def test_csv_roundtrip(self, period_clouds):
        cloud = period_clouds[1]
        text = cloud.to_csv()
        assert text == cloud.to_csv()  # deterministic
        assert text.splitlines()[0].startswith("#")
        assert "SaddleOrbits(1)" in text.splitlines()[0]
        back = WeightedPointCloud.from_csv(text)
        assert back.size == cloud.size
        assert back.weights == cloud.weights
        assert back.periods == cloud.periods
        for p, q in zip(back.points, cloud.points):
            assert proj_distance(p, q) < 1e-12
        for (a, b), (c, d) in zip(back.eigenvalue_moduli, cloud.eigenvalue_moduli):
            assert abs(a - c) < 1e-12 and abs(b - d) < 1e-12


class TestSaddleSearch:
    def test_period_one_finds_both_fixed_saddles(self, period_clouds):
        cloud = period_clouds[1]
        assert cloud.size == 2
        assert cloud.provenance == "SaddleOrbits(1)"
        assert cloud.periods == (1, 1)
        assert all(w == Fraction(1, 2) for w in cloud.weights)
        targets = {(2.0, 2.0): MODULI_AT_2, (-0.75, -0.75): MODULI_AT_M34}
        for p, moduli in zip(cloud.points, cloud.eigenvalue_moduli):
            x, y = affine_coords(p)
            key = min(targets, key=lambda k: abs(x - k[0]) + abs(y - k[1]))
            assert proj_distance(p, chart_point(*key)) < 1e-9
            hi, lo = moduli
            assert hi == pytest.approx(targets[key][0], abs=1e-9)
            assert lo == pytest.approx(targets[key][1], abs=1e-9)

    def test_period_two_orbit_is_a_sink(self, henon):
        # Independent check that the only minimal-period-2 orbit is a sink,
        # then the search must report no saddles.
        s = -(1 + DELTA)
        q = (s * (1 + DELTA) - 2 * C_COEFF - s * s) / -2.0
        x0, x1 = np.roots([1.0, -s, q])
        m = affine_orbit_matrix(x0, x1, 2)
        assert max(abs(np.linalg.eigvals(m))) < 1.0
        with pytest.raises(NoSaddlesFound):
            saddle_periodic_points(henon, 2)

    @pytest.mark.parametrize("period", [3, 4])
    def test_full_minimal_period_counts(self, period_clouds, period):
        cloud = period_clouds[period]
        assert cloud.size == MINIMAL_COUNTS[period]
        assert all(p == period for p in cloud.periods)
        assert sum(cloud.weights) == Fraction(1)

    def test_points_are_certified_periodic_orbits(self, period_clouds):
        for period, cloud in period_clouds.items():
            for p in cloud.points:
                x, y = affine_coords(p)
                # fixed-point residual of the n-fold affine recurrence
                cx, cy = x, y
                for _ in range(period):
                    cx, cy = affine_step(cx, cy)
                assert abs(cx - x) + abs(cy - y) < 1e-9
                # minimality: no earlier return
                if period > 1:
                    cx, cy = affine_step(x, y)
                    assert abs(cx - x) + abs(cy - y) > 1e-6
                # orbit closure: the image is itself a cloud point
                img = chart_point(*affine_step(x, y))
                assert min(proj_distance(img, q) for q in cloud.points) < 1e-8

    def test_eigenvalue_gap_and_determinant_invariant(self, period_clouds):
        for period, cloud in period_clouds.items():
            for (hi, lo), p in zip(cloud.eigenvalue_moduli, cloud.points):
                assert hi > 1 + 1e-6
                assert lo < 1 - 1e-6
                # |det D(f^n)| = (1/4)^n exactly for this map
                assert hi * lo == pytest.approx(0.25**period, rel=1e-8)
                x, y = affine_coords(p)
                mods = sorted(abs(np.linalg.eigvals(affine_orbit_matrix(x, y, period))))
                assert hi == pytest.approx(mods[1], rel=1e-9)
                assert lo == pytest.approx(mods[0], rel=1e-9)

    def test_pairwise_separation(self, period_clouds):
        pts = period_clouds[4].points
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                assert proj_distance(pts[i], pts[j]) > 1e-7

    def test_linear_saddle_single_point(self):
        f = linear_map([[4, 0, 0], [0, 1, 0], [0, 0, 2]], name="linsaddle")
        cloud = saddle_periodic_points(f, 1)
        assert cloud.size == 1
        assert cloud.weights == (Fraction(1),)
        assert proj_distance(cloud.points[0], ProjectivePoint.exact_point(0, 0, 1)) < 1e-9
        hi, lo = cloud.eigenvalue_moduli[0]
        assert hi == pytest.approx(2.0, abs=1e-10)
        assert lo == pytest.approx(0.5, abs=1e-10)

    def test_saddle_found_in_chart_y(self):
        # diag(4, 2, 1) acts on the chart y = 1 as (u, w) -> (2u, w/2): the
        # saddle is the chart origin [0:1:0], not [0:0:1]
        cloud = saddle_periodic_points(diagonal_scaling_map(), 1, chart=1)
        assert cloud.size == 1
        assert proj_distance(cloud.points[0], ProjectivePoint.exact_point(0, 1, 0)) < 1e-9
        assert cloud.eigenvalue_moduli[0] == pytest.approx((2.0, 0.5), abs=1e-10)

    def test_expanding_and_neutral_maps_have_no_saddles(self):
        with pytest.raises(NoSaddlesFound):
            saddle_periodic_points(diagonal_scaling_map(), 1)
        with pytest.raises(NoSaddlesFound):
            saddle_periodic_points(rational_rotation_map(), 1)

    def test_period_validation(self, henon):
        with pytest.raises(MeasureError):
            saddle_periodic_points(henon, 0)


class TestMergedClouds:
    def test_merged_cloud_skips_saddleless_periods(self, henon):
        cloud = saddle_cloud(henon, 4)
        assert cloud.size == 2 + 6 + 12
        assert cloud.provenance == "SaddleOrbits(<=4)"
        assert all(w == Fraction(1, 20) for w in cloud.weights)
        from collections import Counter

        counts = Counter(cloud.periods)
        assert counts == {1: 2, 3: 6, 4: 12}

    def test_periods_five_and_six_complete(self, cloud5, cloud6):
        assert cloud5.size == 2 + 6 + 12 + 30
        assert cloud6.size == 2 + 6 + 12 + 30 + 54
        assert sum(cloud6.weights) == Fraction(1)
        # every point sits well inside the affine chart, far from the
        # indeterminacy points [1:0:0] and [0:1:0] of the map and its inverse
        for pole in ([1, 0, 0], [0, 1, 0]):
            q = ProjectivePoint.exact_point(*pole)
            assert min(proj_distance(p, q) for p in cloud6.points) > 1e-3


class TestObservables:
    def test_quadratic_observables_are_phase_invariant(self):
        obs = coordinate_observables()
        assert len(obs) == 9
        p = chart_point(0.7 + 0.2j, -1.1 + 0.05j)
        scaled = ProjectivePoint.numeric_point(
            (0.7 + 0.2j) * (2 - 1j), (-1.1 + 0.05j) * (2 - 1j), 2 - 1j
        )
        for ob in obs:
            assert abs(ob(p)) <= 1.0 + 1e-12
            assert ob(p) == pytest.approx(ob(scaled), abs=1e-12)
            assert ob.lipschitz > 0

    def test_random_observable_deterministic_and_bounded(self):
        a, b = random_observable(11), random_observable(11)
        c = random_observable(12)
        p = chart_point(0.3, -0.4)
        assert a(p) == b(p)
        assert a(p) != c(p)
        assert abs(a(p)) <= 1.0

    def test_bump_support(self):
        center = chart_point(1.0, -1.0)
        ob = bump_observable(center, 0.25)
        assert ob(center) == pytest.approx(1.0)
        far = chart_point(-2.0, 2.0)
        assert ob(far) == 0.0


class TestAverages:
    def test_constant_average_is_exactly_one(self, period_clouds):
        one = Observable(fn=lambda p: 1.0, name="one", lipschitz=0.0)
        for cloud in period_clouds.values():
            assert measure_average(cloud, one) == 1.0

    def test_bump_mass_decreases_to_zero(self, cloud6):
        center = chart_point(1.0, -1.0)  # nearest atom ~0.16 away (chordal)
        masses = [
            measure_average(cloud6, bump_observable(center, r))
            for r in (0.8, 0.4, 0.2, 0.1, 0.05)
        ]
        assert masses[0] > 0.0
        assert all(a >= b for a, b in zip(masses, masses[1:]))
        assert masses[-1] == 0.0

    def test_tube_mass_decreases(self, cloud6):
        masses = [
            measure_average(cloud6, tube_observable(Y, w))
            for w in (0.8, 0.4, 0.2, 0.1)
        ]
        assert all(a >= b for a, b in zip(masses, masses[1:]))
        assert masses[-1] < masses[0]


class TestInvariance:
    def test_saddle_cloud_residual_tiny(self, henon, cloud5):
        for seed in range(20):
            res = invariance_residual(henon, cloud5, random_observable(seed))
            assert res < 1e-8

    def test_constant_residual_exactly_zero(self, henon, cloud5):
        half = Observable(fn=lambda p: 0.5, name="half", lipschitz=0.0)
        assert invariance_residual(henon, cloud5, half) == 0.0

    def test_perturbed_cloud_breaks_invariance_at_noise_scale(self, henon, cloud5):
        rng = np.random.default_rng(99)
        moved = []
        for p in cloud5.points:
            x, y = affine_coords(p)
            dx, dy = rng.standard_normal(2) * 1e-3
            moved.append(chart_point(x + dx, y + dy))
        noisy = WeightedPointCloud.uniform(tuple(moved), provenance="Perturbed(1e-3)")
        residuals = [
            invariance_residual(henon, noisy, random_observable(seed))
            for seed in range(20)
        ]
        assert max(residuals) > 1e-6  # perturbation is detected ...
        assert max(residuals) < 0.1  # ... at roughly Lipschitz * noise scale

    def test_indeterminate_point_raises(self, henon):
        bad = WeightedPointCloud.uniform(
            (ProjectivePoint.exact_point(1, 0, 0),), provenance="Manual"
        )
        ob = coordinate_observables()[0]
        with pytest.raises(IndeterminateEncounter):
            invariance_residual(henon, bad, ob)


class TestMixing:
    def test_autocovariance_nonnegative(self, henon, cloud5):
        phi = random_observable(5)
        c0 = mixing_correlation(henon, cloud5, phi, phi, 0)
        assert c0 >= 0.0

    def test_constant_factor_gives_zero(self, henon, cloud5):
        phi = random_observable(5)
        const = Observable(fn=lambda p: 2.0, name="two", lipschitz=0.0)
        for n in range(4):
            assert abs(mixing_correlation(henon, cloud5, phi, const, n)) < 1e-12
            assert abs(mixing_correlation(henon, cloud5, const, phi, n)) < 1e-12

    def test_autocorrelations_decay(self, henon, cloud6):
        phi = random_observable(101)
        c0 = mixing_correlation(henon, cloud6, phi, phi, 0)
        values = [
            abs(mixing_correlation(henon, cloud6, phi, phi, n)) for n in range(1, 11)
        ]
        assert c0 > 1e-3  # genuine time-0 variance
        assert max(values) < 0.8 * c0  # orbit decorrelation sets in ...
        assert min(values[:5]) < 0.2 * c0  # ... and dips well below the variance


class TestBallMass:
    def test_fitted_exponent_meets_threshold(self, cloud6):
        report = ball_mass_decay(cloud6, rho=2.0)
        assert report.reference_rate == pytest.approx(math.log(2.0))
        assert len(report.radii) == len(report.masses)
        assert all(a >= b for a, b in zip(report.masses, report.masses[1:]))
        assert report.fitted_exponent >= 0.4 * math.log(2.0)


class TestCloudAgreement:
    def test_period_five_and_six_clouds_agree(self, cloud5, cloud6):
        obs = [random_observable(seed) for seed in range(20)]
        rows = cloud_agreement(cloud5, cloud6, obs)
        assert len(rows) == 20
        for row in rows:
            assert row.gap <= row.limit
            assert row.compatible

    def test_distinct_clouds_disagree(self, cloud5):
        # shifting every atom by a macroscopic offset must break agreement
        moved = tuple(
            chart_point(affine_coords(p)[0] + 2.0, affine_coords(p)[1] - 2.0)
            for p in cloud5.points
        )
        other = WeightedPointCloud.uniform(moved, provenance="Shifted")
        obs = [random_observable(seed) for seed in range(20)]
        rows = cloud_agreement(cloud5, other, obs)
        assert any(not row.compatible for row in rows)
