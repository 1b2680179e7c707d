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
* scipy's scrambled Sobol engine, ``qmc.Sobol(d=4, scramble=True,
  seed=seed)``, is the oracle for the search's own start generator
  ``measure._sobol``: the two agree bit for bit.  scipy is used only here.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import qmc

from biratdyn import measure
from biratdyn.geometry import ProjectivePoint, proj_distance
from biratdyn.mapfile import corpus_path, load_map
from biratdyn.measure import (
    IndeterminateEncounter,
    MeasureError,
    NoSaddlesFound,
    Observable,
    WeightedPointCloud,
    bump_observable,
    cloud_agreement,
    coordinate_observables,
    invariance_residual,
    measure_average,
    mixing_correlations,
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
        header, columns, *rows = text.splitlines()
        assert header == f"# provenance=SaddleOrbits(1); seed={cloud.seed}; size={cloud.size}"
        assert columns.split(",")[6:] == [
            "weight", "period", "eig_modulus_large", "eig_modulus_small"]
        assert len(rows) == cloud.size
        for row, p, w, k, moduli in zip(rows, cloud.points, cloud.weights,
                                        cloud.periods, cloud.eigenvalue_moduli):
            cells = row.split(",")
            assert len(cells) == len(columns.split(",")) == 10
            re0, im0, re1, im1, re2, im2 = map(float, cells[:6])
            back = ProjectivePoint.numeric_point(complex(re0, im0), complex(re1, im1),
                                                 complex(re2, im2))
            assert proj_distance(back, p) < 1e-12
            assert Fraction(cells[6]) == w
            assert int(cells[7]) == k
            assert (float(cells[8]), float(cells[9])) == moduli


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

    @pytest.mark.parametrize("flag", [True, False])
    def test_boolean_period_rejected(self, henon, flag):
        # a bool is an int to isinstance: True once ran as period 1 and
        # reported the provenance SaddleOrbits(True)
        with pytest.raises(MeasureError, match="positive integer"):
            saddle_periodic_points(henon, flag)
        with pytest.raises(MeasureError, match="positive integer"):
            saddle_cloud(henon, flag)

    def test_no_single_point_advance(self, henon4_search):
        # after the Newton rounds every stage steps all candidates at once;
        # inside newton a batch shrinks to the starts still moving
        cloud_size, steps, _ = henon4_search
        assert cloud_size == 2 + 6 + 12
        sizes = [lanes for lanes, _, in_newton in steps if not in_newton]
        assert sizes and 1 not in sizes

    def test_newton_steps_only_moving_starts(self, henon4_search):
        # a silent return to stepping every start at every iteration fails
        _, steps, full = henon4_search
        stepped = sum(lanes * n for lanes, n, in_newton in steps if in_newton)
        assert 0 < stepped < full / 2


def full_lane_newton(dyn, x, y, n, iters=measure._NEWTON_ITERS):
    """The Newton loop stepping every start at every iteration (oracle)."""
    for _ in range(iters):
        w1, w2, (a, b, c, d) = dyn.advance(x, y, n)
        with np.errstate(all="ignore"):
            f1, f2 = w1 - x, w2 - y
            da, db, dc, dd = a - 1.0, b, c, d - 1.0
            det = da * dd - db * dc
            dx = (dd * f1 - db * f2) / det
            dy = (da * f2 - dc * f1) / det
        ok = (
            np.isfinite(dx)
            & np.isfinite(dy)
            & (np.abs(x) < measure._NEWTON_BOX)
            & (np.abs(y) < measure._NEWTON_BOX)
        )
        x = np.where(ok, x - dx, np.nan)
        y = np.where(ok, y - dy, np.nan)
    return x, y


def sequential_dedupe(found, new):
    """One comparison against all kept points per candidate (oracle)."""
    unique = list(found)
    for p in new:
        if not any(np.max(np.abs(q - p)) < measure._DEDUPE_TOL for q in unique):
            unique.append(p)
    return unique


def sobol_starts(period, size=measure._ROUND_SIZE, seed=2026):
    """The first search round's starts for this period."""
    u = measure._sobol(seed + 1000 * period, size)
    r = measure._SEARCH_RADIUS
    x = (2 * u[:, 0] - 1) * r + 1j * (2 * u[:, 1] - 1) * r
    y = (2 * u[:, 2] - 1) * r + 1j * (2 * u[:, 3] - 1) * r
    return x, y


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(
        a.view(np.int64), b.view(np.int64)
    )


# seeds at which the numpy generator was first checked against scipy, then
# every seed the search draws from at the default seed up to period 4
SOBOL_SEEDS = dict.fromkeys(
    [0, 1, 7, 2026, 3026, 4010, 6028, 123456789, 2**40 + 5]
    + [2026 + 1000 * p + r for p in range(1, 5) for r in range(measure._MAX_ROUNDS)])


def sobol_examples(test):
    for seed in SOBOL_SEEDS:
        test = example(seed=seed, n=measure._ROUND_SIZE)(test)
    return test


@settings(deadline=None)
@given(seed=st.integers(0, 2**64 - 1), n=st.sampled_from([1, 2, 64, measure._ROUND_SIZE]))
@sobol_examples
def test_sobol_matches_scipy_bitwise(seed, n):
    want = qmc.Sobol(d=4, scramble=True, seed=seed).random(n)
    assert same_bits(measure._sobol(seed, n), want)


@pytest.fixture(scope="module")
def henon4_search(henon):
    """``saddle_cloud(henon, 4, seed=7)`` with every ``advance`` batch logged
    as (lanes, n, inside newton), and the lane-steps a full-lane Newton
    would take."""
    steps, full, inside = [], [0], [False]
    advance, newton = measure._AffineDynamics.advance, measure._AffineDynamics.newton

    def logged_advance(self, x, y, n):
        steps.append((np.size(x), n, inside[0]))
        return advance(self, x, y, n)

    def logged_newton(self, x, y, n, iters=measure._NEWTON_ITERS):
        full[0] += iters * np.size(x) * n
        inside[0] = True
        try:
            return newton(self, x, y, n, iters)
        finally:
            inside[0] = False

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measure._AffineDynamics, "advance", logged_advance)
        mp.setattr(measure._AffineDynamics, "newton", logged_newton)
        size = saddle_cloud(henon, 4, seed=7).size
    return size, steps, full[0]


def smoke_maps():
    from test_map_properties import SMOKE_HENON, SMOKE_MATRICES, twisted

    return [twisted(m)[2] for m in SMOKE_MATRICES] + [henon_map(*cd) for cd in SMOKE_HENON]


class TestSearchKernels:
    """``newton`` and ``_dedupe_affine`` skip work whose result is fixed;
    their outputs must match the plain loops bit for bit."""

    @pytest.mark.parametrize("name", ["henon", "lsigma", "cremona"])
    @pytest.mark.parametrize("period", [1, 2, 3])
    def test_newton_matches_full_lane_loop_on_corpus(self, name, period):
        dyn = measure._AffineDynamics(load_map(corpus_path(name)), 2)
        x, y = sobol_starts(period)
        got = dyn.newton(x, y, period)
        want = full_lane_newton(dyn, x, y, period)
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
        # the orbit-completion call: ten steps from the images of the roots
        # (cremona's period-2 points form a surface, none of them isolated)
        roots = dyn.isolated_roots(*got, period)
        assert len(roots) or (name, period) == ("cremona", 2)
        xs, ys, _ = dyn.advance(roots[:, 0], roots[:, 1], 1)
        got = dyn.newton(xs.copy(), ys.copy(), period, iters=10)
        want = full_lane_newton(dyn, xs, ys, period, iters=10)
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])

    @pytest.mark.parametrize("period", [1, 2])
    def test_newton_matches_full_lane_loop_on_generated_maps(self, period):
        x, y = sobol_starts(period, size=512)
        for f in smoke_maps():
            dyn = measure._AffineDynamics(f, 2)
            got = dyn.newton(x, y, period)
            want = full_lane_newton(dyn, x, y, period)
            assert same_bits(got[0], want[0]) and same_bits(got[1], want[1]), f.name

    def test_newton_leaves_its_input_alone(self, henon):
        dyn = measure._AffineDynamics(henon, 2)
        x, y = sobol_starts(1, size=64)
        x0, y0 = x.copy(), y.copy()
        dyn.newton(x, y, 1)
        assert same_bits(x, x0) and same_bits(y, y0)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_dedupe_matches_sequential_loop(self, data):
        tol = measure._DEDUPE_TOL
        # offsets along one coordinate part: chains 0, 0.6 tol, 1.2 tol have
        # a ~ b and b ~ c but not a ~ c; others sit just inside or outside
        steps = st.sampled_from([0.0, 0.6, 1.2, 1.8, 0.999999, 1.000001, -0.5, -1.0, 1.0])
        centers = [complex(k, -k) for k in range(3)]

        def points(count):
            rows = []
            for _ in range(count):
                p = np.array([centers[data.draw(st.integers(0, 2))]] * 2)
                part = data.draw(st.integers(0, 3))
                shift = data.draw(steps) * tol * (1j if part % 2 else 1)
                p[part // 2] += shift
                rows.append(p)
            return np.array(rows, dtype=complex).reshape(-1, 2)

        found = sequential_dedupe([], points(data.draw(st.integers(0, 4))))
        new = points(data.draw(st.integers(0, 24)))
        got = measure._dedupe_affine(found, new)
        want = sequential_dedupe(found, new)
        assert len(got) == len(want)
        assert all(same_bits(a, b) for a, b in zip(got, want))


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
        one = Observable(fn=lambda p: 1.0, name="one")
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
        half = Observable(fn=lambda p: 0.5, name="half")
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


def oracle_mixing_correlation(f, cloud, phi, psi, steps):
    """One lag's centered correlation from a walk of ``steps`` steps from
    the start: the per-lag loop that the one walk replaced."""
    weights = [float(w) for w in cloud.weights]
    current = list(cloud.points)
    for _ in range(steps):
        current = [measure._image_point(f, p) for p in current]
    phis = [float(phi(p)) for p in cloud.points]
    psis = [float(psi(p)) for p in current]
    mean_phi = measure._weighted_mean(phis, weights)
    mean_psi = measure._weighted_mean(psis, weights)
    total = math.fsum(w * (a - mean_phi) * (b - mean_psi) for w, a, b in zip(weights, phis, psis))
    return total / math.fsum(weights)


class TestMixing:
    def test_autocovariance_nonnegative(self, henon, cloud5):
        phi = random_observable(5)
        assert mixing_correlations(henon, cloud5, phi, phi, 0)[0] >= 0.0

    def test_constant_factor_gives_zero(self, henon, cloud5):
        phi = random_observable(5)
        const = Observable(fn=lambda p: 2.0, name="two")
        for a, b in ((phi, const), (const, phi)):
            values = mixing_correlations(henon, cloud5, a, b, 3)
            assert len(values) == 4
            assert max(abs(c) for c in values) < 1e-12

    def test_autocorrelations_decay(self, henon, cloud6):
        phi = random_observable(101)
        c0, *lags = mixing_correlations(henon, cloud6, phi, phi, 10)
        values = [abs(c) for c in lags]
        assert c0 > 1e-3  # genuine time-0 variance
        assert max(values) < 0.8 * c0  # orbit decorrelation sets in ...
        assert min(values[:5]) < 0.2 * c0  # ... and dips well below the variance

    def test_one_walk_matches_per_lag_walks(self, henon, cloud5, monkeypatch):
        phi, psi = random_observable(5), random_observable(6)
        want = [oracle_mixing_correlation(henon, cloud5, phi, psi, n) for n in range(13)]
        steps = []
        image_point = measure.image_point
        monkeypatch.setattr(measure, "image_point",
                            lambda f, p: steps.append(p) or image_point(f, p))
        got = mixing_correlations(henon, cloud5, phi, psi, 12)
        assert [c.hex() for c in got] == [c.hex() for c in want]
        assert len(steps) == 12 * len(cloud5.points)

    def test_negative_lags_rejected(self, henon, cloud5):
        phi = random_observable(5)
        with pytest.raises(MeasureError):
            mixing_correlations(henon, cloud5, phi, phi, -1)


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
