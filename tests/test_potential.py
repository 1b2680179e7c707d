"""Green potential layer: step potential, partial sums, Lelong slopes.

Frozen expectations: the Henon-family step potential vanishes at the fixed
point at infinity, is minus infinity exactly at [1:0:0], and has a
logarithmic pole there of Lelong slope about one half (as does the
quadratic involution's, weighted by its degree two).
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_map_properties import det3, matrices, rationals, twisted

from biratdyn import geometry, potential
from biratdyn.geometry import ProjectivePoint
from biratdyn.mapfile import ExperimentConfig, corpus_path, load_map
from biratdyn.maps import chart_embed
from biratdyn.potential import (
    DEFAULT_LELONG_RADII,
    InsufficientSamples,
    OrbitHitIndeterminacy,
    PotentialError,
    green_at_inverse_indeterminacy,
    green_functional_check,
    green_grid,
    green_lelong_estimate,
    green_partial,
    lelong_estimate,
    shell_means,
    shell_points,
)
from biratdyn.standard_maps import (
    cremona_involution,
    henon_map,
    lsigma_map,
    rational_rotation_map,
)

P = ProjectivePoint.exact_point


def random_points(n, seed):
    rng = np.random.default_rng(seed)
    return [
        ProjectivePoint.numeric_point(*(rng.normal(size=3) + 1j * rng.normal(size=3)))
        for _ in range(n)
    ]


# ---------------------------------------------------------------------------
# The scalar orbit loop the batched kernel replaced, kept as a bitwise oracle:
# one point and one Python-level step at a time.
# ---------------------------------------------------------------------------


def exact_on_indeterminacy(f, p):
    """p is given exactly and every component vanishes there, summed in
    Q(i) rather than on the integer rows `image_point` uses."""
    return p.exact and all(c.evaluate_exact(p.coords).is_zero() for c in f.components)


def oracle_gamma_plus(f, p):
    """The step potential ``log norm(F(z)) / d`` of one point as the scalar
    step computed it; minus infinity exactly on I(f)."""
    if exact_on_indeterminacy(f, p):
        return -math.inf
    w = f.evaluate_numeric(p.unit_vector())
    norm = float(np.linalg.norm(w))
    if norm == 0.0:
        return -math.inf
    return math.log(norm) / float(f.degree)


def oracle_orbit_logs(f, p, N):
    """Unit-normalized orbit of one point with its per-step image log-norms;
    a zero image gives a last -inf entry, an image below the floor raises."""
    pts = []
    logs = []
    if exact_on_indeterminacy(f, p):
        return [p.unit_vector()], [-math.inf]
    v = p.unit_vector()
    scale = f.coeff_scale()
    for j in range(N):
        pts.append(v)
        w = f.evaluate_numeric(v)
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            logs.append(-math.inf)
            return pts, logs
        if norm < potential._ORBIT_FLOOR * scale:
            raise OrbitHitIndeterminacy(j)
        logs.append(math.log(norm))
        v = w / norm
    return pts, logs


def oracle_weighted_sum(logs, d):
    total = 0.0
    for j, a in enumerate(logs):
        total += d ** (-j) * (a / d)
    return total


def oracle_telescoped(logs, d):
    acc = 0.0
    for a in logs:
        acc = d * acc + a
    return acc / d ** len(logs)


def oracle_green_partial(f, p, N):
    _, logs = oracle_orbit_logs(f, p, N)
    if logs[-1] == -math.inf:
        return -math.inf
    return oracle_weighted_sum(logs, float(f.degree))


def oracle_telescoped_partial(f, p, N):
    _, logs = oracle_orbit_logs(f, p, N)
    if logs[-1] == -math.inf:
        return -math.inf
    return oracle_telescoped(logs, float(f.degree))


def oracle_functional_check(f, p, N):
    d = float(f.degree)
    _, logs = oracle_orbit_logs(f, p, N + 1)
    if logs[-1] == -math.inf:
        raise OrbitHitIndeterminacy(len(logs) - 1)
    return abs(oracle_weighted_sum(logs[1:], d) - d * (oracle_weighted_sum(logs, d) - logs[0] / d))


def oracle_grid(f, N, *, chart, center, halfwidth, resolution):
    """The grid pixel by pixel, and how many pixels took the floor path."""
    us = np.linspace(center[0] - halfwidth, center[0] + halfwidth, resolution)
    vs = np.linspace(center[1] - halfwidth, center[1] + halfwidth, resolution)
    out = np.empty((resolution, resolution))
    floored = 0
    for i, vv in enumerate(vs):
        for j, uu in enumerate(us):
            p = ProjectivePoint.numeric_point(*chart_embed(chart, uu, vv))
            try:
                out[i, j] = oracle_green_partial(f, p, N)
            except OrbitHitIndeterminacy:
                out[i, j] = -math.inf
                floored += 1
    return out, floored


def telescoped_partial(f, p, N):
    """The kernel's telescoped sum ``d**-N log norm(F^N z)`` of one point."""
    logs = potential._point_logs(f, [p], N)
    return float(potential._telescoped(logs[0], float(f.degree)))


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(a.view(np.int64) == b.view(np.int64)))


def same_outcome(a, b) -> bool:
    if isinstance(a, tuple) or isinstance(b, tuple):
        return a == b
    return same_bits(a, b)


def outcome(fn, *args):
    """A value, or the step of the OrbitHitIndeterminacy it raised."""
    try:
        return fn(*args)
    except OrbitHitIndeterminacy as exc:
        return ("floor", exc.step)


def step_potential(f, points):
    """The step potential at each point: the one-step partial sum."""
    return potential._partial_sums(f, points, 1)


class TestStepPotential:
    def test_unitary_map_with_unit_weight_vanishes(self):
        rot = rational_rotation_map()
        assert np.all(np.abs(step_potential(rot, random_points(20, 2))) < 1e-14)

    def test_henon_fixed_point_at_infinity(self):
        assert green_partial(henon_map(), P(0, 1, 0), 1) == 0.0

    def test_inverse_map_potentials(self):
        # the backward direction runs on the inverse map with the same
        # weight; its indeterminacy point is [0:1:0]
        h = henon_map()
        assert green_partial(h.inverse, P(0, 1, 0), 1) == -math.inf
        assert green_partial(h.inverse, P(1, 0, 0), 1) == 0.0
        p = random_points(1, 43)[0]
        assert math.isfinite(green_partial(h, p, 20))
        assert math.isfinite(green_partial(h.inverse, p, 20))
        assert green_functional_check(h, p, 20) < 1e-8

    def test_minus_infinity_exactly_on_indeterminacy(self):
        assert green_partial(henon_map(), P(1, 0, 0), 1) == -math.inf
        sig = cremona_involution()
        assert np.all(step_potential(sig, sig.indeterminacy_set()) == -math.inf)

    def test_decreases_toward_indeterminacy(self):
        h = henon_map()
        vals = step_potential(h, [ProjectivePoint.numeric_point(1.0, 10.0**-k, 10.0**-k * 1j)
                                  for k in (2, 4, 6, 8)])
        assert np.all(np.diff(vals) < 0)
        assert vals[-1] < -5

    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize("name", ["henon", "lsigma", "cremona", "linear"])
    def test_one_step_sum_matches_scalar_step(self, name, inverse):
        # random points, exact points on and off I(f), and shells about
        # each point of I(f) down to chordal radius 1e-7
        f = load_map(corpus_path(name))
        g = f.inverse if inverse else f
        I_pts = g.indeterminacy_set()
        pts = random_points(200, 59) + list(I_pts) + list(f.indeterminacy_set()) + [
            P(1, 0, 0), P(0, 1, 0), P(0, 0, 1), P(1, 1, 1), P(2, -1, 3)]
        for q in I_pts:
            for r in (1e-3, 1e-5, 1e-7):
                pts += shell_points(q, r, 64, 61)
        want = [oracle_gamma_plus(g, p) for p in pts]
        assert same_bits(step_potential(g, pts), want)


class TestPartialSums:
    def test_fixed_point_all_zero(self):
        h = henon_map()
        for N in (1, 5, 40):
            assert green_partial(h, P(0, 1, 0), N) == 0.0

    def test_unitary_override_vanishes(self):
        rot = rational_rotation_map()
        for p in random_points(5, 3):
            assert abs(green_partial(rot, p, 10)) < 1e-12

    def test_origin_truncation_against_longer_oracle(self):
        h = henon_map()
        g30 = green_partial(h, P(0, 0, 1), 30)
        g60 = green_partial(h, P(0, 0, 1), 60)
        _, logs = oracle_orbit_logs(h, P(0, 0, 1), 60)
        tail_max = max(abs(a) / 2.0 for a in logs[30:])
        bound = 2.0**-30 / (1 - 0.5) * tail_max
        assert abs(g30 - g60) <= bound + 1e-12

    def test_telescoped_path_agrees(self):
        for f in (henon_map(), lsigma_map()):
            pts = random_points(25, 5)
            logs = potential._point_logs(f, pts, 30)
            tele = potential._telescoped(logs, float(f.degree))
            for p, b in zip(pts, tele.tolist()):
                a = green_partial(f, p, 30)
                assert abs(a - b) <= 1e-9 * max(abs(a), abs(b), 1e-9)

    def test_minus_infinity_propagates(self):
        sig = cremona_involution()
        assert green_partial(sig, P(1, 0, 0), 5) == -math.inf

    def test_monotone_decrement_bound(self):
        # g_{N+1} - g_N = rho^-N gamma(f^N p) <= rho^-N sup gamma
        h = henon_map()
        pts = random_points(20, 7)
        sup_gamma = float(np.max(step_potential(h, random_points(500, 8))))
        for p in pts:
            for N in (5, 10, 20):
                delta = green_partial(h, p, N + 1) - green_partial(h, p, N)
                assert delta <= 2.0**-N * sup_gamma + 1e-12

    def test_mc_l1_convergence_between_truncations(self):
        for f in (henon_map(), lsigma_map()):
            pts = random_points(200, 11)
            diffs = [abs(green_partial(f, p, 50) - green_partial(f, p, 25)) for p in pts]
            assert float(np.mean(diffs)) < 1e-4


class TestFunctionalIdentity:
    def test_fixed_point_residual_zero(self):
        assert green_functional_check(henon_map(), P(0, 1, 0), 10) == 0.0

    def test_random_points_below_tolerance(self):
        h = henon_map()
        for p in random_points(50, 13):
            assert green_functional_check(h, p, 25) < 1e-7

    def test_unitary_override_zero(self):
        rot = rational_rotation_map()
        for p in random_points(5, 17):
            assert green_functional_check(rot, p, 10) < 1e-12


class TestSingularityFit:
    """The step potential's logarithmic singularity at [1:0:0]."""

    def test_sigma_with_weight_override(self):
        # the quadratic involution, weighted by its degree two, has the
        # step potential's log pole of slope 1/d at [1:0:0]
        assert green_lelong_estimate(cremona_involution(), P(1, 0, 0), 1) == pytest.approx(
            0.5, abs=0.05)

    def test_step_potential_bounded_above_globally(self):
        h = henon_map()
        vals = step_potential(h, random_points(10_000, 23))
        assert np.max(vals) < 2.0
        assert math.isfinite(float(np.max(vals)))


class TestLelong:
    def test_unit_log_pole_slope_one(self):
        a = ProjectivePoint.numeric_point(0.3 + 0.1j, -0.2, 1.0)
        av = a.unit_vector()

        def u(p):
            v = p.unit_vector()
            # affine distance in the chart of the third coordinate
            z = v / v[2]
            w = av / av[2]
            return math.log(abs(z[0] - w[0]) ** 2 + abs(z[1] - w[1]) ** 2) / 2.0

        means = shell_means(lambda pts: [u(p) for p in pts], a, DEFAULT_LELONG_RADII,
                            samples_per_shell=256, seed=3)
        slope = lelong_estimate(DEFAULT_LELONG_RADII, means)
        assert slope == pytest.approx(1.0, abs=0.05)

    def test_smooth_potential_slope_zero(self):
        a = ProjectivePoint.numeric_point(0.1, 0.4, 1.0)

        def u(p):
            v = p.unit_vector()
            return float(abs(v[0]) ** 2 - abs(v[1]) ** 2)

        means = shell_means(lambda pts: [u(p) for p in pts], a, DEFAULT_LELONG_RADII,
                            samples_per_shell=256, seed=5)
        assert lelong_estimate(DEFAULT_LELONG_RADII, means) < 0.01

    def test_green_slope_vanishes_at_generic_point(self):
        h = henon_map()
        p = ProjectivePoint.numeric_point(0.37 + 0.11j, -0.52 + 0.07j, 1.0)
        assert green_lelong_estimate(h, p, 20) < 0.01

    def test_green_slope_positive_at_indeterminacy(self):
        h = henon_map()
        for N in (15, 25):
            assert green_lelong_estimate(h, P(1, 0, 0), N) >= 0.1

    def test_too_few_shells_rejected(self):
        with pytest.raises(InsufficientSamples):
            lelong_estimate([1e-3, 1e-2], [0.0, 0.0])


class TestBridgeAndGrid:
    def test_finiteness_matches_summability_verdicts(self):
        from biratdyn.stability import exceptional_orbits, summability

        h_vals = green_at_inverse_indeterminacy(henon_map(), 30)
        assert all(math.isfinite(v) for v in h_vals)
        assert summability(exceptional_orbits(henon_map(), 30), 2.0).verdict == "Converged"

        s_vals = green_at_inverse_indeterminacy(cremona_involution(), 10)
        assert all(v == -math.inf for v in s_vals)
        assert summability(exceptional_orbits(cremona_involution(), 10), 2.0).verdict == "Diverging"

    def test_grid_shape_and_finiteness(self):
        grid = green_grid(henon_map(), 8, chart=2, center=(0.0, 0.0),
                          halfwidth=2.0, resolution=16)
        assert grid.shape == (16, 16)
        finite = np.isfinite(grid)
        assert finite.sum() >= 250  # nearly all entries

    def test_volume_integrals_decay_geometrically(self):
        # Monte-Carlo means of |gamma(f^j x)| admit a fit C t^j with t < rho
        h = henon_map()
        pts = [p.unit_vector() for p in random_points(400, 41)]
        means = []
        for j in range(11):
            vals = []
            for v in pts:
                vals.append(abs(math.log(float(np.linalg.norm(h.evaluate_numeric(v)))) / 2.0))
            means.append(float(np.mean(vals)))
            pts = [h.evaluate_numeric(v) / np.linalg.norm(h.evaluate_numeric(v)) for v in pts]
        X = np.vstack([np.ones(10), np.arange(1, 11)]).T
        (logC, log_t), *_ = np.linalg.lstsq(X, np.log(np.array(means[1:]) + 1e-300), rcond=None)
        assert math.exp(log_t) < 2.0


class TestBatchedKernel:
    """One orbit loop serves the grid and every point function, with the
    bits of the scalar loop."""

    WINDOW = {"chart": ExperimentConfig().chart, "center": ExperimentConfig().center,
              "halfwidth": ExperimentConfig().halfwidth}

    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize("name", ["henon", "lsigma", "cremona", "linear"])
    def test_grid_matches_scalar_oracle(self, name, inverse):
        f = load_map(corpus_path(name))
        g = f.inverse if inverse else f
        N = ExperimentConfig().n_series
        want, _ = oracle_grid(g, N, resolution=32, **self.WINDOW)
        assert same_bits(green_grid(g, N, resolution=32, **self.WINDOW), want)

    def test_zero_images_on_the_axes(self):
        # at 33^2 the axes are grid lines: sigma sends them into its
        # indeterminacy points, whose image is the zero vector
        window = dict(self.WINDOW, center=(0.0, 0.0))
        want, floored = oracle_grid(cremona_involution(), 25, resolution=33, **window)
        got = green_grid(cremona_involution(), 25, resolution=33, **window)
        assert floored == 0
        assert int(np.isneginf(got).sum()) == 65
        assert same_bits(got, want)

    def test_floor_window(self):
        window = dict(chart=2, center=(0.0, 0.0), halfwidth=1e-13)
        want, floored = oracle_grid(cremona_involution(), 25, resolution=3, **window)
        got = green_grid(cremona_involution(), 25, resolution=3, **window)
        assert floored > 0
        assert same_bits(got, want)

    @pytest.mark.parametrize("f", [henon_map(), lsigma_map(), cremona_involution()],
                             ids=["henon", "lsigma", "cremona"])
    def test_point_functions_match_oracle(self, f):
        near = ProjectivePoint.numeric_point(1.0, 1e-14, 1e-14)  # 1e-14 from [1:0:0]
        pairs = ((green_partial, oracle_green_partial),
                 (telescoped_partial, oracle_telescoped_partial),
                 (green_functional_check, oracle_functional_check))
        for p in random_points(8, 47) + [P(1, 0, 0), P(0, 1, 0), near]:
            for fn, oracle in pairs:
                assert same_outcome(outcome(fn, f, p, 20), outcome(oracle, f, p, 20))
            # at depth 0 the pullback identity compares one step with itself
            assert same_outcome(outcome(green_functional_check, f, p, 0),
                                outcome(oracle_functional_check, f, p, 0))
        # one batch of complex starts: the object-array lanes of the kernel
        batch = random_points(8, 53) + [P(1, 0, 0), P(0, 1, 0)]
        assert same_bits(potential._partial_sums(f, batch, 20),
                         [oracle_green_partial(f, p, 20) for p in batch])
        assert same_bits(green_at_inverse_indeterminacy(f, 20),
                         [oracle_green_partial(f, q, 20) for q in f.inverse.indeterminacy_set()])

    def test_indeterminacy_outcomes_on_sigma(self):
        sig = cremona_involution()
        assert green_partial(sig, P(1, 0, 0), 25) == -math.inf
        near = ProjectivePoint.numeric_point(1.0, 1e-14, 1e-14)
        with pytest.raises(OrbitHitIndeterminacy):
            oracle_green_partial(sig, near, 25)
        with pytest.raises(OrbitHitIndeterminacy):
            green_partial(sig, near, 25)

    def test_grid_makes_one_term_loop_per_component_and_step(self, monkeypatch):
        h = henon_map()
        calls = []
        term_sum = geometry._term_sum

        def counting(*args):
            calls.append(args)
            return term_sum(*args)

        monkeypatch.setattr(geometry, "_term_sum", counting)
        monkeypatch.setattr(potential, "_term_sum", counting)
        green_grid(h, 25, chart=2, center=(0.0, 0.0), halfwidth=1.5, resolution=32)
        # the scalar loop made 3 * 25 calls per pixel: 76 800
        assert 0 < len(calls) <= 3 * 25

    def test_sum_disagreement_raises_from_functional_check(self, monkeypatch):
        telescoped = potential._telescoped
        monkeypatch.setattr(potential, "_telescoped", lambda logs, d: telescoped(logs, d) + 1.0)
        with pytest.raises(PotentialError, match="disagree"):
            green_functional_check(henon_map(), random_points(1, 3)[0], 10)

    def test_non_finite_start_raises(self):
        with pytest.raises(geometry.GeometryError, match="non-finite"):
            green_grid(henon_map(), 25, chart=2, center=(0.0, 0.0), halfwidth=1e160,
                       resolution=2)


generated_maps = st.one_of(
    matrices.filter(lambda m: det3(m) != 0).map(lambda m: twisted(m)[2]),
    st.builds(henon_map, rationals, rationals.filter(bool)),
)


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(generated_maps, st.integers(0, 2**32 - 1))
def test_lanes_are_independent(f, seed):
    """A lane's bits do not depend on the batch: a batch, its permutation
    and each lane alone agree.  Two lanes start on and next to [1:0:0],
    which lies in I(f) for both families."""
    rng = np.random.default_rng(seed)
    starts = np.vstack([rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3)),
                        [[1, 0, 0], [1, 1e-14, 1e-14j]]])
    lifts = starts / potential._norms(starts)[:, None]
    logs, floor = potential._orbit(f, lifts, 12)
    perm = rng.permutation(len(lifts))
    plogs, pfloor = potential._orbit(f, lifts[perm], 12)
    assert same_bits(plogs, logs[perm])
    assert np.array_equal(pfloor, floor[perm])
    for m in range(len(lifts)):
        one, ofloor = potential._orbit(f, lifts[m:m + 1], 12)
        assert same_bits(one[0], logs[m])
        assert ofloor[0] == floor[m]
