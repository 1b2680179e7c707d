"""Green potential layer: step potential, partial sums, fits, Lelong slopes.

Frozen expectations: the Henon-family step potential vanishes at the fixed
point at infinity, is minus infinity exactly at [1:0:0], and near that
point fits a logarithmic envelope with slope about one half (as does the
quadratic involution's, run with spectral weight two).
"""

import math

import numpy as np
import pytest

from biratdyn.cohomology import CohomologyLattice, lattice_for_plane_map, spectral_data
from biratdyn.geometry import ProjectivePoint, proj_distance
from biratdyn.potential import (
    DEFAULT_LELONG_RADII,
    InsufficientSamples,
    PotentialError,
    gamma_plus,
    green_at_inverse_indeterminacy,
    green_functional_check,
    green_grid,
    green_lelong_estimate,
    green_partial,
    green_partial_for_class,
    green_partial_telescoped,
    lelong_estimate,
    shell_means,
    shell_points,
    singularity_fit,
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


class TestStepPotential:
    def test_unitary_map_with_unit_weight_vanishes(self):
        rot = rational_rotation_map()
        for p in random_points(20, 2):
            assert abs(gamma_plus(rot, p, 1.0)) < 1e-14

    def test_henon_fixed_point_at_infinity(self):
        assert gamma_plus(henon_map(), P(0, 1, 0)) == 0.0

    def test_inverse_map_potentials(self):
        # the backward direction runs on the inverse map with the same
        # weight; its indeterminacy point is [0:1:0]
        h = henon_map()
        assert gamma_plus(h.inverse, P(0, 1, 0), 2.0) == -math.inf
        assert gamma_plus(h.inverse, P(1, 0, 0), 2.0) == 0.0
        p = random_points(1, 43)[0]
        assert math.isfinite(green_partial(h, p, 20, 2.0))
        assert math.isfinite(green_partial(h.inverse, p, 20, 2.0))
        assert green_functional_check(h, p, 20, 2.0) < 1e-8

    def test_minus_infinity_exactly_on_indeterminacy(self):
        assert gamma_plus(henon_map(), P(1, 0, 0)) == -math.inf
        for q in cremona_involution().indeterminacy_set():
            assert gamma_plus(cremona_involution(), q) == -math.inf

    def test_decreases_toward_indeterminacy(self):
        h = henon_map()
        vals = []
        for k in (2, 4, 6, 8):
            p = ProjectivePoint.numeric_point(1.0, 10.0**-k, 10.0**-k * 1j)
            vals.append(gamma_plus(h, p))
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < -5


class TestPartialSums:
    def test_fixed_point_all_zero(self):
        h = henon_map()
        for N in (1, 5, 40):
            assert green_partial(h, P(0, 1, 0), N) == 0.0

    def test_unitary_override_vanishes(self):
        rot = rational_rotation_map()
        for p in random_points(5, 3):
            assert abs(green_partial(rot, p, 10, 1.0)) < 1e-12

    def test_origin_truncation_against_longer_oracle(self):
        h = henon_map()
        g30 = green_partial(h, P(0, 0, 1), 30)
        g60 = green_partial(h, P(0, 0, 1), 60)
        from biratdyn.potential import _normalized_orbit_logs

        _, logs = _normalized_orbit_logs(h, P(0, 0, 1), 60)
        tail_max = max(abs(a) / 2.0 for a in logs[30:])
        bound = 2.0**-30 / (1 - 0.5) * tail_max
        assert abs(g30 - g60) <= bound + 1e-12

    def test_telescoped_path_agrees(self):
        for f in (henon_map(), lsigma_map()):
            for p in random_points(25, 5):
                a = green_partial(f, p, 30)
                b = green_partial_telescoped(f, p, 30)
                assert abs(a - b) <= 1e-9 * max(abs(a), abs(b), 1e-9)

    def test_minus_infinity_propagates(self):
        sig = cremona_involution()
        assert green_partial(sig, P(1, 0, 0), 5) == -math.inf

    def test_monotone_decrement_bound(self):
        # g_{N+1} - g_N = rho^-N gamma(f^N p) <= rho^-N sup gamma
        h = henon_map()
        pts = random_points(20, 7)
        sup_gamma = max(gamma_plus(h, p) for p in random_points(500, 8))
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
            assert green_functional_check(rot, p, 10, 1.0) < 1e-12


class TestSingularityFit:
    RADII = tuple(np.geomspace(1e-4, 1e-2, 8))

    def test_henon_envelope_contains_all_samples(self):
        h = henon_map()
        fit = singularity_fit(h, P(1, 0, 0), self.RADII, samples_per_shell=128)
        assert fit.samples >= 1000
        assert fit.lower[0] > 0 and fit.upper[0] > 0
        # resample with the same seed: all points must respect the envelope
        A, B = fit.lower
        A2, B2 = fit.upper
        I_pts = h.indeterminacy_set()
        for r in self.RADII:
            for p in shell_points(P(1, 0, 0), r, 128, 20260825):
                g = gamma_plus(h, p)
                d = min(proj_distance(p, t) for t in I_pts)
                assert A * math.log(d) - B <= g + 1e-9
                assert g <= A2 * math.log(d) + B2 + 1e-9

    def test_sigma_with_weight_override(self):
        fit = singularity_fit(
            cremona_involution(), P(1, 0, 0), self.RADII, rho=2.0, samples_per_shell=64
        )
        assert fit.lower[0] > 0 and fit.upper[0] > 0
        assert fit.slope == pytest.approx(0.5, abs=0.05)

    def test_step_potential_bounded_above_globally(self):
        h = henon_map()
        vals = [gamma_plus(h, p) for p in random_points(10_000, 23)]
        assert max(vals) < 2.0
        assert math.isfinite(max(vals))

    def test_insufficient_shells_rejected(self):
        with pytest.raises(InsufficientSamples):
            singularity_fit(henon_map(), P(1, 0, 0), [1e-3], samples_per_shell=64)


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

        means = shell_means(u, a, DEFAULT_LELONG_RADII, samples_per_shell=256, seed=3)
        slope = lelong_estimate(DEFAULT_LELONG_RADII, means)
        assert slope == pytest.approx(1.0, abs=0.05)

    def test_smooth_potential_slope_zero(self):
        a = ProjectivePoint.numeric_point(0.1, 0.4, 1.0)

        def u(p):
            v = p.unit_vector()
            return float(abs(v[0]) ** 2 - abs(v[1]) ** 2)

        means = shell_means(u, a, DEFAULT_LELONG_RADII, samples_per_shell=256, seed=5)
        assert lelong_estimate(DEFAULT_LELONG_RADII, means) < 0.01

    def test_green_slope_vanishes_at_generic_point(self):
        h = henon_map()
        p = ProjectivePoint.numeric_point(0.37 + 0.11j, -0.52 + 0.07j, 1.0)
        assert green_lelong_estimate(h, p, 20, samples_per_shell=128) < 0.01

    def test_green_slope_positive_at_indeterminacy(self):
        h = henon_map()
        for N in (15, 25):
            slope = green_lelong_estimate(h, P(1, 0, 0), N, samples_per_shell=128)
            assert slope >= 0.1

    def test_too_few_shells_rejected(self):
        with pytest.raises(InsufficientSamples):
            lelong_estimate([1e-3, 1e-2], [0.0, 0.0])


class TestClassPartialSums:
    def test_expanding_class_reduces_to_plain_sum(self):
        h = henon_map()
        L = lattice_for_plane_map(h)
        sd = spectral_data(L)
        for p in random_points(10, 29):
            val, c = green_partial_for_class(h, L, sd.theta_plus, p, 20, sd=sd)
            assert c == pytest.approx(1.0, abs=1e-12)
            assert val == pytest.approx(green_partial(h, p, 20), abs=1e-9)

    def test_scaled_class_scales_linearly(self):
        h = henon_map()
        L = lattice_for_plane_map(h)
        sd = spectral_data(L)
        p = random_points(1, 31)[0]
        val2, c2 = green_partial_for_class(h, L, [2.0], p, 15, sd=sd)
        val1, _ = green_partial_for_class(h, L, [1.0], p, 15, sd=sd)
        assert c2 == pytest.approx(2.0, abs=1e-12)
        assert val2 == pytest.approx(2.0 * val1, rel=1e-12, abs=1e-12)

    def test_contracting_orthogonal_class_decays(self):
        # rank-3 harness: a class pairing to zero with the contracting
        # eigenvector contributes sums decaying like n (t/rho)^n
        h = henon_map()
        Q = [[1, 0, 0], [0, -1, 0], [0, 0, -1]]
        M = [[3, -1, 0], [1, 0, 0], [0, 0, 1]]
        L = CohomologyLattice(3, Q, M, M, [], [1, 0, 0])
        sd = spectral_data(L)
        eta = np.array([0.0, 0.0, 1.0])
        assert abs(L.pairing(eta, sd.theta_minus)) < 1e-12

        def g0(p):
            v = p.unit_vector()
            return float(np.real(v[0] * np.conj(v[1])))

        def g1(p):
            v = p.unit_vector()
            return float(abs(v[1]) ** 2 - abs(v[2]) ** 2)

        def g2(p):
            v = p.unit_vector()
            return math.sin(float(np.real(v[2] * np.conj(v[0]))))

        basis = [g0, g1, g2]
        rho = sd.rho
        pts = random_points(20, 37)
        means = []
        for n in (4, 8, 16):
            vals = []
            for p in pts:
                v, c = green_partial_for_class(
                    h, L, eta, p, n, rho=rho, sd=sd, gamma_basis=basis
                )
                assert c == pytest.approx(0.0, abs=1e-12)
                vals.append(abs(v))
            means.append(float(np.mean(vals)))
        assert means[2] < means[1] < means[0]
        # residual growth rate is 1, so the envelope is ~ n / rho^n
        assert means[2] < 10 * 16 / rho**16


class TestBridgeAndGrid:
    def test_finiteness_matches_summability_verdicts(self):
        from biratdyn.stability import forward_summability

        h_vals = green_at_inverse_indeterminacy(henon_map(), 30)
        assert all(math.isfinite(v) for v in h_vals)
        assert forward_summability(henon_map(), 2.0, 30).verdict == "Converged"

        s_vals = green_at_inverse_indeterminacy(cremona_involution(), 10)
        assert all(v == -math.inf for v in s_vals)
        assert forward_summability(cremona_involution(), 2.0, 10).verdict == "Diverging"

    def test_grid_shape_and_finiteness(self):
        grid = green_grid(henon_map(), 8, resolution=16, halfwidth=2.0)
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
