"""Spectral layer: lattice actions, expanding classes, normalization, cones.

Rank-3 oracle values were frozen from closed forms: the companion-style
action [[3,-1,0],[1,0,0],[0,0,1]] has characteristic roots (3±sqrt(5))/2
and 1, so the dominant root is the square of the golden ratio.
"""

import math

import numpy as np
import pytest

from biratdyn import maps
from biratdyn.cohomology import (
    CohomologyLattice,
    DegenerateNormalization,
    NoExpansion,
    SpectralError,
    check_adjoint,
    class_decomposition,
    cone_K_test,
    plane_expansion_rate,
    remainder_growth_constant,
    spectral_data,
)
from biratdyn.standard_maps import (
    cremona_involution,
    diagonal_scaling_map,
    henon_map,
    lsigma_map,
)

GOLDEN_SQ = (3 + math.sqrt(5)) / 2


def plane_lattice(d, curves=((1,),)):
    return CohomologyLattice(1, [[1]], [[d]], [[d]], curves, [1])


def map_lattice(f):
    """The plane's rank-one lattice for f: both actions are multiplication
    by the degree, and the curve classes are the degrees of the critical
    factors of the inverse."""
    return plane_lattice(f.degree, [(factor.degree,) for factor, _ in f.inverse.critical_set()])


def rank3_lattice():
    Q = [[1, 0, 0], [0, -1, 0], [0, 0, -1]]
    Mf = [[3, -1, 0], [1, 0, 0], [0, 0, 1]]
    Mfinv = [[3, -1, 0], [1, 0, 0], [0, 0, 1]]  # equals Q Mf^T Q here
    return CohomologyLattice(3, Q, Mf, Mfinv, [(1, 0, 0), (1, 1, 0)], [1, 0, 0])


class TestLatticeValidation:
    def test_signature_enforced(self):
        with pytest.raises(ValueError, match="signature"):
            CohomologyLattice(2, [[1, 0], [0, 1]], np.eye(2, dtype=int) * 2,
                              np.eye(2, dtype=int) * 2, [], [1, 0])

    def test_asymmetric_form_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            CohomologyLattice(2, [[1, 1], [0, -1]], np.eye(2, dtype=int) * 2,
                              np.eye(2, dtype=int) * 2, [], [1, 0])

    def test_nonpositive_kaehler_class_rejected(self):
        with pytest.raises(ValueError, match="positive self-intersection"):
            CohomologyLattice(2, [[1, 0], [0, -1]], np.eye(2, dtype=int) * 2,
                              np.eye(2, dtype=int) * 2, [], [0, 1])


class TestSpectralData:
    def test_plane_degree_two(self):
        sd = spectral_data(plane_lattice(2))
        assert sd.rho == 2.0
        assert sd.theta_plus[0] == pytest.approx(1.0, abs=1e-12)
        assert sd.theta_minus[0] == pytest.approx(1.0, abs=1e-12)
        assert sd.beta_scaled[0] == pytest.approx(1.0, abs=1e-12)

    def test_no_expansion_for_degree_one(self):
        with pytest.raises(NoExpansion):
            spectral_data(plane_lattice(1))

    def test_rank3_golden_mean_squared(self):
        L = rank3_lattice()
        sd = spectral_data(L)
        assert sd.rho == pytest.approx(GOLDEN_SQ, abs=1e-12)
        assert sd.residual_spectrum_bound == pytest.approx(1.0, abs=1e-10)
        assert sd.residual_spectrum_bound < sd.rho
        Mf = L.Mf.astype(float)
        assert np.linalg.norm(Mf @ sd.theta_plus - sd.rho * sd.theta_plus) < 1e-10
        Minv = L.Mfinv.astype(float)
        assert np.linalg.norm(Minv @ sd.theta_minus - sd.rho * sd.theta_minus) < 1e-10
        for a, b in (
            (sd.theta_plus, sd.theta_minus),
            (sd.theta_plus, sd.beta_scaled),
            (sd.theta_minus, sd.beta_scaled),
        ):
            assert L.pairing(a, b) == pytest.approx(1.0, abs=1e-10)

    def test_forward_inverse_radii_agree(self):
        L = rank3_lattice()
        rho_f = max(abs(v) for v in np.linalg.eigvals(L.Mf.astype(float)))
        rho_b = max(abs(v) for v in np.linalg.eigvals(L.Mfinv.astype(float)))
        assert abs(rho_f - rho_b) < 1e-10

    def test_dominance_failure_detected(self):
        # rotation-like action: two eigenvalues of equal modulus
        L = CohomologyLattice(2, [[1, 0], [0, -1]], [[0, 2], [2, 0]],
                              [[0, 2], [2, 0]], [], [1, 0])
        with pytest.raises(SpectralError):
            spectral_data(L)

    def test_degenerate_pairing_with_kaehler_class(self):
        # theta_minus pairs to zero with beta: no joint scaling exists
        L = CohomologyLattice(2, [[1, 0], [0, -1]], [[2, 1], [0, 3]],
                              [[2, 0], [-1, 3]], [], [1, 0])
        assert check_adjoint(L)
        with pytest.raises(DegenerateNormalization):
            spectral_data(L)


class TestAdjointness:
    def test_plane_true(self):
        assert check_adjoint(plane_lattice(2))

    def test_solved_adjoint_true(self):
        Q = np.array([[1, 0], [0, -1]])
        Mf = np.array([[2, 1], [1, 1]])
        Mfinv = Q @ Mf.T @ Q  # Q is its own inverse here
        L = CohomologyLattice(2, Q, Mf, Mfinv, [], [1, 0])
        assert check_adjoint(L)

    def test_transposed_inverse_false(self):
        Q = np.array([[1, 0], [0, -1]])
        Mf = np.array([[2, 1], [0, 1]])
        Mfinv = (Q @ Mf.T @ Q).T
        L = CohomologyLattice(2, Q, Mf, Mfinv, [], [1, 0])
        assert not check_adjoint(L)


class TestCone:
    def test_hyperplane_in_cone(self):
        assert cone_K_test(plane_lattice(2), [1])

    def test_negative_class_outside(self):
        assert not cone_K_test(plane_lattice(2), [-1])

    def test_vacuous_when_no_curves(self):
        L = CohomologyLattice(1, [[1]], [[2]], [[2]], (), [1])
        assert cone_K_test(L, [-5])

    def test_expanding_class_in_cone_for_bundled_maps(self):
        for f in (henon_map(), lsigma_map()):
            L = map_lattice(f)
            sd = spectral_data(L)
            assert cone_K_test(L, sd.theta_plus)
        L3 = rank3_lattice()
        assert cone_K_test(L3, spectral_data(L3).theta_plus)


class TestDecomposition:
    def test_expanding_class_decomposes_trivially(self):
        L = rank3_lattice()
        sd = spectral_data(L)
        perp, c = class_decomposition(L, sd.theta_plus, sd)
        assert c == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.norm(perp) < 1e-10

    def test_kaehler_class_has_unit_coefficient(self):
        L = rank3_lattice()
        sd = spectral_data(L)
        perp, c = class_decomposition(L, sd.beta_scaled, sd)
        assert c == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(perp, sd.beta_scaled - sd.theta_plus, atol=1e-12)

    def test_random_classes_reconstruct_and_grow_slowly(self):
        L = rank3_lattice()
        sd = spectral_data(L)
        rng = np.random.default_rng(11)
        t = 0.5 * (sd.residual_spectrum_bound + sd.rho)
        for _ in range(10):
            eta = rng.integers(-5, 6, size=3).astype(float)
            perp, c = class_decomposition(L, eta, sd)
            assert np.linalg.norm(perp + c * sd.theta_plus - eta) < 1e-10
            C = remainder_growth_constant(L, perp, t, n_max=20)
            # remainder stays below C t^n with t strictly inside the gap,
            # hence is negligible against rho^n
            v = perp.copy()
            for n in range(1, 21):
                v = L.Mf.astype(float) @ v
                assert np.linalg.norm(v) <= C * t**n + 1e-9
            assert np.linalg.norm(v) / sd.rho**20 < 1e-3 * max(1.0, np.linalg.norm(eta))


class TestPlaneLattice:
    def test_henon_lattice(self):
        f = henon_map()
        L = map_lattice(f)
        assert L.rank == 1
        assert plane_expansion_rate(f) == spectral_data(L).rho == 2.0
        # contracted line at infinity contributes the single curve class
        assert [tuple(c) for c in L.curve_classes] == [(1,)]

    def test_unstable_map_rejected(self):
        with pytest.raises(SpectralError, match="drop at iterate 2"):
            plane_expansion_rate(cremona_involution())

    def test_truncated_sequence_names_where_composition_stopped(self, monkeypatch):
        """With a bit cap of 0 no exceptional orbit decides, so the degrees
        are composed, and above degree 8 composition stops at iterate 4
        before any drop: the rate is uncertified, and the message says where
        composition stopped rather than that the degrees drop."""
        monkeypatch.setattr(maps, "_MAX_COMPOSED_DEGREE", 8)
        monkeypatch.setattr(maps, "DEFAULT_COEFF_BIT_CAP", 0)
        with pytest.raises(SpectralError) as err:
            plane_expansion_rate(henon_map())
        assert "[2, 4, 8] stopped at iterate 4" in str(err.value)
        assert "None" not in str(err.value)

    def test_degree_one_lattice_has_no_expansion(self):
        f = diagonal_scaling_map()
        with pytest.raises(NoExpansion):
            spectral_data(map_lattice(f))
        with pytest.raises(NoExpansion):
            plane_expansion_rate(f)
