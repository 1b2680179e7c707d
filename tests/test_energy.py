"""Oracle tests for the discrete energy kernel.

All numeric targets below are derived independently of the implementation:

* With the Hermitian-matrix convention T = i * sum M_jk dz_j dz̄_k (so the
  Euclidean Kähler form beta is M = I/2) and d^c = i(conj-d - d), the
  4-volume density of  d(phi) ^ d^c(psi) ^ T  is  8 Re<adj(M) grad(phi),
  grad(psi)>  with grad = (d/dz1, d/dz2).
* phi = Re z1:  grad = (1/2, 0), so against beta the density is
  8 * (1/2) * (1/4) = 1 and the energy equals the box volume exactly.
* phi = Re(z1^2): grad = (z1, 0), density 4|z1|^2; over the box of
  half-width 1/2 centred at 0 the integral is 4 * (1/12 + 1/12) = 2/3.
* The comparison inequality for smooth u <= v with dd^c u, dd^c v >= -c*beta:
  both  E_T(u,v) - E_T(v,v) + c*int (v-u) beta^T  and
  E_T(u,u) - E_T(u,v) + c*int (v-u) beta^T  are nonnegative.
* beta ^ T has volume density 2 tr(M); for T = beta the total mass of a box
  is twice its volume.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from biratdyn.energy import (
    ChartFunction,
    ChartMeetsExceptionalSet,
    DiscreteForm11,
    EnergyError,
    GridChart,
    Jet,
    NonPositiveT,
    PremiseViolated,
    bump_function,
    cauchy_diagnostic,
    complex_hessian,
    constant_function,
    coordinate_part,
    energy,
    energy_monotonicity_check,
    log_distance,
    pushforward_energy_check,
    random_trig,
    smoothed_log_distance,
    smoothed_log_form,
)
from biratdyn.energy import (
    _SMOOTHING_WIDTH,
    _TARGET,
    _check_guards,
    _m_slope,
    _pairing_density,
    _widen,
    _window_integral,
)
from biratdyn.geometry import HomogeneousPolynomial, ProjectivePoint
from biratdyn.maps import RationalSurfaceMap, chart_map
from biratdyn.standard_maps import cremona_involution, henon_map, linear_map

ORIGIN = ProjectivePoint.exact_point(0, 0, 1)


def unit_box(resolution: int = 24) -> GridChart:
    return GridChart(center=ORIGIN, chart=2, halfwidth=0.5, resolution=resolution)


def wide_box(resolution: int = 16, halfwidth: float = 0.8) -> GridChart:
    return GridChart(center=ORIGIN, chart=2, halfwidth=halfwidth, resolution=resolution)


BETA = DiscreteForm11.euclidean()


# ---------------------------------------------------------------------------
# grid chart plumbing
# ---------------------------------------------------------------------------


class TestGridChart:
    def test_rejects_small_resolution(self):
        with pytest.raises(EnergyError):
            GridChart(center=ORIGIN, chart=2, halfwidth=1.0, resolution=7)

    @pytest.mark.parametrize("field,value", [
        ("resolution", 12.0), ("resolution", True), ("resolution", np.float64(12.0)),
        ("chart", 2.0), ("chart", True), ("chart", np.bool_(True)),
        ("halfwidth", math.inf), ("halfwidth", math.nan), ("halfwidth", True),
        ("halfwidth", 0), ("halfwidth", -1),
    ])
    def test_rejects_non_integer_chart_or_resolution(self, field, value):
        with pytest.raises(EnergyError, match="chart index" if field == "chart" else field):
            GridChart(center=ORIGIN, **{field: value})

    def test_accepts_numpy_integers(self):
        chart = GridChart(center=ORIGIN, chart=np.int64(2), halfwidth=0.5,
                          resolution=np.int32(8))
        assert energy(coordinate_part(1, "re"), BETA, chart) == pytest.approx(1.0, rel=1e-12)

    def test_target_resolution_is_checked_like_a_grid_resolution(self):
        chart = GridChart(center=ORIGIN, chart=2, halfwidth=0.6, resolution=8)
        for value in (12.0, 0, False):
            with pytest.raises(EnergyError, match="resolution"):
                pushforward_energy_check(random_trig(58), henon_map(), BETA, chart,
                                         target_resolution=value)

    def test_rejects_center_on_chart_line_at_infinity(self):
        with pytest.raises(EnergyError):
            GridChart(
                center=ProjectivePoint.exact_point(0, 1, 0),
                chart=2,
                halfwidth=1.0,
                resolution=16,
            )

    def test_axis_midpoints_are_symmetric_about_center(self):
        chart = GridChart(
            center=ProjectivePoint.numeric_point(0.3 - 0.1j, -0.2 + 0.4j, 1.0),
            chart=2,
            halfwidth=0.7,
            resolution=12,
        )
        c1, c2 = chart.affine_center
        assert np.isclose(chart.axis(0).mean(), c1.real, atol=1e-14)
        assert np.isclose(chart.axis(1).mean(), c1.imag, atol=1e-14)
        assert np.isclose(chart.axis(2).mean(), c2.real, atol=1e-14)
        assert np.isclose(chart.axis(3).mean(), c2.imag, atol=1e-14)
        steps = np.diff(chart.axis(0))
        assert np.allclose(steps, chart.step)

    def test_cell_volume(self):
        chart = unit_box(16)
        h = 2 * 0.5 / 16
        assert chart.cell_volume == pytest.approx(h**4, rel=1e-15)


# ---------------------------------------------------------------------------
# (1,1)-form containers
# ---------------------------------------------------------------------------


class TestDiscreteForm11:
    def test_euclidean_min_eigenvalue(self):
        assert BETA.min_eigenvalue(*unit_box(8).nodes()) == pytest.approx(0.5, abs=1e-15)

    def test_indefinite_matrix_rejected_by_energy(self):
        bad = DiscreteForm11.constant(0.5, 0.9, 0.5)  # eigenvalues 1.4, -0.4
        assert bad.min_eigenvalue(*unit_box(8).nodes()) < -1e-12
        with pytest.raises(NonPositiveT):
            energy(coordinate_part(1, "re"), bad, unit_box(8))

    def test_smoothed_log_form_is_positive(self):
        chart = wide_box(12)
        form = DiscreteForm11(smoothed_log_form((0.1, -0.05), 0.02))
        assert form.min_eigenvalue(*chart.nodes()) >= -1e-12

    def test_beta_wedge_beta_mass_is_twice_volume(self):
        # v - u = 1 and both Hessians vanish, so the comparison mass is
        # the integral of beta ^ beta over the box
        chart = wide_box(10, halfwidth=0.6)
        report = energy_monotonicity_check(
            constant_function(-1.0), constant_function(0.0), BETA, chart)
        assert report.c == 0.0
        assert report.comparison_mass == pytest.approx(2 * (2 * 0.6) ** 4, rel=1e-12)


# ---------------------------------------------------------------------------
# quadrature oracles
# ---------------------------------------------------------------------------


class TestEnergyQuadrature:
    def test_constant_function_has_zero_energy(self):
        assert energy(constant_function(3.7), BETA, unit_box(8)) == 0.0

    def test_linear_coordinate_energy_equals_box_volume(self):
        val = energy(coordinate_part(1, "re"), BETA, unit_box(24))
        assert abs(val - 1.0) < 1e-12

    def test_imaginary_coordinate_matches_real_coordinate(self):
        chart = unit_box(16)
        a = energy(coordinate_part(1, "re"), BETA, chart)
        b = energy(coordinate_part(2, "im"), BETA, chart)
        assert a == b

    def test_quadratic_energy_two_thirds_with_h_squared_refinement(self):
        phi = ChartFunction(lambda z1, z2: Jet(np.real(z1**2), z1, np.zeros_like(z1)))
        coarse = energy(phi, BETA, unit_box(24))
        fine = energy(phi, BETA, unit_box(48))
        assert abs(coarse - 2.0 / 3.0) < 2e-3
        assert abs(fine - 2.0 / 3.0) < 0.3 * abs(coarse - 2.0 / 3.0)

    def test_bilinear_polarization_identity(self):
        chart = wide_box(12)
        phi = random_trig(11)
        psi = random_trig(12)
        t = DiscreteForm11.constant(0.8, 0.1 + 0.2j, 0.7)
        assert t.min_eigenvalue(*chart.nodes()) > 0
        e_sum = energy(phi + psi, t, chart)
        e_phi = energy(phi, t, chart)
        e_psi = energy(psi, t, chart)
        e_mixed = energy(phi, t, chart, psi=psi)
        assert abs(e_sum - (e_phi + 2 * e_mixed + e_psi)) < 1e-10

    def test_symmetry_is_exact(self):
        chart = wide_box(10)
        phi = random_trig(21)
        psi = random_trig(22)
        t = DiscreteForm11.constant(0.9, 0.15 - 0.1j, 0.6)
        assert energy(phi, t, chart, psi=psi) == energy(psi, t, chart, psi=phi)

    def test_energy_nonnegative_for_positive_form(self):
        chart = wide_box(10)
        for seed in range(5):
            phi = random_trig(seed)
            assert energy(phi, BETA, chart) >= -1e-12


# ---------------------------------------------------------------------------
# chart functions and derivatives
# ---------------------------------------------------------------------------


def _fd_wirtinger(fn, z1, z2, var: int, eps: float = 1e-6) -> np.ndarray:
    """Finite-difference d/dz_var of the value of a chart function."""

    def value(a, b):
        return fn(a, b).value

    if var == 1:
        dx = (value(z1 + eps, z2) - value(z1 - eps, z2)) / (2 * eps)
        dy = (value(z1 + 1j * eps, z2) - value(z1 - 1j * eps, z2)) / (2 * eps)
    else:
        dx = (value(z1, z2 + eps) - value(z1, z2 - eps)) / (2 * eps)
        dy = (value(z1, z2 + 1j * eps) - value(z1, z2 - 1j * eps)) / (2 * eps)
    return 0.5 * (dx - 1j * dy)


class TestChartFunctions:
    SAMPLES = [
        (0.31 + 0.12j, -0.44 + 0.27j),
        (-0.52 - 0.33j, 0.18 - 0.09j),
        (0.05 + 0.41j, 0.37 + 0.22j),
    ]

    @pytest.mark.parametrize(
        "fn",
        [
            random_trig(5),
            log_distance((0.9, -0.8)),
            smoothed_log_distance((0.9, -0.8), 0.1),
            bump_function((0.0, 0.0), (0.9, 0.9, 0.9, 0.9)),
        ],
        ids=["trig", "log", "smoothed-log", "bump"],
    )
    def test_analytic_first_derivatives_match_finite_differences(self, fn):
        for p1, p2 in self.SAMPLES:
            z1 = np.array([p1])
            z2 = np.array([p2])
            jet = fn(z1, z2)
            for var, got in ((1, jet.d1), (2, jet.d2)):
                ref = _fd_wirtinger(fn, z1, z2, var)
                assert np.allclose(got, ref, atol=5e-7), (var, p1, p2)

    def test_trig_analytic_hessian_matches_finite_differences(self):
        fn = random_trig(7)
        z1 = np.array([0.21 - 0.33j])
        z2 = np.array([-0.11 + 0.42j])
        h11, h12, h22 = complex_hessian(fn, z1, z2)
        bare = ChartFunction(lambda z1, z2: fn(z1, z2)._replace(hessian=None))
        f11, f12, f22 = complex_hessian(bare, z1, z2)
        assert np.allclose(h11, f11, atol=1e-6)
        assert np.allclose(h12, f12, atol=1e-6)
        assert np.allclose(h22, f22, atol=1e-6)

    def test_smoothed_log_form_is_dd_c_of_smoothed_log(self):
        """The closed positive form returned by smoothed_log_form must be the
        complex Hessian (times 2, the dd^c normalization) of the smoothed
        logarithm - two independently coded expressions."""
        a = (0.13, -0.21)
        s = 0.3
        z1 = np.array([0.4 + 0.2j, -0.3 + 0.1j])
        z2 = np.array([0.1 - 0.5j, 0.2 + 0.3j])
        pot = smoothed_log_distance(a, s)
        h11, h12, h22 = complex_hessian(pot, z1, z2)
        fa, fb, fc = smoothed_log_form(a, s)(z1, z2)
        assert np.allclose(fa, 2 * np.real(h11), atol=1e-6)
        assert np.allclose(fb, 2 * h12, atol=1e-6)
        assert np.allclose(fc, 2 * np.real(h22), atol=1e-6)


# ---------------------------------------------------------------------------
# the two-sided comparison inequality
# ---------------------------------------------------------------------------


class TestMonotonicityCheck:
    def test_equal_arguments_give_zero_residuals(self):
        chart = wide_box(12)
        v = random_trig(31)
        report = energy_monotonicity_check(v, v, BETA, chart)
        assert report.residuals == (0.0, 0.0)

    def test_constant_shift_gives_exact_mass_residuals(self):
        chart = wide_box(12)
        v = random_trig(32)
        u = v + constant_function(-1.0)
        report = energy_monotonicity_check(u, v, BETA, chart)
        assert report.c > 0
        volume = (2 * 0.8) ** 4
        assert report.comparison_mass == pytest.approx(2 * volume, rel=1e-12)
        expected = report.c * report.comparison_mass
        assert report.residuals[0] == expected
        assert report.residuals[1] == expected

    def test_order_premise_enforced(self):
        chart = wide_box(12)
        v = random_trig(33)
        u = v + constant_function(0.5)  # u > v violates u <= v
        with pytest.raises(PremiseViolated):
            energy_monotonicity_check(u, v, BETA, chart)

    def test_supplied_c_too_small_is_rejected(self):
        chart = wide_box(12)
        v = ChartFunction(lambda z1, z2: Jet(
            -np.abs(z1) ** 2,
            -np.conj(z1),
            np.zeros_like(z1),
            (
                -np.ones_like(z1, dtype=float),
                np.zeros_like(z1),
                np.zeros_like(z1, dtype=float),
            ),
        ))
        u = v + constant_function(-1.0)
        with pytest.raises(PremiseViolated):
            energy_monotonicity_check(u, v, BETA, chart, c=1.0)
        report = energy_monotonicity_check(u, v, BETA, chart, c=8.0)
        assert min(report.residuals) >= -1e-8

    def test_two_hundred_random_pairs_satisfy_both_inequalities(self):
        chart = wide_box(10)
        worst = math.inf
        for seed in range(200):
            v = random_trig(2 * seed, terms=3, amplitude=0.4)
            drop = random_trig(2 * seed + 1, terms=2, amplitude=0.2)
            # u = v - (positive function): subtract a shifted oscillation
            u = v + (-1.0) * drop + constant_function(-1.3)
            report = energy_monotonicity_check(u, v, BETA, chart)
            worst = min(worst, *report.residuals)
        assert worst >= -1e-8

    def test_mixed_form_also_passes(self):
        chart = wide_box(10)
        t = DiscreteForm11.constant(0.7, 0.2 + 0.1j, 0.8)
        assert t.min_eigenvalue(*chart.nodes()) > 0
        for seed in (400, 401, 402):
            v = random_trig(seed, terms=3, amplitude=0.4)
            u = v + constant_function(-0.7)
            report = energy_monotonicity_check(u, v, t, chart)
            assert min(report.residuals) >= -1e-8


# ---------------------------------------------------------------------------
# Cauchy behaviour of regularizing sequences
# ---------------------------------------------------------------------------

SING = (0.0137, -0.0071, 0.0113, 0.0049)  # generic offset, never a grid node
SING_C = (SING[0] + 1j * SING[1], SING[2] + 1j * SING[3])


class TestCauchyDiagnostic:
    def test_smooth_function_stabilizes_immediately(self):
        chart = wide_box(12)
        u = 0.3 * random_trig(41)
        diag = cauchy_diagnostic(u, BETA, chart, levels=range(1, 9))
        assert diag.matrix.max() < 1e-9
        assert diag.decays

    def test_log_singularity_against_smooth_form_is_cauchy(self):
        chart = GridChart(center=ORIGIN, chart=2, halfwidth=0.8, resolution=24)
        u = log_distance(SING_C)
        diag = cauchy_diagnostic(u, BETA, chart, levels=range(1, 9))
        cons = np.asarray(diag.consecutive)
        # entries fade along the tail and end below the resolution floor
        assert np.all(cons[1:] <= cons[:-1] + 1e-12)
        assert cons[-1] < 1e-6
        assert diag.decays
        # seminorms stay bounded: the tail no longer grows
        semis = np.asarray(diag.seminorms)
        assert semis[-1] <= semis[len(semis) // 2] * 1.05

    def test_form_with_infinite_potential_at_singularity_fails_to_decay(self):
        chart = GridChart(center=ORIGIN, chart=2, halfwidth=0.8, resolution=32)
        u = log_distance(SING_C)
        levels = [0.5 + 0.25 * k for k in range(9)]
        smooth = cauchy_diagnostic(u, BETA, chart, levels=levels)
        assert smooth.decays
        # concentrate T at the singular point of u: its local potential is
        # -inf there in the unsmoothed limit
        t = DiscreteForm11(smoothed_log_form(SING_C, chart.step / 4))
        bad = cauchy_diagnostic(u, t, chart, levels=levels)
        assert not bad.decays
        cons = np.asarray(bad.consecutive)
        assert cons[-1] > 0.3 * cons[0]
        # seminorms keep growing instead of saturating
        semis = np.asarray(bad.seminorms)
        assert semis[-1] > semis[len(semis) // 2] * 1.1


def whole_grid_cauchy(u, coefficients, chart, levels):
    """(matrix, seminorms, consecutive) of the Cauchy diagnostic summed over
    the whole grid at once, as the diagnostic did before it walked chunks:
    the reference for the chunked sums."""
    z1, z2 = chart.nodes()
    a, b, c = coefficients(z1, z2)
    with np.errstate(divide="ignore", invalid="ignore"):
        ju = u(z1, z2)
        uval = np.broadcast_to(np.asarray(ju.value, dtype=np.float64), chart.shape)
        p1, p2 = np.asarray(ju.d1), np.asarray(ju.d2)
        density = np.broadcast_to(np.asarray(_pairing_density(p1, p2, p1, p2, a, b, c)),
                                  chart.shape)
    density = np.where(np.isfinite(uval) & np.isfinite(density), density, 0.0)
    weights = [_m_slope(uval + j, _SMOOTHING_WIDTH) for j in levels]
    vol = chart.cell_volume
    n = len(levels)
    matrix = np.zeros((n, n))
    seminorms = []
    for i in range(n):
        seminorms.append(math.sqrt(max(float(np.sum(weights[i] ** 2 * density)) * vol, 0.0)))
        for k in range(i + 1, n):
            diff = weights[i] - weights[k]
            val = math.sqrt(max(float(np.sum(diff**2 * density)) * vol, 0.0))
            matrix[i, k] = matrix[k, i] = val
    return matrix, tuple(seminorms), tuple(float(matrix[i, i + 1]) for i in range(n - 1))


# energy-selftest's Cauchy check: the smooth case on 24^4 nodes and the
# concentrated-form control on 32^4
SELFTEST_SING = (0.1 + 0.05j, -0.2 + 0.0j)
CONTROL_BOX = GridChart(center=ORIGIN, chart=2, halfwidth=0.8, resolution=32)
CONTROL_LEVELS = [0.5 + 0.25 * k for k in range(9)]


def selftest_case(name):
    """(u, coefficient closure, chart, levels, expected decays)."""
    if name == "smooth-r24":
        box = GridChart(center=ORIGIN, chart=2, halfwidth=0.8, resolution=24)
        return log_distance(SELFTEST_SING), BETA.coefficients, box, list(range(1, 9)), True
    concentrated = smoothed_log_form(SELFTEST_SING, CONTROL_BOX.step / 4)
    return log_distance(SELFTEST_SING), concentrated, CONTROL_BOX, CONTROL_LEVELS, False


class TestChunkedCauchy:
    @pytest.mark.parametrize("name", ["smooth-r24", "control-r32"])
    def test_chunks_agree_with_the_whole_grid_sums(self, name):
        u, coefficients, chart, levels, decays = selftest_case(name)
        diag = cauchy_diagnostic(u, DiscreteForm11(coefficients), chart, levels)
        matrix, seminorms, consecutive = whole_grid_cauchy(u, coefficients, chart, levels)
        # only the summation order differs: a few units in the last place
        np.testing.assert_allclose(diag.matrix, matrix, rtol=1e-12, atol=0)
        np.testing.assert_allclose(diag.seminorms, seminorms, rtol=1e-12, atol=0)
        np.testing.assert_allclose(diag.consecutive, consecutive, rtol=1e-12, atol=0)
        assert diag.decays is decays

    def test_control_runs_in_bounded_memory(self):
        # the whole-grid sums held over 137 MB here, plus a 32 MB sampled form
        tracemalloc.start()
        try:
            form = DiscreteForm11(smoothed_log_form(SELFTEST_SING, CONTROL_BOX.step / 4))
            cauchy_diagnostic(log_distance(SELFTEST_SING), form, CONTROL_BOX, CONTROL_LEVELS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_indefinite_chunk_raises(self):
        # positive where Re z1 <= 0.25, indefinite beyond: the walk passes
        # the first chunks and raises on the first indefinite one
        chart = wide_box(12)
        calls = []

        def coefficients(z1, z2):
            calls.append(z1)
            return 0.5, 2.0 * np.maximum(np.real(z1), 0.0), 0.5

        with pytest.raises(NonPositiveT):
            cauchy_diagnostic(log_distance(SING_C), DiscreteForm11(coefficients),
                              chart, levels=range(1, 5))
        x1 = chart.axis(0)
        assert len(calls) == int(np.argmax(x1 > 0.25)) + 1
        assert 1 < len(calls) < chart.resolution


# ---------------------------------------------------------------------------
# change of variables
# ---------------------------------------------------------------------------


def _rotation_map() -> RationalSurfaceMap:
    from fractions import Fraction

    m = [
        [Fraction(3, 5), Fraction(-4, 5), 0],
        [Fraction(4, 5), Fraction(3, 5), 0],
        [0, 0, 1],
    ]
    minv = [
        [Fraction(3, 5), Fraction(4, 5), 0],
        [Fraction(-4, 5), Fraction(3, 5), 0],
        [0, 0, 1],
    ]
    return linear_map(m, name="rotation35"), linear_map(minv, name="rotation35-inv")


def assert_pinned(check, source, target, discrepancy):
    """The three floats of a check, bit for bit (``float.hex`` strings)."""
    got = (check.source_value, check.target_value, check.relative_discrepancy)
    assert tuple(x.hex() for x in got) == (source, target, discrepancy)


class TestPushforward:
    # the float.hex pins hold the change of variables to its float
    # operations in their order: any reordering moves the last bits

    def test_unitary_rotation_is_an_isometry(self):
        f, finv = _rotation_map()
        f.inverse = finv
        finv.inverse = f
        u = random_trig(51, terms=3, amplitude=0.6)
        chart = GridChart(center=ORIGIN, chart=2, halfwidth=1.0, resolution=24)
        check = pushforward_energy_check(u, f, BETA, chart)
        assert check.relative_discrepancy < 1e-3
        assert_pinned(check, "0x1.f467e60a61c7bp-5", "0x1.f46c89195cce6p-5",
                      "0x1.2fa12867ebe3fp-15")

    def test_henon_window_away_from_exceptional_sets(self):
        h = henon_map()
        chart = GridChart(center=ORIGIN, chart=2, halfwidth=0.6, resolution=24)
        u = random_trig(52, terms=3, amplitude=0.5)
        check = pushforward_energy_check(u, h, BETA, chart)
        assert check.relative_discrepancy < 0.02
        assert_pinned(check, "0x1.e2240c4946490p-11", "0x1.e1ebb385dfea5p-11",
                      "0x1.deb0c2b0fd6d4p-12")

    def test_log_singularity_with_finite_potential_form(self):
        h = henon_map()
        chart = GridChart(center=ORIGIN, chart=2, halfwidth=0.6, resolution=24)
        probe = pushforward_energy_check(
            random_trig(53), h, BETA, chart
        )
        tc1, tc2 = probe.target_chart.affine_center
        sing = (tc1 + (0.0231 + 0.0117j), tc2 + (-0.0153 + 0.0191j))
        u = log_distance(sing)
        check = pushforward_energy_check(
            u, h, BETA, chart, target_resolution=48
        )
        assert math.isfinite(check.source_value)
        assert math.isfinite(check.target_value)
        assert check.relative_discrepancy < 0.05
        assert_pinned(check, "0x1.724686f562382p-1", "0x1.6d1cf3512480dp-1",
                      "0x1.c8da9c0570171p-7")

    def test_window_meeting_indeterminacy_is_rejected(self):
        sigma = cremona_involution()
        chart = GridChart(center=ORIGIN, chart=2, halfwidth=0.5, resolution=12)
        with pytest.raises(ChartMeetsExceptionalSet):
            pushforward_energy_check(random_trig(54), sigma, BETA, chart)

    def test_missing_inverse_is_rejected(self):
        x = HomogeneousPolynomial.monomial(1, 0, 0)
        y = HomogeneousPolynomial.monomial(0, 1, 0)
        t = HomogeneousPolynomial.monomial(0, 0, 1)
        f = RationalSurfaceMap([x + y, y, t])
        chart = GridChart(center=ORIGIN, chart=2, halfwidth=0.5, resolution=12)
        with pytest.raises(EnergyError):
            pushforward_energy_check(random_trig(55), f, BETA, chart)

    def test_node_varying_form(self):
        # the form is evaluated on the source nodes and on the preimages of
        # the target nodes; the identity holds as tightly as for beta
        h = henon_map()
        chart = GridChart(center=ORIGIN, chart=2, halfwidth=0.6, resolution=24)
        u = random_trig(52, terms=3, amplitude=0.5)
        form = DiscreteForm11(smoothed_log_form((0.3 - 0.2j, -0.4 + 0.1j), 0.7))
        check = pushforward_energy_check(u, h, form, chart)
        assert check.relative_discrepancy < 1e-3
        flat = pushforward_energy_check(u, h, BETA, chart)
        assert abs(check.source_value / flat.source_value - 1.0) > 0.1

    @pytest.mark.parametrize("form", [
        (0.5, 0.0, 0.5),
        smoothed_log_form((0.0, 0.0), 1.0),
    ], ids=["not-a-form", "bare-closure"])
    def test_form_that_cannot_be_pushed_is_rejected(self, form):
        chart = GridChart(center=ORIGIN, chart=2, halfwidth=0.6, resolution=12)
        with pytest.raises(EnergyError):
            pushforward_energy_check(random_trig(56), henon_map(), form, chart)

    def test_pivot_vanishing_at_a_node_trips_the_line_at_infinity_guard(self):
        # the target pivot z1 - z2 is exactly zero at the 64 nodes with
        # z1 == z2, where the image node lies on the chart's line at
        # infinity; a linear map has no indeterminacy and no critical set,
        # so only the margin guard can stop the check
        f = linear_map([[1, 0, 0], [0, 0, 1], [1, -1, 0]], name="pivot-z1-minus-z2")
        chart = GridChart(center=ORIGIN, chart=2, halfwidth=0.5, resolution=8)
        with np.errstate(all="ignore"), pytest.raises(
            ChartMeetsExceptionalSet, match="line at infinity"
        ):
            pushforward_energy_check(random_trig(57), f, BETA, chart)


class TestWindowIntegral:
    # the target window's errors, which no whole check reaches: its
    # integrand and its critical-set proxy stay tame on every test window

    def test_non_finite_target_integrand(self):
        h = henon_map()
        chart = GridChart(center=ORIGIN, chart=2, halfwidth=0.5, resolution=8)

        def nan_density(z1, z2, w1, w2, J):
            return np.where(np.abs(z1) < 0.1, np.nan, 1.0)

        with pytest.raises(EnergyError, match="^target integrand is not finite on the grid$"):
            _window_integral(h.inverse, chart, nan_density, _TARGET)

    def test_target_window_near_the_inverse_critical_set(self):
        # sigma's critical set is xyt = 0; this window runs along y = 0 at
        # distance 0.02, where neither margin guard fires
        sigma = cremona_involution()
        center = ProjectivePoint.numeric_point(1.0, 0.02, 1.0)
        chart = GridChart(center=center, chart=2, halfwidth=0.01, resolution=8)
        with pytest.raises(
            ChartMeetsExceptionalSet,
            match=r"^image window approaches the inverse critical set \(normalized distance",
        ):
            _window_integral(sigma, chart, lambda *nodes: 1.0, _TARGET)


# ---------------------------------------------------------------------------
# change-of-variables guard margins
# ---------------------------------------------------------------------------


NO_NODES = (math.inf, 0.0)


def henon_margins(z1, z2, denominator=NO_NODES, jacobian=NO_NODES):
    """The margins ``pushforward_energy_check`` widens over one chunk of
    Hénon's chart-2 map."""
    _, _, J, D = chart_map(henon_map(), 2, 2, z1, z2)
    det = J[0][0] * J[1][1] - J[0][1] * J[1][0]
    return _widen(*denominator, np.abs(D)), _widen(*jacobian, np.abs(det))


class TestGuardMargins:
    def test_margins_of_no_nodes_fire_no_guard(self):
        # the margins a check starts from, before any node widens them
        _check_guards(NO_NODES, NO_NODES)

    def test_margins_skip_nan_lanes(self):
        # a NaN lane used to turn the batch minimum into NaN, which min()
        # then dropped along with every finite lane of the batch
        denominator, jacobian = henon_margins(np.array([np.nan, 0.5]), np.array([0.1, 0.2]))
        assert jacobian == (0.25, 0.25)
        assert (denominator, jacobian) == henon_margins(np.array([0.5]), np.array([0.2]))
        # an all-NaN batch leaves the margins as they were
        again = henon_margins(np.array([np.nan]), np.array([np.nan]), denominator, jacobian)
        assert again == (denominator, jacobian)
        assert henon_margins(np.array([np.nan]), np.array([np.nan]))[1] == NO_NODES

    def test_line_at_infinity_guard(self):
        _check_guards((1e-8, 1.0), (1.0, 1.0))
        with pytest.raises(ChartMeetsExceptionalSet, match="line at infinity"):
            _check_guards((1e-10, 1.0), (1.0, 1.0))
        # the guard is relative to the largest pivot seen
        with pytest.raises(ChartMeetsExceptionalSet, match="line at infinity"):
            _check_guards((1e-3, 1e7), (1.0, 1.0))

    def test_chart_jacobian_guard(self):
        _check_guards((1.0, 1.0), (1e-9, 1.0))
        with pytest.raises(ChartMeetsExceptionalSet, match="chart Jacobian degenerates"):
            _check_guards((1.0, 1.0), (1e-11, 1.0))
        with pytest.raises(ChartMeetsExceptionalSet, match="chart Jacobian degenerates"):
            _check_guards((1.0, 1.0), (1e-4, 1e7))


# ---------------------------------------------------------------------------
# one evaluation per grid
# ---------------------------------------------------------------------------


def counted(fn: ChartFunction, calls: list) -> ChartFunction:
    """``fn`` recording the coordinate arrays of each evaluation."""

    def jet(z1, z2):
        calls.append((z1, z2))
        return fn(z1, z2)

    return ChartFunction(jet)


def node_calls(calls: list, chart: GridChart) -> int:
    z1, z2 = chart.nodes()
    return sum(np.array_equal(a, z1) and np.array_equal(b, z2) for a, b in calls)


class TestOneEvaluationPerGrid:
    def test_energy(self):
        chart = wide_box(10)
        phi_calls, psi_calls = [], []
        phi = counted(random_trig(61), phi_calls)
        psi = counted(random_trig(62), psi_calls)
        energy(phi, BETA, chart)
        assert len(phi_calls) == node_calls(phi_calls, chart) == 1
        energy(phi, BETA, chart, psi=psi)
        assert len(phi_calls) == node_calls(phi_calls, chart) == 2
        assert len(psi_calls) == node_calls(psi_calls, chart) == 1

    def test_monotonicity_check_with_analytic_hessians(self):
        chart = wide_box(10)
        u_calls, v_calls = [], []
        v = random_trig(63)
        u = counted(v + constant_function(-1.0), u_calls)
        energy_monotonicity_check(u, counted(v, v_calls), BETA, chart)
        assert len(u_calls) == node_calls(u_calls, chart) == 1
        assert len(v_calls) == node_calls(v_calls, chart) == 1

    def test_monotonicity_check_with_difference_hessians(self):
        chart = wide_box(10)
        u_calls, v_calls = [], []
        v = smoothed_log_distance((0.05, -0.1), 0.5)
        u = counted(v + constant_function(-1.0), u_calls)
        energy_monotonicity_check(u, counted(v, v_calls), BETA, chart)
        # one jet on the nodes, then the gradient at 8 shifted grids
        for calls in (u_calls, v_calls):
            assert node_calls(calls, chart) == 1
            assert len(calls) == 9

    def test_cauchy_diagnostic(self):
        # the diagnostic walks the grid one chunk per Re z1 node, and
        # evaluates u and the form's closure once on each chunk
        chart = wide_box(12)
        calls, form_calls = [], []
        closure = smoothed_log_form(SING_C, 0.5)

        def coefficients(z1, z2):
            form_calls.append((z1, z2))
            return closure(z1, z2)

        form = DiscreteForm11(coefficients)
        cauchy_diagnostic(counted(log_distance(SING_C), calls), form, chart, levels=range(1, 5))
        for recorded in (calls, form_calls):
            assert len(recorded) == 12
            assert all(z1.shape == (12**3,) for z1, _ in recorded)
        assert all(a is c and b is d for (a, b), (c, d) in zip(calls, form_calls))

    def test_pushforward_check_evaluates_once_per_chunk(self):
        chart = GridChart(center=ORIGIN, chart=2, halfwidth=0.6, resolution=12)
        calls = []
        check = pushforward_energy_check(
            counted(random_trig(64, terms=3), calls), henon_map(), BETA, chart,
            target_resolution=10,
        )
        # one chunk per Re z1 node of the source box, then of the target box
        assert check.target_chart.resolution == 10
        assert len(calls) == 12 + 10
        assert all(z1.shape == (12**3,) for z1, _ in calls[:12])
        assert all(z1.shape == (10**3,) for z1, _ in calls[12:])
