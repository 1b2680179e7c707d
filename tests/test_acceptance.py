"""Acceptance gate: one test per top-level correctness claim.

Each test is a desk-scale, property-based check of one pillar of the
package, pinned at the tolerances stated in its docstring.  Run with
``pytest -v tests/test_acceptance.py`` to get exactly one pass/fail
line per claim:

1. exact algebra — involution composes to the identity, quadratic
   degree growth is exactly 2^n, indeterminacy loci match exactly;
2. spectral layer — growth rate equals the degree for stable maps,
   forward/inverse rates agree, normalization residuals vanish, the
   expanded class lies in the effective cone;
3. stability conditions — separation verdicts, forward/backward
   summability equivalence, and the finite-potential bridge;
4. potentials — telescoping identity, functional equation, log-pole
   slope 1/d of the step potential, Monte-Carlo truncation gap,
   volume-decay exponent;
5. energy kernel — monotonicity residuals, Cauchy decay with negative
   control, pushforward identity on refined grids;
6. invariant measure — period-5/6 cloud agreement, exact unit mass,
   shrinking bump/tube masses, invariance, mixing decay;
7. log-pole strength — unit slope on the analytic model, zero at
   generic points, bounded below at the indeterminacy point;
8. cocycle exponents — exact on diagonal maps, volume identity within
   2 SE, hyperbolicity verdict, integrability Cauchy gap;
9. reproducibility — identical inputs and seed give byte-identical
   artifacts for every subcommand.

All ingredients are bundled: the map corpus ships with the package and
every random draw is seeded.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from biratdyn.cli import main as cli_main
from biratdyn.cohomology import (
    CohomologyLattice,
    NoExpansion,
    SpectralError,
    cone_K_test,
    plane_expansion_rate,
    spectral_data,
)
from biratdyn.energy import (
    DiscreteForm11,
    GridChart,
    cauchy_diagnostic,
    constant_function,
    energy_monotonicity_check,
    log_distance,
    pushforward_energy_check,
    random_trig,
    smoothed_log_form,
)
from biratdyn.geometry import ProjectivePoint
from biratdyn.lyapunov import cocycle_exponents, hyperbolicity_verdict
from biratdyn.mapfile import corpus_path, load_map
from biratdyn.maps import apply, compose, degree_sequence
from biratdyn.measure import (
    bump_observable,
    cloud_agreement,
    invariance_residual,
    measure_average,
    mixing_correlations,
    random_observable,
    saddle_cloud,
    saddle_periodic_points,
    tube_observable,
)
from biratdyn.potential import (
    DEFAULT_LELONG_RADII,
    _green_sums,
    _partial_sums,
    _point_logs,
    _telescoped,
    green_at_inverse_indeterminacy,
    green_functional_check,
    green_lelong_estimate,
    lelong_estimate,
    shell_means,
)
from biratdyn.stability import check_orbit_separation, exceptional_orbits, summability
from biratdyn.standard_maps import Y, linear_map

P = ProjectivePoint.exact_point
CORPUS = ("cremona", "henon", "linear", "lsigma")


def random_points(n, seed):
    rng = np.random.default_rng(seed)
    return [
        ProjectivePoint.numeric_point(*(rng.normal(size=3) + 1j * rng.normal(size=3)))
        for _ in range(n)
    ]


@pytest.fixture(scope="module")
def maps():
    return {name: load_map(corpus_path(name)) for name in CORPUS}


@pytest.fixture(scope="module")
def henon(maps):
    return maps["henon"]


@pytest.fixture(scope="module")
def cloud5(henon):
    return saddle_cloud(henon, 5)


@pytest.fixture(scope="module")
def cloud6(henon):
    return saddle_cloud(henon, 6)


def same_point_sets(got, expected):
    if len(got) != len(expected):
        return False
    return all(any(p.same_point(q) for q in got) for p in expected) and all(
        any(p.same_point(q) for p in expected) for q in got
    )


def test_1_exact_algebra_composition_degrees_and_loci(maps):
    """The quadratic involution squares to the identity after exact
    cancellation; quadratic-automorphism degrees are exactly 2^n for
    n <= 5; indeterminacy loci match the expected exact points."""
    sigma, h = maps["cremona"], maps["henon"]

    square = compose(sigma, sigma)
    assert square.degree == 1
    for p in (P(1, 2, 3), P(1, 1, 1), P(-5, 7, 11), P(2, -3, 1)):
        image = apply(square, p)
        assert image.kind == "point" and image.point.same_point(p)

    assert list(degree_sequence(h, 5).degrees) == [2, 4, 8, 16, 32]
    assert list(degree_sequence(sigma, 5).degrees) == [2, 1, 2, 1, 2]

    assert same_point_sets(sigma.indeterminacy_set(),
                           [P(1, 0, 0), P(0, 1, 0), P(0, 0, 1)])
    assert same_point_sets(h.indeterminacy_set(), [P(1, 0, 0)])
    assert same_point_sets(h.inverse.indeterminacy_set(), [P(0, 1, 0)])


def plane_lattice(f):
    """The plane's rank-one lattice for f: form (1), both actions
    multiplication by the degree, and the degrees of the inverse's critical
    factors as the contracted-curve classes."""
    curves = [(factor.degree,) for factor, _ in f.inverse.critical_set()]
    return CohomologyLattice(1, [[1]], [[f.degree]], [[f.degree]], curves, [1])


def test_2_spectral_rates_normalization_and_cone(maps):
    """For degree-stable maps the certified rate equals the degree and the
    lattice's spectral radius, and matches the inverse's rate to 1e-10; the
    class normalization residuals are < 1e-10; the expanded class lies in
    the effective cone.  Degree-1 maps certify no-expansion; degree-dropping
    maps are rejected by the rate certificate."""
    for name in ("henon", "lsigma"):
        f = maps[name]
        L = plane_lattice(f)
        sd = spectral_data(L)
        assert plane_expansion_rate(f) == sd.rho == float(f.degree)

        rho_inv = plane_expansion_rate(f.inverse)
        assert rho_inv == spectral_data(plane_lattice(f.inverse)).rho
        assert abs(sd.rho - rho_inv) <= 1e-10

        Mf = np.asarray(L.Mf, dtype=float)
        Minv = np.asarray(L.Mfinv, dtype=float)
        assert np.linalg.norm(Mf @ sd.theta_plus - sd.rho * sd.theta_plus) < 1e-10
        assert np.linalg.norm(Minv @ sd.theta_minus - sd.rho * sd.theta_minus) < 1e-10
        for a, b in ((sd.theta_plus, sd.theta_minus),
                     (sd.theta_plus, sd.beta_scaled),
                     (sd.theta_minus, sd.beta_scaled)):
            assert L.pairing(a, b) == pytest.approx(1.0, abs=1e-10)

        assert cone_K_test(L, sd.theta_plus)

    with pytest.raises(NoExpansion):
        plane_expansion_rate(maps["linear"])
    with pytest.raises(NoExpansion):
        spectral_data(plane_lattice(maps["linear"]))
    with pytest.raises(SpectralError):
        plane_expansion_rate(maps["cremona"])


def test_3_separation_summability_equivalence_and_bridge(maps):
    """Orbit separation fails at step 0 for the involution and holds
    through 50 steps for the quadratic automorphism; forward and
    backward summability verdicts agree on every bundled map; the
    truncated potential is finite on the inverse indeterminacy points
    exactly when the forward series converges."""
    sep_sigma = check_orbit_separation(maps["cremona"], 50)
    assert not sep_sigma.holds and sep_sigma.fails_at == 0
    sep_h = check_orbit_separation(maps["henon"], 50)
    assert sep_h.holds and sep_h.through == 50

    for name in CORPUS:
        f = maps[name]
        # the weighting needs a rate above 1; for the degree-1 map the
        # series is vacuous (empty indeterminacy), so any rate certifies it
        rho = max(float(f.degree), 2.0)
        fwd = summability(exceptional_orbits(f, 50), rho)
        bwd = summability(exceptional_orbits(f.inverse, 50), rho)
        assert fwd.verdict == bwd.verdict, name

        values = green_at_inverse_indeterminacy(f, 50)
        finite = all(math.isfinite(v) for v in values)
        if fwd.verdict == "Converged":
            assert finite, name
        elif fwd.verdict == "Diverging":
            assert not finite, name


def test_4_potential_identities_envelope_and_decay(maps):
    """Telescoped and direct partial sums agree to 1e-9 relative at
    1000 random points; the functional-equation residual at depth 25
    stays below the 1e-7 tail bound; the step potential's Lelong slope
    at the indeterminacy point is 1/d = 0.5 +- 0.05; the Monte-Carlo L1
    gap between depths 25 and 50 is < 1e-4; the volume-decay fit
    exponent stays below the expansion rate."""
    h, ls = maps["henon"], maps["lsigma"]

    # each map's 500 points are one batch through the Green kernel
    for f, seed in ((h, 5), (ls, 6)):
        logs = _point_logs(f, random_points(500, seed), 30)
        a, b = _green_sums(f, logs), _telescoped(logs, float(f.degree))
        assert np.all(np.abs(a - b) <= 1e-9 * np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-9))

    for p in random_points(50, 13):
        assert green_functional_check(h, p, 25) < 1e-7

    # the step potential's log pole at I(f) has Lelong slope 1/d
    assert green_lelong_estimate(h, P(1, 0, 0), 1) == pytest.approx(0.5, abs=0.05)

    for f in (h, ls):
        pts = random_points(200, 11)
        gaps = np.abs(_partial_sums(f, pts, 50) - _partial_sums(f, pts, 25))
        assert float(np.mean(gaps)) < 1e-4

    # Monte-Carlo means of |log-step| along orbits fit C * t^j with t < rho
    means = np.mean(np.abs(_point_logs(h, random_points(400, 41), 11)) / float(h.degree), axis=0)
    X = np.vstack([np.ones(10), np.arange(1, 11)]).T
    (_, log_t), *_ = np.linalg.lstsq(X, np.log(means[1:] + 1e-300), rcond=None)
    assert math.exp(log_t) < 2.0


def test_5_energy_monotonicity_cauchy_and_pushforward(henon):
    """Comparison residuals are >= -1e-8 on 200 random instances; a
    log singularity smoothed against the euclidean form is Cauchy in
    energy while the concentrated-form negative control is flagged;
    the pushforward identity holds within 2% for smooth data and 5%
    for log-singular data against refined-grid oracles."""
    origin = P(0, 0, 1)
    beta = DiscreteForm11.euclidean()
    box = GridChart(center=origin, chart=2, halfwidth=0.8, resolution=12)
    for k in range(200):
        v = random_trig(1000 + k)
        u = v + constant_function(-1.0)
        report = energy_monotonicity_check(u, v, beta, box)
        assert min(report.residuals) >= -1e-8

    sing = (0.1 + 0.05j, -0.2 + 0.0j)
    smooth_box = GridChart(center=origin, chart=2, halfwidth=0.8, resolution=24)
    assert cauchy_diagnostic(log_distance(sing), beta, smooth_box,
                             levels=range(1, 9)).decays
    control_box = GridChart(center=origin, chart=2, halfwidth=0.8, resolution=32)
    concentrated = DiscreteForm11(smoothed_log_form(sing, control_box.step / 4))
    assert not cauchy_diagnostic(log_distance(sing), concentrated, control_box,
                                 levels=[0.5 + 0.25 * k for k in range(9)]).decays

    window = GridChart(center=origin, chart=2, halfwidth=0.6, resolution=24)
    smooth = pushforward_energy_check(random_trig(52, terms=3, amplitude=0.5),
                                      henon, beta, window)
    assert smooth.relative_discrepancy < 0.02
    probe = pushforward_energy_check(random_trig(53), henon, beta, window)
    tc1, tc2 = probe.target_chart.affine_center
    shifted = (tc1 + (0.0231 + 0.0117j), tc2 + (-0.0153 + 0.0191j))
    singular = pushforward_energy_check(log_distance(shifted), henon, beta,
                                        window, target_resolution=48)
    assert singular.relative_discrepancy < 0.05


def test_6_measure_agreement_masses_invariance_mixing(henon, cloud5, cloud6):
    """Period-5 and period-6 saddle clouds give averages agreeing
    within 3 SE for 20 observables; weights sum to 1 exactly; bump and
    tube masses decrease with radius; invariance residuals are < 1e-8;
    autocorrelations at lags 1..10 drop below the lag-0 variance."""
    observables = [random_observable(seed) for seed in range(20)]
    rows = cloud_agreement(cloud5, cloud6, observables)
    assert len(rows) == 20
    assert all(row.compatible for row in rows)

    for cloud in (cloud5, cloud6):
        assert sum(cloud.weights, Fraction(0)) == 1

    center = ProjectivePoint.numeric_point(1.0 + 0j, -1.0 + 0j, 1.0)
    bump_masses = [measure_average(cloud6, bump_observable(center, r))
                   for r in (0.8, 0.4, 0.2, 0.1, 0.05)]
    assert bump_masses[0] > 0.0
    assert all(a >= b for a, b in zip(bump_masses, bump_masses[1:]))
    assert bump_masses[-1] == 0.0
    tube_masses = [measure_average(cloud6, tube_observable(Y, w))
                   for w in (0.8, 0.4, 0.2, 0.1)]
    assert all(a >= b for a, b in zip(tube_masses, tube_masses[1:]))
    assert tube_masses[-1] < tube_masses[0]

    for phi in observables:
        assert invariance_residual(henon, cloud5, phi) < 1e-8

    phi = random_observable(101)
    c0, *lags = mixing_correlations(henon, cloud6, phi, phi, 10)
    lag_values = [abs(c) for c in lags]
    assert c0 > 1e-3
    assert max(lag_values) < 0.8 * c0


def test_7_log_pole_strength_estimator(henon):
    """The sphere-average slope estimator returns 1 +- 0.05 on an
    exact unit log pole, < 0.01 at generic points of the truncated
    potential, and >= 0.1 at the indeterminacy point, stably in the
    truncation depth."""
    a = ProjectivePoint.numeric_point(0.3 + 0.1j, -0.2, 1.0)
    av = a.unit_vector()

    def unit_log_pole(p):
        v = p.unit_vector()
        z = v / v[2]
        w = av / av[2]
        return math.log(abs(z[0] - w[0]) ** 2 + abs(z[1] - w[1]) ** 2) / 2.0

    means = shell_means(lambda pts: [unit_log_pole(p) for p in pts], a, DEFAULT_LELONG_RADII,
                        samples_per_shell=256, seed=3)
    assert lelong_estimate(DEFAULT_LELONG_RADII, means) == pytest.approx(1.0, abs=0.05)

    generic = ProjectivePoint.numeric_point(0.37 + 0.11j, -0.52 + 0.07j, 1.0)
    assert green_lelong_estimate(henon, generic, 20) < 0.01

    for depth in (15, 25):
        assert green_lelong_estimate(henon, P(1, 0, 0), depth) >= 0.1


def test_8_cocycle_exponents_and_hyperbolicity(henon, cloud6):
    """Diagonal-map exponents are exact to 1e-10; the quadratic
    automorphism satisfies chi+ + chi- = log(1/4) within 2 SE at 240
    steps and passes the hyperbolicity verdict against the log(rho)/8
    threshold; truncated integrability means are Cauchy within 1e-3."""
    diag = linear_map([[4, 0, 0], [0, 1, 0], [0, 0, 2]], name="linsaddle")
    diag_est = cocycle_exponents(diag, saddle_periodic_points(diag, 1), 64)
    assert diag_est.chi_plus == pytest.approx(math.log(2.0), abs=1e-10)
    assert diag_est.chi_minus == pytest.approx(-math.log(2.0), abs=1e-10)

    est = cocycle_exponents(henon, cloud6, 240)
    gap = abs(est.chi_plus + est.chi_minus - math.log(0.25))
    assert gap <= 2.0 * (est.se_plus + est.se_minus)
    verdict = hyperbolicity_verdict(est, 2.0)
    assert verdict.threshold == pytest.approx(math.log(2.0) / 8)
    assert verdict.expanding_ok and verdict.contracting_ok
    assert est.integrability is not None
    assert est.integrability.cauchy_gap <= 1e-3


def test_9_reproducibility_byte_identical_artifacts(tmp_path):
    """Every subcommand, run twice with identical map, configuration,
    and seed, produces byte-identical artifacts."""
    henon_path = str(corpus_path("henon"))
    commands = [
        ["inspect", "--map", henon_path],
        ["stability", "--map", henon_path, "--iters", "20"],
        ["green", "--map", henon_path, "--iters", "5", "--grid", "10"],
        ["measure", "--map", henon_path, "--max-period", "2", "--iters", "3"],
        ["lyapunov", "--map", henon_path, "--max-period", "2", "--iters", "60"],
        ["energy-selftest", "--iters", "2"],
    ]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        for argv in commands:
            assert cli_main(argv + ["--out", str(out), "--seed", "2026"]) == 0
    produced = sorted(p.name for p in out_a.iterdir())
    assert sorted(p.name for p in out_b.iterdir()) == produced
    assert len(produced) >= 10
    for name in produced:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
