"""Stability diagnostics: exceptional orbits, separation, summability.

Frozen expectations: the quadratic involution's indeterminacy set meets
its inverse's at step zero (the two sets coincide), while for the Henon
family both exceptional orbits are fixed points at unit chordal distance,
making every weighted log-distance term exactly zero.
"""

import json
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from biratdyn.geometry import ComplexRational, HomogeneousPolynomial, ProjectivePoint, proj_distance
from biratdyn.maps import DEFAULT_COEFF_BIT_CAP, EPS_EXCEPTIONAL, compose
from biratdyn.stability import (
    SHADOW_PRECISION_BITS,
    OrbitTable,
    PointOrbit,
    StabilityError,
    _Ball,
    _eval_ball_poly,
    _orbit_of_point,
    _step_ball,
    check_orbit_separation,
    exceptional_orbits,
    partial_sums_from_log_distances,
    report_from_log_distances,
    summability,
)
from biratdyn.standard_maps import (
    cremona_involution,
    diagonal_scaling_map,
    henon_map,
    linear_map,
    lsigma_map,
)

P = ProjectivePoint.exact_point


def twisted_involution():
    """Degree-stable quadratic map whose exceptional orbits grow without
    bound in coordinate size (exercises the exact-to-shadow switchover)."""
    sig = cremona_involution()
    L = linear_map([[1, 1, 1], [1, 2, 3], [2, 1, 1]], name="twist")
    fwd = compose(L, sig, name="twisted-cremona")
    bwd = compose(sig, L.inverse, name="twisted-cremona-inverse")
    fwd.inverse = bwd
    bwd.inverse = fwd
    return fwd


class TestExceptionalOrbits:
    def test_henon_orbit_fixed_at_unit_distance(self):
        table = exceptional_orbits(henon_map(), 20)
        assert len(table.orbits) == 1
        orb = table.orbits[0]
        assert orb.source.same_point(P(0, 1, 0))
        assert len(orb.distances) == 21
        assert all(d == 1.0 for d in orb.distances)
        assert orb.hit_index is None
        assert orb.switchover_index is None
        assert len(orb.points) == 21
        assert all(p.same_point(P(0, 1, 0)) for p in orb.points)

    def test_sigma_truncates_at_first_step(self):
        table = exceptional_orbits(cremona_involution(), 5)
        assert len(table.orbits) == 3
        for orb in table.orbits:
            assert orb.distances[0] == 0.0
            assert orb.hit_index == 0
            # step 0 is the only point: the walk is indeterminate at step 1
            assert len(orb.points) == 1 and orb.points[0].exact

    def test_linear_map_empty_table(self):
        table = exceptional_orbits(diagonal_scaling_map(), 5)
        assert table.sources == ()
        assert table.orbits == ()

    def test_distances_positive_before_truncation(self):
        # all distances strictly positive except possibly the hit step
        for f in (henon_map(), cremona_involution(), lsigma_map()):
            table = exceptional_orbits(f, 12)
            for orb in table.orbits:
                for n, d in enumerate(orb.distances):
                    if orb.hit_index is None or n < orb.hit_index:
                        assert d > 0.0

    def test_lsigma_exceptional_orbits_stay_small(self):
        # forward: period-3 cycle at constant distance; backward: exact
        # coordinates grow only linearly in bit size, converging to an
        # indeterminacy point without ever reaching it
        fwd = exceptional_orbits(lsigma_map(), 9)
        for orb in fwd.orbits:
            assert orb.switchover_index is None and orb.hit_index is None
            assert orb.points[0].same_point(orb.points[3])
            assert all(abs(d - math.sqrt(0.5)) < 1e-15 for d in orb.distances)
        bwd = exceptional_orbits(lsigma_map().inverse, 40)
        for orb in bwd.orbits:
            assert orb.switchover_index is None and orb.hit_index is None
            assert all(d > 0 for d in orb.distances)
            assert orb.distances[-1] < 1e-9  # approaches but never hits

    def test_twisted_involution_switches_to_shadow_orbit(self):
        table = exceptional_orbits(twisted_involution(), 30, bit_cap=1 << 10)
        switched = [o for o in table.orbits if o.switchover_index is not None]
        assert len(switched) == 3
        for orb in switched:
            k = orb.switchover_index
            assert 5 <= k <= 15
            # points from the switchover onwards carry error enclosures
            assert all(p.exact and r == 0.0
                       for p, r in zip(orb.points[:k], orb.distance_radii[:k]))
            tail = orb.distance_radii[k:]
            assert tail and all(0 < r < 1e-12 for r in tail)
            assert not any(p.exact for p in orb.points[k:])
            assert len(orb.distances) == 31  # shadow continues to the horizon
            assert all(math.isfinite(d) and d > 0 for d in orb.distances)
            assert all(math.isfinite(r) for r in orb.distance_radii)


def all_pairs_scan(v):
    """(min_distance, fails_at, witness) from `proj_distance` on every pair
    of the verdict's two orbit tables."""
    min_distance, fails_at, witness = math.inf, None, None
    for orb in v.forward.orbits:
        for i, p in enumerate(orb.points):
            for back in v.backward.orbits:
                for j, q in enumerate(back.points):
                    d = proj_distance(p, q)
                    min_distance = min(min_distance, d)
                    stage = max(i, j)
                    if d < EPS_EXCEPTIONAL and (fails_at is None or stage < fails_at):
                        fails_at, witness = stage, p
    return min_distance, fails_at, witness


class TestSeparation:
    def test_sigma_fails_at_zero(self):
        v = check_orbit_separation(cremona_involution(), 10)
        assert not v.holds
        assert v.fails_at == 0
        assert v.witness is not None
        assert str(v) == "FailsAt(0)"

    def test_henon_holds_through_50(self):
        v = check_orbit_separation(henon_map(), 50)
        assert v.holds and v.through == 50
        assert str(v) == "HoldsThrough(50)"

    def test_linear_holds_vacuously(self):
        v = check_orbit_separation(diagonal_scaling_map(), 10)
        assert v.holds

    @pytest.mark.parametrize(
        "make_map, N, expected",
        [(henon_map, 20, 1.0), (cremona_involution, 5, 0.0),
         (diagonal_scaling_map, 5, math.inf), (lsigma_map, 6, 0.011223210254610594)],
    )
    def test_min_distance_is_all_pairs_minimum(self, make_map, N, expected):
        f = make_map()
        fwd = [p for o in exceptional_orbits(f, N).orbits for p in o.points]
        bwd = [p for o in exceptional_orbits(f.inverse, N).orbits for p in o.points]
        all_pairs = min((proj_distance(p, q) for p in fwd for q in bwd), default=math.inf)
        v = check_orbit_separation(f, N)
        assert v.min_distance == all_pairs == expected
        assert (v.min_distance, v.fails_at, v.witness) == all_pairs_scan(v)

    def test_far_pairs_skipped_without_changing_the_verdict(self):
        """An L o sigma map whose exact orbits reach 42 971 bits within 20
        steps: most exact pairs are decided from unit vectors, and
        min_distance, fails_at and witness equal the all-pairs scan's."""
        sig = cremona_involution()
        L = linear_map([[1, 1, 0], [1, -1, -1], [-1, 2, -1]])
        f = compose(L, sig)
        f.inverse = compose(sig, L.inverse)
        f.inverse.inverse = f
        v = check_orbit_separation(f, 20)
        assert max(p.bit_size() for o in v.forward.orbits for p in o.points) > 40_000
        assert (v.min_distance, v.fails_at, v.witness) == all_pairs_scan(v)
        assert v.holds and v.min_distance == 0.07612978025570089


class TestSummabilityCore:
    def test_partial_sums_weighting(self):
        sums = partial_sums_from_log_distances([0.0, -2.0, -4.0], 2.0)
        assert sums == [0.0, -1.0, -2.0]

    def test_synthetic_super_fast_decay_diverges(self):
        # distance exp(-rho^n) contributes exactly -1 per weighted term
        rho = 2.0
        log_ds = [-(rho**n) for n in range(30)]
        rep = report_from_log_distances(log_ds, rho, 30)
        assert rep.verdict == "Diverging"
        for k, s in enumerate(rep.partial_sums):
            assert s == pytest.approx(-(k + 1), abs=1e-12)

    def test_straddle_forces_inconclusive(self):
        rep = report_from_log_distances([0.0] * 10, 2.0, 10, straddle_index=3)
        assert rep.verdict == "Inconclusive"

    def test_slow_drift_is_inconclusive(self):
        rep = report_from_log_distances([-0.01] * 20, 1.5, 20)
        assert rep.verdict == "Inconclusive"

    def test_partial_sums_nonincreasing_for_capped_distances(self):
        log_ds = [math.log(min(1.0, d)) for d in (1.0, 0.5, 0.9, 1.0, 0.3)]
        sums = partial_sums_from_log_distances(log_ds, 3.0)
        assert all(b <= a + 1e-15 for a, b in zip(sums, sums[1:]))

    def test_json_uses_decimal_strings(self):
        rep = report_from_log_distances([0.0, -0.5], 2.0, 2)
        doc = rep.to_dict()
        assert json.loads(json.dumps(doc)) == doc
        assert doc["verdict"] in {"Converged", "Diverging", "Inconclusive"}
        assert all(isinstance(s, str) for s in doc["partial_sums"])
        assert float(doc["partial_sums"][1]) == rep.partial_sums[1]


class TestExactHits:
    def test_underflowing_distance_is_not_a_hit(self):
        # the rounded distance is 0.0 but the points differ: only exact
        # proportionality makes a hit, and the rounded zero is undecided
        far, target = P(2**600, 1, 0), P(1, 0, 0)
        assert proj_distance(far, target) == 0.0 and not far.same_point(target)
        orb = _orbit_of_point(diagonal_scaling_map(), far, (target,), 3,
                              DEFAULT_COEFF_BIT_CAP, EPS_EXCEPTIONAL)
        assert orb.hit_index is None
        table = OrbitTable(sources=(far,), targets=(target,), orbits=(orb,), horizon=3)
        rep = summability(table, 2.0)
        assert rep.hit_index is None
        assert rep.straddle_index == 0
        assert rep.verdict == "Inconclusive"


def reference_summability(table, rho):
    """Reference `summability`: step by step, rescanning every orbit for
    hits, straddles, switchovers and truncation at each step."""
    N = table.horizon
    if not table.sources:
        return report_from_log_distances([0.0] * N, rho, N, vacuous=True)
    hit = straddle = switchover = None
    log_ds = []
    for n in range(N):
        step_min = math.inf
        for orb in table.orbits:
            if orb.switchover_index is not None and orb.switchover_index <= n:
                if switchover is None or n < switchover:
                    switchover = orb.switchover_index
            if orb.hit_index is not None and orb.hit_index <= n:
                hit = orb.hit_index if hit is None else min(hit, orb.hit_index)
            if orb.straddle_index is not None and orb.straddle_index <= n:
                straddle = (orb.straddle_index if straddle is None
                            else min(straddle, orb.straddle_index))
            if n < len(orb.distances):
                step_min = min(step_min, orb.distances[n])
            elif orb.hit_index is None and orb.straddle_index is None:
                straddle = n if straddle is None else min(straddle, n)
        if hit is not None or straddle is not None or not math.isfinite(step_min):
            break
        if step_min <= 0.0:
            straddle = n
            break
        log_ds.append(math.log(min(step_min, 1.0)))
    return report_from_log_distances(
        log_ds, rho, N, hit_index=hit,
        straddle_index=None if hit is not None else straddle,
        switchover_index=switchover)


def _maybe_step(last):
    return st.one_of(st.none(), st.integers(0, last))


@st.composite
def _synthetic_orbits(draw, horizon):
    """An orbit with the layout of `exceptional_orbits` (one distance per
    point, at most horizon + 1 points, a hit or a switchover at a point, a
    straddle at a point or one step past the last), its hit and straddle
    placed more freely than a real walk places them."""
    length = draw(st.integers(1, horizon + 1))
    distances = draw(st.lists(
        st.one_of(st.just(0.0), st.just(math.inf), st.just(1.0),
                  st.floats(1e-300, 1.0)),
        min_size=length, max_size=length))
    return PointOrbit(source=P(1, 0, 0), points=(), distances=tuple(distances),
                      distance_radii=(0.0,) * length,
                      switchover_index=draw(_maybe_step(length - 1)),
                      hit_index=draw(_maybe_step(length - 1)),
                      straddle_index=draw(_maybe_step(length)))


@st.composite
def _synthetic_tables(draw):
    horizon = draw(st.integers(0, 8))
    orbits = draw(st.lists(_synthetic_orbits(horizon), max_size=4))
    return OrbitTable(sources=(P(1, 0, 0),) * len(orbits), targets=(),
                      orbits=tuple(orbits), horizon=horizon)


class TestSummabilityStops:
    @settings(max_examples=400, deadline=None)
    @given(_synthetic_tables(), st.sampled_from([1.5, 2.0, 3.0]))
    def test_matches_step_by_step_reference(self, table, rho):
        assert summability(table, rho) == reference_summability(table, rho)

    @pytest.mark.parametrize("make_map, N", [(henon_map, 20), (cremona_involution, 5),
                                             (lsigma_map, 12)])
    def test_matches_reference_on_maps(self, make_map, N):
        f = make_map()
        for table in (exceptional_orbits(f, N), exceptional_orbits(f.inverse, N)):
            assert summability(table, 2.0) == reference_summability(table, 2.0)

    def test_matches_reference_past_the_switchover(self):
        table = exceptional_orbits(twisted_involution(), 30, bit_cap=1 << 10)
        assert all(o.switchover_index is not None for o in table.orbits)
        assert summability(table, 2.0) == reference_summability(table, 2.0)


def _reference_rows(poly):
    """(exponents, mpc coefficient, float |coefficient|) in sorted key order."""
    rows = []
    with mpmath.workprec(SHADOW_PRECISION_BITS):
        for (i, j, k), c in sorted(poly.terms.items()):
            re = mpmath.mpf(c.re.numerator) / mpmath.mpf(c.re.denominator)
            im = mpmath.mpf(c.im.numerator) / mpmath.mpf(c.im.denominator)
            coeff = mpmath.mpc(re, im)
            rows.append(((i, j, k), coeff, float(abs(coeff))))
    return rows


def reference_eval_ball_poly(poly, ball):
    """Reference ball evaluation: full products m**i * m**j * m**k per term,
    accumulated from zero, value at 113 bits and bound in doubles."""
    with mpmath.workprec(SHADOW_PRECISION_BITS):
        val = mpmath.mpc(0)
        for (i, j, k), coeff, _ in _reference_rows(poly):
            val += coeff * ball.mids[0] ** i * ball.mids[1] ** j * ball.mids[2] ** k
    outer = [float(abs(m)) + r for m, r in zip(ball.mids, ball.rads)]
    rad = 0.0
    for var in range(3):
        if ball.rads[var] == 0.0:
            continue
        bound = 0.0
        for (i, j, k), _, ac in _reference_rows(poly.derivative(var)):
            bound += ac * outer[0] ** i * outer[1] ** j * outer[2] ** k
        rad += bound * ball.rads[var]
    rad += float(abs(val)) * 2.0**-100
    return val, rad


def _gaussian(bits):
    part = st.builds(Fraction, st.integers(-(2**bits), 2**bits), st.integers(1, 2**bits))
    return st.builds(ComplexRational, part, part)


@st.composite
def _ball_polynomials(draw):
    d = draw(st.integers(0, 5))
    keys = [(i, j, d - i - j) for i in range(d + 1) for j in range(d - i + 1)]
    chosen = draw(st.lists(st.sampled_from(keys), max_size=12, unique=True))
    return HomogeneousPolynomial(d, {key: draw(_gaussian(30)) for key in chosen})


def _exact_balls(bits):
    return (st.tuples(*[_gaussian(bits)] * 3)
            .filter(lambda cs: not all(c.is_zero() for c in cs))
            .map(lambda cs: _Ball.from_point(P(*cs))))


BALL_SETTINGS = settings(max_examples=120, deadline=None,
                         suppress_health_check=[HealthCheck.too_slow])


class TestShadowBalls:
    @BALL_SETTINGS
    @given(_ball_polynomials(), _exact_balls(40))
    def test_matches_reference_evaluation(self, poly, ball):
        assert _eval_ball_poly(poly, ball) == reference_eval_ball_poly(poly, ball)

    @BALL_SETTINGS
    @given(_ball_polynomials(), _exact_balls(2000))
    def test_matches_reference_at_2000_bit_points(self, poly, ball):
        assert _eval_ball_poly(poly, ball) == reference_eval_ball_poly(poly, ball)

    @BALL_SETTINGS
    @given(_ball_polynomials(), _exact_balls(40))
    def test_matches_reference_after_a_step(self, poly, ball):
        # a stepped ball carries propagated radii and 113-bit midpoints
        try:
            stepped = _step_ball(henon_map(), ball)
        except StabilityError:
            assume(False)  # the ball meets the indeterminacy set
        assert _eval_ball_poly(poly, stepped) == reference_eval_ball_poly(poly, stepped)


class TestSummabilityOnMaps:
    def test_henon_all_terms_zero_converged(self):
        rep = summability(exceptional_orbits(henon_map(), 50), 2.0)
        assert rep.verdict == "Converged"
        assert all(s == 0.0 for s in rep.partial_sums)
        mirror = summability(exceptional_orbits(henon_map().inverse, 50), 2.0)
        assert mirror.verdict == "Converged"
        assert all(s == 0.0 for s in mirror.partial_sums)

    def test_sigma_diverges_at_zero_both_ways(self):
        fwd = summability(exceptional_orbits(cremona_involution(), 10), 2.0)
        bwd = summability(exceptional_orbits(cremona_involution().inverse, 10), 2.0)
        assert fwd.verdict == "Diverging" and fwd.hit_index == 0
        assert bwd.verdict == "Diverging" and bwd.hit_index == 0

    def test_linear_vacuous_converged(self):
        rep = summability(exceptional_orbits(diagonal_scaling_map(), 10), 2.0)
        assert rep.verdict == "Converged" and rep.vacuous

    def test_forward_backward_verdicts_agree(self):
        for f in (henon_map(), cremona_involution(), lsigma_map(), twisted_involution()):
            fwd = summability(exceptional_orbits(f, 40), 2.0)
            bwd = summability(exceptional_orbits(f.inverse, 40), 2.0)
            assert fwd.verdict == bwd.verdict, f.name

    def test_switchover_reported_in_summability(self):
        rep = summability(exceptional_orbits(twisted_involution(), 30, bit_cap=1 << 10), 2.0)
        assert rep.switchover_index is not None
        assert rep.verdict == "Converged"
        diffs = [b - a for a, b in zip(rep.partial_sums, rep.partial_sums[1:])]
        assert all(d <= 1e-15 for d in diffs)  # nonincreasing

    def test_tail_bound_formula(self):
        rep = summability(exceptional_orbits(henon_map(), 50), 2.0)
        expected = 2.0**-50 / (1 - 0.5) * abs(math.log(2.0**-52))
        assert rep.tail_bound == pytest.approx(expected, rel=1e-12)

    def test_separation_consistency_with_degree_stability(self):
        # a map whose separation check holds has a multiplicative degree
        # sequence over the same horizon; one that fails at step zero drops
        from biratdyn.maps import degree_sequence

        assert check_orbit_separation(henon_map(), 6).holds
        assert degree_sequence(henon_map(), 6).is_multiplicative
        assert not check_orbit_separation(cremona_involution(), 4).holds
        assert not degree_sequence(cremona_involution(), 4).is_multiplicative
