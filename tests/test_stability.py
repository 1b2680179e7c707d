"""Stability diagnostics: exceptional orbits, separation, summability.

Frozen expectations: the quadratic involution's indeterminacy set meets
its inverse's at step zero (the two sets coincide), while for the Henon
family both exceptional orbits are fixed points at unit chordal distance,
making every weighted log-distance term exactly zero.
"""

import json
import math

import pytest

from biratdyn.geometry import ProjectivePoint, proj_distance
from biratdyn.maps import DEFAULT_COEFF_BIT_CAP, EPS_EXCEPTIONAL, compose
from biratdyn.stability import (
    _SHADOW_COEFF_CACHE,
    OrbitTable,
    _Ball,
    _orbit_of_point,
    _step_ball,
    _summability,
    backward_summability,
    check_orbit_separation,
    exceptional_orbits,
    forward_summability,
    partial_sums_from_log_distances,
    report_from_log_distances,
    separation_diagnostic,
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
    bwd.inverse = compose(L, sig, name="twisted-cremona")
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
        for e in orb.entries:
            assert e.point is not None and e.point.same_point(P(0, 1, 0))

    def test_sigma_truncates_at_first_step(self):
        table = exceptional_orbits(cremona_involution(), 5)
        assert len(table.orbits) == 3
        for orb in table.orbits:
            assert orb.distances[0] == 0.0
            assert orb.hit_index == 0
            assert orb.entries[-1].kind == "indeterminate"
            assert orb.entries[-1].step == 1

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
            assert orb.entries[0].point.same_point(orb.entries[3].point)
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
            # entries from the switchover onwards carry error enclosures
            tail = [e for e in orb.entries if e.step >= k and e.point is not None]
            assert tail and all(0 < e.enclosure_radius < 1e-12 for e in tail)
            assert len(orb.distances) == 31  # shadow continues to the horizon
            assert all(math.isfinite(d) and d > 0 for d in orb.distances)
            assert all(math.isfinite(r) for r in orb.distance_radii)


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

    def test_diagnostic_values(self):
        assert separation_diagnostic(henon_map(), 20) == 1.0
        assert separation_diagnostic(cremona_involution(), 5) == 0.0
        assert separation_diagnostic(diagonal_scaling_map(), 5) == math.inf

    @pytest.mark.parametrize(
        "make_map, N, expected",
        [(henon_map, 20, 1.0), (cremona_involution, 5, 0.0),
         (diagonal_scaling_map, 5, math.inf), (lsigma_map, 6, 0.011223210254610594)],
    )
    def test_min_distance_is_all_pairs_minimum(self, make_map, N, expected):
        f = make_map()
        fwd = [e.point for o in exceptional_orbits(f, N).orbits for e in o.entries
               if e.point is not None]
        bwd = [e.point for o in exceptional_orbits(f.inverse, N).orbits for e in o.entries
               if e.point is not None]
        all_pairs = min((proj_distance(p, q) for p in fwd for q in bwd), default=math.inf)
        v = check_orbit_separation(f, N)
        assert v.min_distance == all_pairs == separation_diagnostic(f, N) == expected


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
        doc = json.loads(rep.to_json())
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
        rep = _summability(table, 2.0, 3)
        assert rep.hit_index is None
        assert rep.straddle_index == 0
        assert rep.verdict == "Inconclusive"


class TestShadowBalls:
    def test_coefficient_cache_stays_fixed(self):
        # derivatives are memoized on the polynomial, so the id-keyed
        # cache sees the same objects on every step
        f = henon_map()
        ball = _Ball.from_point(P(3, -2, 5))
        _step_ball(f, ball)
        size = len(_SHADOW_COEFF_CACHE)
        for _ in range(20):
            _step_ball(f, ball)
        assert len(_SHADOW_COEFF_CACHE) == size


class TestSummabilityOnMaps:
    def test_henon_all_terms_zero_converged(self):
        rep = forward_summability(henon_map(), 2.0, 50)
        assert rep.verdict == "Converged"
        assert all(s == 0.0 for s in rep.partial_sums)
        mirror = backward_summability(henon_map(), 2.0, 50)
        assert mirror.verdict == "Converged"
        assert all(s == 0.0 for s in mirror.partial_sums)

    def test_sigma_diverges_at_zero_both_ways(self):
        fwd = forward_summability(cremona_involution(), 2.0, 10)
        bwd = backward_summability(cremona_involution(), 2.0, 10)
        assert fwd.verdict == "Diverging" and fwd.hit_index == 0
        assert bwd.verdict == "Diverging" and bwd.hit_index == 0

    def test_linear_vacuous_converged(self):
        rep = forward_summability(diagonal_scaling_map(), 2.0, 10)
        assert rep.verdict == "Converged" and rep.vacuous

    def test_forward_backward_verdicts_agree(self):
        for f in (henon_map(), cremona_involution(), lsigma_map(), twisted_involution()):
            fwd = forward_summability(f, 2.0, 40)
            bwd = backward_summability(f, 2.0, 40)
            assert fwd.verdict == bwd.verdict, f.name

    def test_switchover_reported_in_summability(self):
        rep = forward_summability(twisted_involution(), 2.0, 30, bit_cap=1 << 10)
        assert rep.switchover_index is not None
        assert rep.verdict == "Converged"
        diffs = [b - a for a, b in zip(rep.partial_sums, rep.partial_sums[1:])]
        assert all(d <= 1e-15 for d in diffs)  # nonincreasing

    def test_tail_bound_formula(self):
        rep = forward_summability(henon_map(), 2.0, 50)
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
