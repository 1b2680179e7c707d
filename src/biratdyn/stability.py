"""Orbit diagnostics for the separation and summability stability conditions.

Three related checks on the exceptional orbits of a plane map:

* orbit separation — the forward orbits of the inverse map's indeterminacy
  points never come within tolerance of the backward orbits of the map's
  own indeterminacy points;
* forward summability — the spectrally weighted series of log-distances
  from those forward orbits to the indeterminacy set converges (stays
  bounded below);
* backward summability — the mirrored series driven by the inverse map.

Orbits are computed exactly while coordinate sizes stay below a bit cap;
past the cap they continue at 113-bit precision with per-coordinate error
balls, and a verdict is downgraded to Inconclusive when an error enclosure
straddles the indeterminacy tolerance.  The chordal metric is bounded by
one, so every log term is nonpositive and partial sums are nonincreasing,
which turns convergence into a testable Cauchy criterion.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath

from .geometry import ProjectivePoint, proj_distance
from .maps import (
    DEFAULT_COEFF_BIT_CAP,
    EPS_EXCEPTIONAL,
    RationalSurfaceMap,
    apply,
)

__all__ = [
    "OrbitEntry",
    "PointOrbit",
    "OrbitTable",
    "SummabilityReport",
    "SeparationVerdict",
    "StabilityError",
    "exceptional_orbits",
    "check_orbit_separation",
    "forward_summability",
    "backward_summability",
    "separation_diagnostic",
    "partial_sums_from_log_distances",
    "report_from_log_distances",
]

SHADOW_PRECISION_BITS = 113
_CAUCHY_WINDOW = 5
_CAUCHY_TOL = 1e-6
_DIVERGENCE_RATE = 0.1


class StabilityError(Exception):
    pass


@dataclass(frozen=True)
class OrbitEntry:
    """One orbit step: a point, a collapse through a contracted curve, or
    an indeterminate encounter (which truncates the orbit)."""

    step: int
    kind: str  # "point" | "collapsed" | "indeterminate"
    point: ProjectivePoint | None
    enclosure_radius: float = 0.0


@dataclass(frozen=True)
class PointOrbit:
    source: ProjectivePoint
    entries: tuple
    distances: tuple  # chordal distance to the target set, one per point entry
    distance_radii: tuple  # error halfwidths (0.0 for exact/plain numeric)
    switchover_index: int | None  # first step computed with shadow balls
    hit_index: int | None  # first step whose distance enclosure sits below tolerance
    straddle_index: int | None  # first step whose enclosure straddles tolerance


@dataclass(frozen=True)
class OrbitTable:
    sources: tuple
    targets: tuple  # points the per-step distances refer to
    orbits: tuple
    horizon: int


@dataclass(frozen=True)
class SummabilityReport:
    """Partial sums of the weighted log-distance series with a verdict.

    ``partial_sums[k]`` is the sum of the first ``k + 1`` terms.  The terms
    are nonpositive, so the sequence is nonincreasing; ``tail_bound`` caps
    how far the ignored tail could still fall in the worst admissible case
    (log-distance floored by machine epsilon).  Verdicts: ``Converged``
    when the last window of partial sums is Cauchy within 1e-6 and no
    orbit hit the indeterminacy set; ``Diverging`` on a hit or when the
    recent terms keep a sustained negative rate; ``Inconclusive`` when a
    shadow-orbit error enclosure straddles the tolerance or the evidence
    is mixed.
    """

    rho: float
    partial_sums: tuple
    tail_bound: float
    verdict: str
    hit_index: int | None = None
    straddle_index: int | None = None
    switchover_index: int | None = None
    vacuous: bool = False

    def to_json(self) -> str:
        doc = {
            "rho": repr(self.rho),
            "partial_sums": [repr(s) for s in self.partial_sums],
            "tail_bound": repr(self.tail_bound),
            "verdict": self.verdict,
            "hit_index": self.hit_index,
            "straddle_index": self.straddle_index,
            "switchover_index": self.switchover_index,
            "vacuous": self.vacuous,
        }
        return json.dumps(doc, indent=2, sort_keys=True)


@dataclass(frozen=True)
class SeparationVerdict:
    holds: bool
    through: int  # horizon checked (meaningful when holds)
    fails_at: int | None = None
    witness: ProjectivePoint | None = None
    min_distance: float = math.inf  # over all orbit pairs; inf if a set is empty

    def __str__(self):
        if self.holds:
            return f"HoldsThrough({self.through})"
        return f"FailsAt({self.fails_at})"


# ---------------------------------------------------------------------------
# Shadow (ball) arithmetic at 113 bits
# ---------------------------------------------------------------------------


class _Ball:
    """Projective representative with per-coordinate error radii."""

    __slots__ = ("mids", "rads")

    def __init__(self, mids, rads):
        self.mids = tuple(mids)
        self.rads = tuple(float(r) for r in rads)

    @classmethod
    def from_point(cls, p: ProjectivePoint):
        # normalize inside mpmath: raw exact coordinates may be far outside
        # the double range, so floats are only taken after rescaling
        with mpmath.workprec(SHADOW_PRECISION_BITS):
            if p.exact:
                mids = []
                for c in p.coords:
                    re = mpmath.mpf(c.re.numerator) / mpmath.mpf(c.re.denominator)
                    im = mpmath.mpf(c.im.numerator) / mpmath.mpf(c.im.denominator)
                    mids.append(mpmath.mpc(re, im))
                scale = max(abs(m) for m in mids)
                mids = [m / scale for m in mids]
                rads = [float(abs(m)) * 2.0**-110 + 2.0**-120 for m in mids]
            else:
                mids = [mpmath.mpc(z) for z in p.coords]
                scale = max(abs(m) for m in mids)
                mids = [m / scale for m in mids]
                rads = [float(abs(m)) * 1e-15 + 1e-18 for m in mids]
            return cls(mids, rads)

    @classmethod
    def _normalized(cls, mids, rads):
        with mpmath.workprec(SHADOW_PRECISION_BITS):
            scale = max(abs(m) for m in mids)
            if scale == 0:
                raise StabilityError("ball midpoint collapsed to zero")
            new_mids = [m / scale for m in mids]
            new_rads = [float(mpmath.mpf(r) / scale) for r in rads]
        return cls(new_mids, new_rads)

    def numeric_point(self) -> ProjectivePoint:
        return ProjectivePoint.numeric_point(*(complex(m) for m in self.mids))

    def radius(self) -> float:
        return sum(self.rads)


# keyed by id; the stored polynomial reference keeps the id valid
_SHADOW_COEFF_CACHE: dict = {}


def _poly_mpc_coeffs(poly):
    """Cache of (exponent, mpc coefficient, float |coefficient|) triples."""
    entry = _SHADOW_COEFF_CACHE.get(id(poly))
    if entry is not None and entry[0] is poly:
        return entry[1]
    with mpmath.workprec(SHADOW_PRECISION_BITS):
        cached = []
        for (i, j, k), c in sorted(poly.terms.items()):
            re = mpmath.mpf(c.re.numerator) / mpmath.mpf(c.re.denominator)
            im = mpmath.mpf(c.im.numerator) / mpmath.mpf(c.im.denominator)
            coeff = mpmath.mpc(re, im)
            cached.append(((i, j, k), coeff, float(abs(coeff))))
    _SHADOW_COEFF_CACHE[id(poly)] = (poly, cached)
    return cached


def _eval_ball_poly(poly, ball: _Ball):
    """Evaluate with a rigorous first-order error bound.

    The propagated radius uses the mean-value inequality with each partial
    derivative bounded by its absolute-coefficient polynomial evaluated at
    the componentwise outer radii |m_i| + r_i, which dominates the
    derivative's modulus on the whole ball.
    """
    with mpmath.workprec(SHADOW_PRECISION_BITS):
        val = mpmath.mpc(0)
        for (i, j, k), coeff, _ in _poly_mpc_coeffs(poly):
            val += coeff * ball.mids[0] ** i * ball.mids[1] ** j * ball.mids[2] ** k
    outer = [float(abs(m)) + r for m, r in zip(ball.mids, ball.rads)]
    rad = 0.0
    for var in range(3):
        if ball.rads[var] == 0.0:
            continue
        bound = 0.0
        for (i, j, k), _, ac in _poly_mpc_coeffs(poly.derivative(var)):
            bound += ac * outer[0] ** i * outer[1] ** j * outer[2] ** k
        rad += bound * ball.rads[var]
    # absorb the 113-bit arithmetic rounding, negligible next to rad
    rad += float(abs(val)) * 2.0**-100
    return val, rad


def _step_ball(f: RationalSurfaceMap, ball: _Ball) -> _Ball:
    vals, rads = [], []
    for comp in f.components:
        v, r = _eval_ball_poly(comp, ball)
        vals.append(v)
        rads.append(r)
    if max(abs(v) for v in vals) <= sum(rads):
        raise StabilityError(
            "shadow orbit cannot be continued: image enclosure contains zero"
        )
    return _Ball._normalized(vals, rads)


# ---------------------------------------------------------------------------
# Orbit tables
# ---------------------------------------------------------------------------


def _distance_to_set(p: ProjectivePoint, targets) -> float:
    if not targets:
        return math.inf
    return min(proj_distance(p, q) for q in targets)


def _orbit_of_point(
    f: RationalSurfaceMap,
    source: ProjectivePoint,
    targets,
    horizon: int,
    bit_cap: int,
    eps: float,
) -> PointOrbit:
    entries = []
    distances = []
    radii = []
    switchover = None
    hit = None
    straddle = None
    I_f = f.indeterminacy_set()

    def record(step, kind, point, encl):
        nonlocal hit, straddle
        entries.append(OrbitEntry(step, kind, point, encl))
        if point is not None:
            d = _distance_to_set(point, targets)
            distances.append(d)
            radii.append(encl)
            if point.exact:
                # exact arithmetic decides membership outright; a rounded
                # distance of 0.0 can underflow for distinct points
                if hit is None and any(point.same_point(q) for q in targets if q.exact):
                    hit = step
            elif straddle is None and d - encl < eps:
                # a double or a ball near the set cannot certify membership
                straddle = step

    current: ProjectivePoint | _Ball = source
    record(0, "point", source, 0.0)
    for n in range(1, horizon + 1):
        if isinstance(current, _Ball):
            try:
                current = _step_ball(f, current)
            except StabilityError:
                record(n, "indeterminate", None, 0.0)
                if straddle is None:
                    straddle = n
                break
            p = current.numeric_point()
            record(n, "point", p, current.radius() * 2.0)
            continue
        if current.exact and any(current.same_point(q) for q in I_f if q.exact):
            record(n, "indeterminate", None, 0.0)
            break
        img = apply(f, current)
        if img.kind == "blowup":
            record(n, "indeterminate", None, 0.0)
            break
        nxt = img.point
        if nxt.exact and nxt.bit_size() > bit_cap:
            switchover = n
            current = _Ball.from_point(nxt)
            record(n, img.kind, current.numeric_point(), current.radius() * 2.0)
            continue
        current = nxt
        record(n, img.kind, nxt, 0.0)
    return PointOrbit(
        source=source,
        entries=tuple(entries),
        distances=tuple(distances),
        distance_radii=tuple(radii),
        switchover_index=switchover,
        hit_index=hit,
        straddle_index=straddle,
    )


def exceptional_orbits(
    f: RationalSurfaceMap,
    N: int,
    *,
    bit_cap: int = DEFAULT_COEFF_BIT_CAP,
    eps_indeterminacy: float = EPS_EXCEPTIONAL,
) -> OrbitTable:
    """Forward orbits of the inverse map's indeterminacy points under ``f``.

    Each orbit records, per step, the distance to the indeterminacy set of
    ``f``.  Orbits truncate at the first indeterminate encounter.  When an
    exact coordinate grows beyond ``bit_cap`` bits the orbit switches to a
    113-bit shadow with error balls and the switchover step is recorded.
    """
    if N < 1:
        raise ValueError("orbit horizon must be at least 1")
    if f.inverse is None:
        raise StabilityError("exceptional orbits need the inverse map")
    sources = tuple(f.inverse.indeterminacy_set())
    targets = tuple(f.indeterminacy_set())
    orbits = tuple(
        _orbit_of_point(f, s, targets, N, bit_cap, eps_indeterminacy) for s in sources
    )
    return OrbitTable(sources=sources, targets=targets, orbits=orbits, horizon=N)


def _orbit_points(table: OrbitTable):
    pts = []
    for orb in table.orbits:
        for e in orb.entries:
            if e.point is not None:
                pts.append((e.step, e.point))
    return pts


def check_orbit_separation(
    f: RationalSurfaceMap,
    N: int,
    *,
    eps_indeterminacy: float = EPS_EXCEPTIONAL,
) -> SeparationVerdict:
    """Pairwise separation of the two exceptional orbit systems.

    Scans increasing horizons: the verdict fails at the first step ``n``
    at which some forward-orbit point (of the inverse's indeterminacy set)
    comes within tolerance of some backward-orbit point (of the map's own
    indeterminacy set), where ``n`` is the larger of the two orbit steps
    involved.  Returns a holding verdict with the horizon otherwise.  Either
    verdict carries the tolerance-free :func:`separation_diagnostic` value.
    """
    if f.inverse is None:
        raise StabilityError("separation check needs the inverse map")
    fwd = _orbit_points(exceptional_orbits(f, N, eps_indeterminacy=eps_indeterminacy))
    bwd = _orbit_points(
        exceptional_orbits(f.inverse, N, eps_indeterminacy=eps_indeterminacy)
    )
    fails_at, witness, min_distance = None, None, math.inf
    for i, p in fwd:
        for j, q in bwd:
            d = proj_distance(p, q)
            min_distance = min(min_distance, d)
            stage = max(i, j)
            if d < eps_indeterminacy and (fails_at is None or stage < fails_at):
                fails_at, witness = stage, p
    return SeparationVerdict(holds=witness is None, through=N, fails_at=fails_at,
                             witness=witness, min_distance=min_distance)


def separation_diagnostic(f: RationalSurfaceMap, N: int) -> float:
    """Minimum chordal distance between the truncated forward orbit set of
    the inverse's indeterminacy points and the backward orbit set of the
    map's own; infinity when either set is empty."""
    return check_orbit_separation(f, N).min_distance


# ---------------------------------------------------------------------------
# Summability
# ---------------------------------------------------------------------------


def partial_sums_from_log_distances(log_distances, rho: float):
    """Cumulative sums of ``rho**(-n) * log_distance[n]``."""
    sums = []
    total = 0.0
    for n, ld in enumerate(log_distances):
        total += rho ** (-n) * ld
        sums.append(total)
    return sums


def _machine_tail_bound(rho: float, N: int) -> float:
    eps_machine = 2.0**-52
    return rho ** (-N) / (1.0 - 1.0 / rho) * abs(math.log(eps_machine))


def report_from_log_distances(
    log_distances,
    rho: float,
    N: int,
    *,
    hit_index: int | None = None,
    straddle_index: int | None = None,
    switchover_index: int | None = None,
    vacuous: bool = False,
) -> SummabilityReport:
    """Assemble a summability report from per-step log-distances.

    This is the decision core shared by the forward and backward checks;
    tests can drive it with synthetic distance sequences.
    """
    if rho <= 1:
        raise ValueError("summability weighting needs rho > 1")
    sums = partial_sums_from_log_distances(log_distances, rho)
    tail = _machine_tail_bound(rho, max(N, 1))
    if hit_index is not None:
        verdict = "Diverging"
    elif straddle_index is not None:
        verdict = "Inconclusive"
    elif vacuous or not sums:
        verdict = "Converged"
    elif len(sums) > _CAUCHY_WINDOW and abs(sums[-1] - sums[-1 - _CAUCHY_WINDOW]) < _CAUCHY_TOL:
        verdict = "Converged"
    else:
        window = min(_CAUCHY_WINDOW, len(sums) - 1)
        rate = (sums[-1] - sums[-1 - window]) / window if window else sums[-1]
        verdict = "Diverging" if rate <= -_DIVERGENCE_RATE else "Inconclusive"
    return SummabilityReport(
        rho=float(rho),
        partial_sums=tuple(sums),
        tail_bound=tail,
        verdict=verdict,
        hit_index=hit_index,
        straddle_index=straddle_index,
        switchover_index=switchover_index,
        vacuous=vacuous,
    )


def _summability(table: OrbitTable, rho: float, N: int) -> SummabilityReport:
    if not table.sources:
        return report_from_log_distances([0.0] * N, rho, N, vacuous=True)
    hit = None
    straddle = None
    switchover = None
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
                straddle = (
                    orb.straddle_index
                    if straddle is None
                    else min(straddle, orb.straddle_index)
                )
            if n < len(orb.distances):
                step_min = min(step_min, orb.distances[n])
            elif orb.hit_index is None and orb.straddle_index is None:
                # truncated by a numeric indeterminate encounter that no
                # exact zero distance explains: inconclusive evidence
                straddle = n if straddle is None else min(straddle, n)
        if hit is not None or straddle is not None or not math.isfinite(step_min):
            break
        if step_min <= 0.0:
            # rounded to zero with no exact hit: membership is undecided
            straddle = n
            break
        log_ds.append(math.log(min(step_min, 1.0)))
    return report_from_log_distances(
        log_ds,
        rho,
        N,
        hit_index=hit,
        straddle_index=None if hit is not None else straddle,
        switchover_index=switchover,
    )


def forward_summability(
    f: RationalSurfaceMap,
    rho: float,
    N: int,
    *,
    bit_cap: int = DEFAULT_COEFF_BIT_CAP,
    eps_indeterminacy: float = EPS_EXCEPTIONAL,
) -> SummabilityReport:
    """Weighted log-distance series along forward exceptional orbits.

    Term ``n`` is ``rho**(-n)`` times the log of the distance from the
    ``n``-th forward image of the inverse's indeterminacy set to the
    indeterminacy set of ``f``.  A finite limit is the quantitative form
    of algebraic stability; hitting the set at a finite stage makes the
    series diverge to minus infinity.
    """
    table = exceptional_orbits(f, N, bit_cap=bit_cap, eps_indeterminacy=eps_indeterminacy)
    return _summability(table, rho, N)


def backward_summability(
    f: RationalSurfaceMap,
    rho: float,
    N: int,
    *,
    bit_cap: int = DEFAULT_COEFF_BIT_CAP,
    eps_indeterminacy: float = EPS_EXCEPTIONAL,
) -> SummabilityReport:
    """Mirror of :func:`forward_summability` driven by the inverse map."""
    if f.inverse is None:
        raise StabilityError("backward summability needs the inverse map")
    table = exceptional_orbits(
        f.inverse, N, bit_cap=bit_cap, eps_indeterminacy=eps_indeterminacy
    )
    return _summability(table, rho, N)
