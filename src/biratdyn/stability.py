"""Orbit diagnostics for the separation and summability stability conditions.

Three related checks on the exceptional orbits of a plane map:

* orbit separation — the forward orbits of the inverse map's indeterminacy
  points never come within tolerance of the backward orbits of the map's
  own indeterminacy points;
* forward summability — the spectrally weighted series of log-distances
  from those forward orbits to the indeterminacy set converges (stays
  bounded below);
* backward summability — the mirrored series driven by the inverse map.

Orbits are walked in `maps` by `orbit_walk`, the same walker that decides
degree stability, exactly while coordinate sizes stay below a bit cap;
past the cap they continue here at 113-bit precision with per-coordinate
error balls.  This module only measures the finished orbits: distances to
the target set, the first exact hit, and the first step whose error
enclosure straddles the indeterminacy tolerance, which downgrades a
verdict to Inconclusive.  The chordal metric is bounded by one, so every
log term is nonpositive and partial sums are nonincreasing, which turns
convergence into a testable Cauchy criterion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath

from .geometry import ProjectivePoint, _term_sum, _unit_distances, proj_distance
from .maps import (
    DEFAULT_COEFF_BIT_CAP,
    EPS_EXCEPTIONAL,
    RationalSurfaceMap,
    orbit_walk,
)

__all__ = [
    "PointOrbit",
    "OrbitTable",
    "SummabilityReport",
    "SeparationVerdict",
    "StabilityError",
    "exceptional_orbits",
    "check_orbit_separation",
    "summability",
    "partial_sums_from_log_distances",
    "report_from_log_distances",
]

SHADOW_PRECISION_BITS = 113
_CAUCHY_WINDOW = 5
_CAUCHY_TOL = 1e-6
_DIVERGENCE_RATE = 0.1
# float distances from unit vectors are within about 1e-15 of the exact
# ones; a pair this much beyond a threshold is decided without its wedge
_FAR_MARGIN = 1e-9


class StabilityError(Exception):
    pass


@dataclass(frozen=True)
class PointOrbit:
    source: ProjectivePoint
    points: tuple  # points[n] is step n; the orbit stops early only at I(f)
    distances: tuple  # chordal distance to the target set, one per point
    distance_radii: tuple  # error halfwidths (0.0 for exact/plain numeric)
    switchover_index: int | None  # first step computed with shadow balls
    hit_index: int | None  # first step at an exact point of the target set
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

    def to_dict(self) -> dict:
        """The report as JSON values: floats as their ``repr`` strings."""
        return {
            "rho": repr(self.rho),
            "partial_sums": [repr(s) for s in self.partial_sums],
            "tail_bound": repr(self.tail_bound),
            "verdict": self.verdict,
            "hit_index": self.hit_index,
            "straddle_index": self.straddle_index,
            "switchover_index": self.switchover_index,
            "vacuous": self.vacuous,
        }


@dataclass(frozen=True)
class SeparationVerdict:
    holds: bool
    through: int  # horizon checked (meaningful when holds)
    fails_at: int | None = None
    witness: ProjectivePoint | None = None
    min_distance: float = math.inf  # over all orbit pairs; inf if a set is empty
    forward: OrbitTable | None = field(default=None, compare=False, repr=False)
    backward: OrbitTable | None = field(default=None, compare=False, repr=False)

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
        """Ball around an exact point, normalized inside mpmath: raw exact
        coordinates may be far outside the double range, so floats are
        only taken after rescaling."""
        with mpmath.workprec(SHADOW_PRECISION_BITS):
            mids = [_mpc(c) for c in p.coords]
            scale = max(abs(m) for m in mids)
            mids = [m / scale for m in mids]
            rads = [float(abs(m)) * 2.0**-110 + 2.0**-120 for m in mids]
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


def _mpc(c):
    """A Gaussian rational as an mpmath complex at the working precision."""
    re = mpmath.mpf(c.re.numerator) / mpmath.mpf(c.re.denominator)
    im = mpmath.mpf(c.im.numerator) / mpmath.mpf(c.im.denominator)
    return mpmath.mpc(re, im)


def _eval_ball_poly(poly, ball: _Ball):
    """Evaluate with a rigorous first-order error bound.

    The propagated radius uses the mean-value inequality with each partial
    derivative bounded by its absolute-coefficient polynomial evaluated at
    the componentwise outer radii |m_i| + r_i, which dominates the
    derivative's modulus on the whole ball.
    """
    with mpmath.workprec(SHADOW_PRECISION_BITS):
        val = _term_sum([(*key, _mpc(c)) for key, c in sorted(poly.terms.items())], *ball.mids)
        abs_rows = [
            [(*key, float(abs(_mpc(c)))) for key, c in sorted(poly.derivative(var).terms.items())]
            for var in range(3)
        ]
    if val is None:
        val = mpmath.mpc(0)
    outer = [float(abs(m)) + r for m, r in zip(ball.mids, ball.rads)]
    rad = 0.0
    for var in range(3):
        if ball.rads[var] == 0.0:
            continue
        bound = _term_sum(abs_rows[var], *outer)
        if bound is not None:
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
    points, end = orbit_walk(f, source, horizon, bit_cap)
    radii = [0.0] * len(points)
    switchover = straddle = None
    if end == "cap":
        # continue from the capped exact point with 113-bit shadow balls
        switchover = len(points) - 1
        ball = _Ball.from_point(points[-1])
        points[-1], radii[-1] = ball.numeric_point(), ball.radius() * 2.0
        while len(points) <= horizon:
            try:
                ball = _step_ball(f, ball)
            except StabilityError:
                # a ball that meets I(f) cannot certify membership
                straddle = len(points)
                break
            points.append(ball.numeric_point())
            radii.append(ball.radius() * 2.0)
    distances = [_distance_to_set(p, targets) for p in points]
    exact_targets = [q for q in targets if q.exact]
    # exact arithmetic decides membership outright (a rounded distance of
    # 0.0 can underflow for distinct points); a double or a ball near the
    # set cannot certify it
    hit = next((n for n, p in enumerate(points)
                if p.exact and any(p.same_point(q) for q in exact_targets)), None)
    straddle = next((n for n, (p, d, r) in enumerate(zip(points, distances, radii))
                     if not p.exact and d - r < eps), straddle)
    return PointOrbit(
        source=source,
        points=tuple(points),
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

    Each orbit is walked by `orbit_walk` and records, per step, the
    distance to the indeterminacy set of ``f``.  Orbits truncate at the
    first indeterminate encounter.  When an exact coordinate grows beyond
    ``bit_cap`` bits the orbit switches to a 113-bit shadow with error
    balls and the switchover step is recorded.
    """
    if isinstance(N, bool) or N < 1:
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
    return [(n, p) for orb in table.orbits for n, p in enumerate(orb.points)]


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
    verdict carries the tolerance-free ``min_distance``, the least chordal
    distance between the two orbit sets (infinity when either is empty),
    and the two orbit tables it was decided on (``forward`` for I(f^-1)
    under f, ``backward`` for I(f) under f^-1).
    """
    if f.inverse is None:
        raise StabilityError("separation check needs the inverse map")
    forward = exceptional_orbits(f, N, eps_indeterminacy=eps_indeterminacy)
    backward = exceptional_orbits(f.inverse, N, eps_indeterminacy=eps_indeterminacy)
    fwd, bwd = _orbit_points(forward), _orbit_points(backward)
    far = _unit_distances([p.unit_vector() for _, p in fwd],
                          [q.unit_vector() for _, q in bwd]).tolist()
    fails_at, witness, min_distance = None, None, math.inf
    for (i, p), row in zip(fwd, far):
        for (j, q), approx in zip(bwd, row):
            # an exact pair clearly farther apart than both the tolerance
            # and the running minimum changes neither, so its exact wedge
            # is skipped
            if p.exact and q.exact and approx > max(eps_indeterminacy, min_distance) + _FAR_MARGIN:
                continue
            d = proj_distance(p, q)
            min_distance = min(min_distance, d)
            stage = max(i, j)
            if d < eps_indeterminacy and (fails_at is None or stage < fails_at):
                fails_at, witness = stage, p
    return SeparationVerdict(holds=witness is None, through=N, fails_at=fails_at,
                             witness=witness, min_distance=min_distance,
                             forward=forward, backward=backward)


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


def summability(table: OrbitTable, rho: float) -> SummabilityReport:
    """Weighted log-distance series over an orbit table's horizon: term
    ``n`` is ``rho**(-n)`` times the log of the least step-``n`` distance
    from the table's orbits to its targets.  On ``exceptional_orbits(f,
    N)`` this is the forward series, from I(f^-1) to I(f), and on
    ``exceptional_orbits(f.inverse, N)`` the backward one.  A finite limit
    is the quantitative form of algebraic stability; an exact hit makes
    the series diverge.

    The series stops at the first step before the horizon where an orbit
    stops: at its hit, at its straddle, or, with neither, one step past its
    last point (truncated by a numeric indeterminate encounter that no
    exact hit explains, which is inconclusive evidence).  Every orbit has a
    distance at each earlier step."""
    N = table.horizon
    if not table.sources:
        return report_from_log_distances([0.0] * N, rho, N, vacuous=True)
    stops = []
    for orb in table.orbits:
        stops += [(orb.hit_index, "hit"), (orb.straddle_index, "straddle")]
        if orb.hit_index is None and orb.straddle_index is None:
            stops.append((len(orb.distances), "straddle"))
    # "hit" < "straddle": a hit outranks a straddle at the same step
    stop, kind = min(((n, k) for n, k in stops if n is not None and n < N), default=(N, None))
    log_ds = []
    for n in range(stop):
        step_min = min((orb.distances[n] for orb in table.orbits), default=math.inf)
        if not math.isfinite(step_min) or step_min <= 0.0:
            # rounded to zero with no exact hit: membership is undecided
            stop, kind = n, "straddle" if step_min <= 0.0 else None
            break
        log_ds.append(math.log(min(step_min, 1.0)))
    last = min(stop, N - 1)
    switchover = min((orb.switchover_index for orb in table.orbits
                      if orb.switchover_index is not None and orb.switchover_index <= last),
                     default=None)
    return report_from_log_distances(
        log_ds,
        rho,
        N,
        hit_index=stop if kind == "hit" else None,
        straddle_index=stop if kind == "straddle" else None,
        switchover_index=switchover,
    )
