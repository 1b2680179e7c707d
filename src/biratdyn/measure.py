"""Sampling the invariant measure by saddle periodic orbits.

A plane map with small topological degree concentrates its measure of
maximal entropy on saddle periodic points: orbits of period ``n`` whose
``n``-step derivative has one eigenvalue of modulus above 1 and one below.
This module locates those orbits numerically and packages them as weighted
point clouds that stand in for the measure.

The search runs a vectorized complex Newton iteration on the fixed-point
equations of the ``n``-th chart iterate, started from scrambled Sobol
points.  The starts come from a small numpy Sobol generator in four
dimensions (Joe-Kuo direction numbers, 30 bits, a linear matrix scramble
plus digital shift drawn from ``numpy.random.default_rng(seed)``) whose
points are bitwise equal to those of scipy 1.17's scrambled Sobol engine
for the same seed.  Converged isolated solutions are deduplicated,
filtered to minimal period, classified by the eigenvalue moduli of the
orbit derivative, certified by a sampled Krawczyk contraction bound, and
completed to full orbits before they are reported.  Weights are exact
rationals, uniform across points, and always sum to 1.

Cloud diagnostics mirror how such a measure is used: averages of bounded
observables, the invariance residual ``|mu(phi o f) - mu(phi)|``, centered
correlation coefficients along the orbit (a mixing proxy), and a
standard-error agreement gate between clouds built from different period
cutoffs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .geometry import HomogeneousPolynomial, ProjectivePoint, _unit_distances, proj_distance
from .maps import EPS_EXCEPTIONAL, RationalSurfaceMap, chart_embed, chart_map, image_point

__all__ = [
    "MeasureError",
    "NoSaddlesFound",
    "IndeterminateEncounter",
    "Observable",
    "WeightedPointCloud",
    "AgreementRow",
    "saddle_periodic_points",
    "saddle_cloud",
    "measure_average",
    "invariance_residual",
    "mixing_correlations",
    "cloud_agreement",
    "coordinate_observables",
    "random_observable",
    "bump_observable",
    "tube_observable",
]

# Search settings.  A round of Sobol starts in the complex box
# |x|, |y| <= _SEARCH_RADIUS is drawn by `_sobol` (scrambled Joe-Kuo
# directions, bitwise equal to scipy 1.17's scrambled Sobol engine),
# Newton-polished, and merged with earlier finds; rounds stop early once
# three consecutive rounds add nothing new.
_ROUND_SIZE = 4096
_MAX_ROUNDS = 16
_SEARCH_RADIUS = 2.5
_NEWTON_ITERS = 60
_NEWTON_BOX = 50.0
_RESIDUAL_TOL = 1e-10
_DEDUPE_TOL = 1e-7
_EXPANSION_GAP = 1e-6
_CERTIFY_RADIUS = 1e-7
_CHORDAL_FIX_TOL = 1e-9
# cloud agreement: means may differ by this many summed standard errors
_AGREEMENT_FACTOR = 3.0


class MeasureError(Exception):
    """Base error for measure sampling and cloud handling."""


class NoSaddlesFound(MeasureError):
    """The periodic-point search produced no saddle orbits."""


class IndeterminateEncounter(MeasureError):
    """A cloud point landed on an indeterminacy locus during iteration."""


# ---------------------------------------------------------------------------
# observables


@dataclass(frozen=True)
class Observable:
    """A bounded test function on the projective plane.

    ``fn`` consumes a :class:`ProjectivePoint`.
    """

    fn: Callable[[ProjectivePoint], float]
    name: str

    def __call__(self, p: ProjectivePoint) -> float:
        return float(self.fn(p))


def _quadratic_features(v: np.ndarray) -> np.ndarray:
    """Nine phase-invariant quadratic forms of a unit representative."""
    out = np.empty(9)
    out[0] = abs(v[0]) ** 2
    out[1] = abs(v[1]) ** 2
    out[2] = abs(v[2]) ** 2
    k = 3
    for i, j in ((0, 1), (0, 2), (1, 2)):
        z = v[i] * np.conj(v[j])
        out[k] = z.real
        out[k + 1] = z.imag
        k += 2
    return out


def coordinate_observables() -> tuple[Observable, ...]:
    """The nine quadratic moment observables |v_i|^2, Re/Im(v_i conj(v_j)).

    They are invariant under scaling of homogeneous coordinates, bounded by
    1 in absolute value, and smooth, so they serve as a standard basis of
    test functions for cloud comparisons.
    """
    names = ["abs2_0", "abs2_1", "abs2_2"]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        names += [f"re_{i}{j}", f"im_{i}{j}"]

    def make(index: int) -> Observable:
        def fn(p: ProjectivePoint) -> float:
            return float(_quadratic_features(p.unit_vector())[index])

        return Observable(fn=fn, name=names[index])

    return tuple(make(k) for k in range(9))


def random_observable(seed: int) -> Observable:
    """A deterministic bounded trigonometric observable.

    ``cos(w . q(p) + theta)`` where ``q`` collects the nine quadratic
    moments and ``(w, theta)`` are drawn from the seeded generator.
    """
    rng = np.random.default_rng(seed)
    w = rng.normal(size=9)
    theta = float(rng.uniform(0.0, 2.0 * math.pi))

    def fn(p: ProjectivePoint) -> float:
        return math.cos(float(_quadratic_features(p.unit_vector()) @ w) + theta)

    return Observable(fn=fn, name=f"trig[{seed}]")


def _taper(t: float) -> float:
    if t >= 1.0:
        return 0.0
    return (1.0 - t * t) ** 3


def bump_observable(center: ProjectivePoint, radius: float) -> Observable:
    """A smooth bump supported in the chordal ball of the given radius."""
    if radius <= 0:
        raise MeasureError("bump radius must be positive")

    def fn(p: ProjectivePoint) -> float:
        return _taper(proj_distance(p, center) / radius)

    return Observable(fn=fn, name=f"bump(r={radius:g})")


def tube_observable(curve: HomogeneousPolynomial, width: float) -> Observable:
    """A smooth indicator of a tube around the zero set of a homogeneous form.

    The form is evaluated at unit representatives and normalized by its
    coefficient norm, so the tube width is scale-free.
    """
    if width <= 0:
        raise MeasureError("tube width must be positive")
    scale = math.sqrt(sum(abs(complex(c)) ** 2 for c in curve.terms.values()))
    if scale == 0:
        raise MeasureError("tube curve must be a nonzero form")

    def fn(p: ProjectivePoint) -> float:
        val = abs(curve.evaluate_numeric(p.unit_vector())) / scale
        return _taper(val / width)

    return Observable(fn=fn, name=f"tube(w={width:g})")


# ---------------------------------------------------------------------------
# weighted point clouds


@dataclass(frozen=True, eq=False)
class WeightedPointCloud:
    """An atomic probability measure: points with exact rational weights.

    Weights are :class:`fractions.Fraction` instances, strictly positive,
    and must sum to 1 exactly.  ``periods`` and ``eigenvalue_moduli`` carry
    per-point metadata when the cloud comes from a periodic-orbit search
    (period stamp, and the orbit-derivative eigenvalue moduli sorted as
    ``(large, small)``); manually built clouds get neutral placeholders.
    """

    points: tuple[ProjectivePoint, ...]
    weights: tuple[Fraction, ...]
    provenance: str
    periods: Optional[tuple[int, ...]] = None
    eigenvalue_moduli: Optional[tuple[tuple[float, float], ...]] = None
    seed: Optional[int] = None

    def __post_init__(self):
        points = tuple(self.points)
        weights = tuple(self.weights)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)
        if not points:
            raise MeasureError("a point cloud needs at least one point")
        if len(weights) != len(points):
            raise MeasureError("need exactly one weight per point")
        for w in weights:
            if not isinstance(w, Fraction):
                raise MeasureError("weights must be exact Fraction instances")
            if w <= 0:
                raise MeasureError("weights must be strictly positive")
        if sum(weights) != Fraction(1):
            raise MeasureError("weights must sum to 1 exactly")
        if self.periods is None:
            object.__setattr__(self, "periods", (0,) * len(points))
        else:
            object.__setattr__(self, "periods", tuple(int(k) for k in self.periods))
        if self.eigenvalue_moduli is None:
            nan = float("nan")
            object.__setattr__(
                self, "eigenvalue_moduli", ((nan, nan),) * len(points)
            )
        else:
            object.__setattr__(
                self,
                "eigenvalue_moduli",
                tuple((float(a), float(b)) for a, b in self.eigenvalue_moduli),
            )
        if len(self.periods) != len(points) or len(self.eigenvalue_moduli) != len(
            points
        ):
            raise MeasureError("metadata length must match the number of points")

    @classmethod
    def uniform(
        cls,
        points: Sequence[ProjectivePoint],
        provenance: str,
        periods: Optional[Sequence[int]] = None,
        eigenvalue_moduli: Optional[Sequence[tuple[float, float]]] = None,
        seed: Optional[int] = None,
    ) -> "WeightedPointCloud":
        weights = (Fraction(1, len(points)),) * len(points) if points else ()
        return cls(points, weights, provenance, periods, eigenvalue_moduli, seed)

    @property
    def size(self) -> int:
        return len(self.points)

    def check_clear_of(self, forbidden: Sequence[ProjectivePoint], eps: float) -> None:
        """Raise if any cloud point sits within ``eps`` of a forbidden point."""
        for p in self.points:
            for q in forbidden:
                d = proj_distance(p, q)
                if d < eps:
                    raise MeasureError(
                        f"cloud point {p} lies within {eps:g} of excluded point {q}"
                        f" (distance {d:.3g})"
                    )

    def to_csv(self) -> str:
        """Serialize the cloud: unit coordinates, exact weight, period, moduli."""
        lines = [
            f"# provenance={self.provenance}; seed={self.seed}; size={self.size}",
            "re0,im0,re1,im1,re2,im2,weight,period,eig_modulus_large,eig_modulus_small",
        ]
        for p, w, k, (hi, lo) in zip(
            self.points, self.weights, self.periods, self.eigenvalue_moduli
        ):
            v = p.unit_vector()
            coords = ",".join(
                f"{part!r}" for z in v for part in (float(z.real), float(z.imag))
            )
            lines.append(f"{coords},{w},{k},{hi!r},{lo!r}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# vectorized affine dynamics for the periodic-point search


class _AffineDynamics:
    """Batch evaluation of a chart self-map and its iterated derivative."""

    def __init__(self, f: RationalSurfaceMap, chart: int):
        self._f = f
        self._chart = chart

    def advance(self, x: np.ndarray, y: np.ndarray, n: int):
        """Apply the chart map ``n`` times, chaining 2x2 derivative blocks."""
        w1, w2 = x.copy(), y.copy()
        a = np.ones_like(x)
        b = np.zeros_like(x)
        c = np.zeros_like(x)
        d = np.ones_like(x)
        with np.errstate(all="ignore"):
            for _ in range(n):
                w1, w2, jac, _ = chart_map(self._f, self._chart, self._chart, w1, w2)
                (j11, j12), (j21, j22) = jac
                a, b, c, d = (
                    j11 * a + j12 * c,
                    j11 * b + j12 * d,
                    j21 * a + j22 * c,
                    j21 * b + j22 * d,
                )
        return w1, w2, (a, b, c, d)

    def newton(self, x: np.ndarray, y: np.ndarray, n: int, iters: int = _NEWTON_ITERS):
        """Newton iteration for fixed points of the n-th iterate.

        Diverging or singular starts are replaced by NaN and ignored.  A
        step is a function of each start's own bits, so a start whose step
        returns its bits unchanged (a NaN, or a converged root) would repeat
        them at every later step: only the starts still moving are stepped.
        """
        live = np.arange(len(x))
        lx, ly = x, y
        for _ in range(iters):
            w1, w2, (a, b, c, d) = self.advance(lx, ly, n)
            with np.errstate(all="ignore"):
                f1, f2 = w1 - lx, w2 - ly
                da, db, dc, dd = a - 1.0, b, c, d - 1.0
                det = da * dd - db * dc
                dx = (dd * f1 - db * f2) / det
                dy = (da * f2 - dc * f1) / det
            ok = (
                np.isfinite(dx)
                & np.isfinite(dy)
                & (np.abs(lx) < _NEWTON_BOX)
                & (np.abs(ly) < _NEWTON_BOX)
            )
            nx = np.where(ok, lx - dx, np.nan)
            ny = np.where(ok, ly - dy, np.nan)
            moving = _moved(nx, lx) | _moved(ny, ly)
            if len(live) == len(x):  # no start frozen yet: the step is the output
                x, y = nx, ny
            else:
                x[live], y[live] = nx, ny
            live = live[moving]
            if not len(live):
                break
            lx, ly = nx[moving], ny[moving]
        return x, y

    def isolated_roots(self, x: np.ndarray, y: np.ndarray, n: int) -> np.ndarray:
        """The ``(x, y)`` rows that are isolated fixed points of the n-th iterate.

        A row is kept when its fixed-point residual is below 1e-10 and
        ``|det(Df^n - I)|`` exceeds ``_EXPANSION_GAP**2``.  Every saddle
        clears that bound (both ``|lambda - 1|`` exceed the gap), while a
        curve of periodic points, where ``Df^n - I`` is singular, is dropped
        before it can flood the deduplication.
        """
        w1, w2, (a, b, c, d) = self.advance(x, y, n)
        with np.errstate(all="ignore"):
            res = np.abs(w1 - x) + np.abs(w2 - y)
            det = (a - 1.0) * (d - 1.0) - b * c
        ok = (res < _RESIDUAL_TOL) & (np.abs(det) > _EXPANSION_GAP**2)
        return np.stack([x[ok], y[ok]], axis=1)

    def orbit_table(self, roots: np.ndarray, steps: int) -> np.ndarray:
        """Forward images ``table[k] = f^k(roots)`` for ``k = 0..steps``."""
        table = [roots]
        for _ in range(steps):
            x, y, _ = self.advance(table[-1][:, 0], table[-1][:, 1], 1)
            table.append(np.stack([x, y], axis=1))
        return np.stack(table)

    def multipliers(self, roots: np.ndarray, n: int):
        """``f^n`` images and the stacked 2x2 derivatives ``Df^n`` at each root."""
        w1, w2, (a, b, c, d) = self.advance(roots[:, 0], roots[:, 1], n)
        jac = np.stack([np.stack([a, b], axis=-1), np.stack([c, d], axis=-1)], axis=-2)
        return np.stack([w1, w2], axis=-1), jac


def _moved(new: np.ndarray, old: np.ndarray) -> np.ndarray:
    """Lanes whose bits differ; signed zeros and NaN payloads count."""
    lanes = (len(new), new.itemsize // 8)
    old = np.ascontiguousarray(old)
    return np.any(new.view(np.int64).reshape(lanes) != old.view(np.int64).reshape(lanes), axis=1)


def _dedupe_affine(found: list[np.ndarray], new: np.ndarray) -> list[np.ndarray]:
    """``found``, already pairwise separated, followed by each new point
    that is not within ``_DEDUPE_TOL`` (max-abs) of a point kept before it."""
    unique = list(found)
    if len(new) == 0:
        return unique
    # a candidate is open while no point kept so far is near it; the first
    # open one is the next point the candidate-by-candidate loop would keep
    open_ = np.ones(len(new), dtype=bool)
    if unique:
        near = np.max(np.abs(new[:, None] - np.array(unique)), axis=2) < _DEDUPE_TOL
        open_ &= ~near.any(axis=1)
    while open_.any():
        p = new[np.argmax(open_)]
        unique.append(p)
        open_ &= ~(np.max(np.abs(new - p), axis=1) < _DEDUPE_TOL)
    return unique


def _inverses(m: np.ndarray) -> np.ndarray:
    """Batched matrix inverses; a matrix LAPACK finds singular comes back NaN."""
    try:
        return np.linalg.inv(m)
    except np.linalg.LinAlgError:
        return np.stack([_inverses(row) for row in m]) if m.ndim > 2 else np.full_like(m, np.nan)


def _certify_contraction(
    dyn: _AffineDynamics, roots: np.ndarray, images: np.ndarray, jac: np.ndarray, n: int
) -> np.ndarray:
    """Sampled Krawczyk contraction bound on a small box around each root.

    With ``Y`` the inverse derivative of ``F = f^n - id`` at the candidate,
    a root is accepted when ``|Y F(p)| + r max |I - Y DF| < r`` over
    derivative samples at the 16 box corners of radius ``r``.  Quadratic
    Newton convergence makes the margin wide at genuine simple roots.
    ``images`` and ``jac`` are ``f^n`` and ``Df^n`` at the roots.
    """
    r = _CERTIFY_RADIUS
    eye = np.eye(2)
    yinv = _inverses(jac - eye)
    eta = np.max(np.abs(yinv @ (images - roots)[:, :, None]), axis=(1, 2))
    sides = (1, -1, 1j, -1j)
    corners = np.array([(r * sx, r * sy) for sx in sides for sy in sides], dtype=complex)
    boxes = (roots[:, None, :] + corners).reshape(-1, 2)
    _, samples = dyn.multipliers(boxes, n)
    gap = eye - yinv[:, None] @ (samples.reshape(-1, 16, 2, 2) - eye)
    kappa = np.max(np.abs(gap).sum(axis=-1), axis=(1, 2))
    return eta + kappa * r < r


def _sort_key(p: np.ndarray):
    return tuple(round(part, 9) for z in p for part in (z.real, z.imag))


def _clear_orbits(
    table: np.ndarray, chart: int, forbidden: list[ProjectivePoint], clearance: float
) -> np.ndarray:
    """Mask of the roots, the columns of the orbit table ``table``, none of
    whose orbit points lies within ``clearance`` of a forbidden point."""
    steps, count = table.shape[:2]
    hom = np.stack(np.broadcast_arrays(*chart_embed(chart, table[..., 0], table[..., 1])), axis=-1)
    with np.errstate(all="ignore"):
        units = hom / np.linalg.norm(hom, axis=-1, keepdims=True)
        dist = _unit_distances(units.reshape(-1, 3), [q.unit_vector() for q in forbidden])
    return ~np.any((dist < clearance).reshape(steps, count, len(forbidden)), axis=(0, 2))


def _group_orbits(table: np.ndarray, n: int) -> list[tuple[int, list[int]]]:
    """Partition periodic points into complete forward orbits.

    ``table[k, i]`` is the k-th image of point ``i``.  Each orbit is a start
    point and, for ``k = 0..n-1``, the point its k-th image matched.  Points
    whose orbit is not fully present (up to the dedupe tolerance) are
    dropped; a partial orbit would bias the uniform weighting.
    """
    pts = table[0]
    remaining = sorted(range(len(pts)), key=lambda i: _sort_key(pts[i]))
    orbits: list[tuple[int, list[int]]] = []
    while remaining:
        start = remaining.pop(0)
        matched = [start]
        for k in range(1, n):
            near = np.max(np.abs(pts[remaining] - table[k, start]), axis=1)
            hits = np.nonzero(near < 10 * _DEDUPE_TOL)[0]
            if not hits.size:
                break
            matched.append(remaining.pop(int(hits[0])))
        if len(matched) == n:
            orbits.append((start, matched))
    return orbits


# Sobol directions of dimensions 1-4 at 30 bits, one row per dimension,
# entry j holding m_j shifted to the top bit j.  Joe-Kuo numbers:
# dimension 1 has every m_j = 1; dimensions 2-4 have the primitive
# polynomials 3, 7, 11 (x + 1, x^2 + x + 1, x^3 + x + 1) and the initial
# values 1 | 1, 3 | 1, 3, 1.
_SOBOL_BITS = 30
_SOBOL_TOP = np.int64(1) << np.arange(_SOBOL_BITS - 1, -1, -1)


def _sobol_directions() -> np.ndarray:
    m = np.ones((4, _SOBOL_BITS), dtype=np.int64)
    for d, (poly, init) in enumerate([(3, [1]), (7, [1, 3]), (11, [1, 3, 1])], start=1):
        deg = len(init)
        m[d, :deg] = init
        for j in range(deg, _SOBOL_BITS):
            new = m[d, j - deg]
            for k in range(deg):
                if (poly >> (deg - 1 - k)) & 1:
                    new ^= m[d, j - k - 1] << (k + 1)
            m[d, j] = new
    return m * _SOBOL_TOP


_SOBOL_V = _sobol_directions()


def _sobol(seed: int, n: int) -> np.ndarray:
    """The first ``n`` points of the scrambled 4-d Sobol sequence for ``seed``.

    The scramble is drawn from ``numpy.random.default_rng(seed)``: first a
    digital shift (its bits weighted from the bottom), then one lower
    triangular bit matrix per dimension with a unit diagonal (its rows
    weighted from the top) that maps each direction to the parities of
    its rows against it.  Points follow in Gray-code order with the shift
    as point 0, so the result equals, bit for bit, the first ``n`` points
    that scipy 1.17's scrambled 4-d Sobol engine draws for ``seed``.
    """
    rng = np.random.default_rng(seed)
    shift = rng.integers(2, size=(4, _SOBOL_BITS), dtype=np.uint32) @ _SOBOL_TOP[::-1]
    lower = np.tril(rng.integers(2, size=(4, _SOBOL_BITS, _SOBOL_BITS), dtype=np.uint32), -1)
    rows = (lower | np.eye(_SOBOL_BITS, dtype=np.uint32)) @ _SOBOL_TOP
    parity = np.bitwise_count(rows[:, :, None] & _SOBOL_V[:, None, :]) & 1
    directions = (parity * _SOBOL_TOP[:, None]).sum(axis=1)
    # step k flips the direction of k's lowest zero bit
    k = np.arange(n - 1)
    steps = directions.T[np.bitwise_count(k ^ (k + 1)) - 1]
    return np.bitwise_xor.accumulate(np.vstack([shift, steps]), axis=0) * 2.0 ** -_SOBOL_BITS


def saddle_periodic_points(
    f: RationalSurfaceMap,
    period: int,
    *,
    seed: int = 2026,
    chart: int = 2,
    clearance: float = EPS_EXCEPTIONAL,
) -> WeightedPointCloud:
    """Locate all saddle orbits of the given minimal period in a chart.

    Sobol-seeded Newton runs search the complex box
    ``|x|, |y| <= _SEARCH_RADIUS`` for isolated fixed points of the
    ``period``-th iterate; rounds of ``_ROUND_SIZE`` starts continue until
    three consecutive rounds find nothing new or ``_MAX_ROUNDS`` rounds are
    spent.  Candidates are deduplicated at distance 1e-7, reduced to
    minimal period, classified as saddles when the orbit-derivative
    eigenvalue moduli straddle 1 by more than 1e-6, certified by a sampled
    contraction bound, and completed to full orbits.  All of these stages
    read one forward-orbit table of the found roots.  A root whose orbit
    comes within ``clearance`` (chordal) of I(f) or I(f^-1) is dropped
    before it is classified, since the cloud must stay clear of both sets.
    Raises :class:`NoSaddlesFound` when nothing survives.
    """
    if isinstance(period, bool) or not isinstance(period, int) or period < 1:
        raise MeasureError("period must be a positive integer")
    dyn = _AffineDynamics(f, chart)

    found: list[np.ndarray] = []
    quiet = 0
    for rnd in range(_MAX_ROUNDS):
        u = _sobol(seed + 1000 * period + rnd, _ROUND_SIZE)
        r = _SEARCH_RADIUS
        x = (2 * u[:, 0] - 1) * r + 1j * (2 * u[:, 1] - 1) * r
        y = (2 * u[:, 2] - 1) * r + 1j * (2 * u[:, 3] - 1) * r
        x, y = dyn.newton(x, y, period)
        before = len(found)
        found = _dedupe_affine(found, dyn.isolated_roots(x, y, period))
        if found:
            # orbit completion: polish the forward images of every find so a
            # single converged point recovers its whole cycle
            xs, ys = np.array(found).T
            for _ in range(period - 1):
                xs, ys, _ = dyn.advance(xs, ys, 1)
                px, py = dyn.newton(xs.copy(), ys.copy(), period, iters=10)
                found = _dedupe_affine(found, dyn.isolated_roots(px, py, period))
        quiet = quiet + 1 if len(found) == before else 0
        if quiet >= 3:
            break

    table = dyn.orbit_table(np.array(found, dtype=complex).reshape(-1, 2), 2 * period - 1)
    for k in range(1, period):
        if period % k == 0:  # drop the points of smaller period k
            shift = np.abs(table[k] - table[0])
            table = table[:, ~(shift[:, 0] + shift[:, 1] < _DEDUPE_TOL)]
    forbidden = list(f.indeterminacy_set())
    if f.inverse is not None:
        forbidden += list(f.inverse.indeterminacy_set())
    forbidden = [q.numeric() for q in forbidden]
    table = table[:, _clear_orbits(table[:period], chart, forbidden, clearance)]

    images, jac = dyn.multipliers(table[0], period)
    lo, hi = np.sort(np.abs(np.linalg.eigvals(jac)), axis=1).T
    saddle = (hi > 1.0 + _EXPANSION_GAP) & (lo < 1.0 - _EXPANSION_GAP)
    saddle[saddle] = _certify_contraction(
        dyn, table[0, saddle], images[saddle], jac[saddle], period
    )
    table, lo, hi = table[:, saddle], lo[saddle], hi[saddle]

    orbits = _group_orbits(table, period)
    if not orbits:
        raise NoSaddlesFound(
            f"no saddle orbits of period {period} found for {f.name!r}"
        )

    # each orbit point is the k-th image of its orbit's start and takes the
    # moduli of the root it matched; its n-th image must close up
    points, moduli = [], []
    for start, matched in orbits:
        for k, j in enumerate(matched):
            q, image = (
                ProjectivePoint.numeric_point(*chart_embed(chart, *map(complex, table[s, start])))
                for s in (k, k + period)
            )
            if proj_distance(q, image) >= _CHORDAL_FIX_TOL:
                raise MeasureError(
                    f"periodic-point residual exceeds {_CHORDAL_FIX_TOL:g} at {q}"
                )
            points.append(q)
            moduli.append((float(hi[j]), float(lo[j])))

    cloud = WeightedPointCloud.uniform(points, f"SaddleOrbits({period})",
                                       (period,) * len(points), moduli, seed)
    cloud.check_clear_of(forbidden, clearance)
    return cloud


def saddle_cloud(
    f: RationalSurfaceMap,
    max_period: int,
    *,
    seed: int = 2026,
    clearance: float = EPS_EXCEPTIONAL,
) -> WeightedPointCloud:
    """Uniform cloud over all saddle orbit points of period <= max_period,
    each found by `saddle_periodic_points` at the given ``clearance``.

    Periods that contribute no saddles (for example when the only orbit of
    that period is a sink) are skipped silently; the error surfaces only if
    every period up to the cutoff is empty.
    """
    if isinstance(max_period, bool) or not isinstance(max_period, int) or max_period < 1:
        raise MeasureError("max_period must be a positive integer")
    points: list[ProjectivePoint] = []
    periods: list[int] = []
    moduli: list[tuple[float, float]] = []
    for n in range(1, max_period + 1):
        try:
            part = saddle_periodic_points(f, n, seed=seed, clearance=clearance)
        except NoSaddlesFound:
            continue
        points.extend(part.points)
        periods.extend(part.periods)
        moduli.extend(part.eigenvalue_moduli)
    if not points:
        raise NoSaddlesFound(
            f"no saddle orbits of period <= {max_period} found for {f.name!r}"
        )
    return WeightedPointCloud.uniform(points, f"SaddleOrbits(<={max_period})",
                                      periods, moduli, seed)


# ---------------------------------------------------------------------------
# averages, invariance, mixing


def _weighted_mean(values: list[float], weights: list[float]) -> float:
    return math.fsum(v * w for v, w in zip(values, weights)) / math.fsum(weights)


def measure_average(
    cloud: WeightedPointCloud, phi: Callable[[ProjectivePoint], float]
) -> float:
    """The cloud average of an observable.

    Normalizing by the floating-point weight sum keeps constant observables
    exact: the average of the constant 1 is exactly 1.0.
    """
    weights = [float(w) for w in cloud.weights]
    values = [float(phi(p)) for p in cloud.points]
    return _weighted_mean(values, weights)


def _image_point(f: RationalSurfaceMap, p: ProjectivePoint) -> ProjectivePoint:
    image = image_point(f, p)
    if image is None:
        raise IndeterminateEncounter(
            f"cloud point {p} hit the indeterminacy locus of {f.name!r}"
        )
    return image


def invariance_residual(
    f: RationalSurfaceMap,
    cloud: WeightedPointCloud,
    phi: Callable[[ProjectivePoint], float],
) -> float:
    """``|mu(phi o f) - mu(phi)|`` for the atomic measure mu.

    Vanishes to rounding error on saddle clouds, which the map permutes.
    Constant observables give exactly 0.0 because both averages run the same
    float computation.
    """
    weights = [float(w) for w in cloud.weights]
    direct = [float(phi(p)) for p in cloud.points]
    pushed = [float(phi(_image_point(f, p))) for p in cloud.points]
    return abs(_weighted_mean(pushed, weights) - _weighted_mean(direct, weights))


def mixing_correlations(
    f: RationalSurfaceMap,
    cloud: WeightedPointCloud,
    phi: Callable[[ProjectivePoint], float],
    psi: Callable[[ProjectivePoint], float],
    lags: int,
) -> tuple:
    """Centered correlations ``mu(phi . (psi o f^n)) - mu(phi) mu(psi o f^n)``
    for ``n = 0, ..., lags``, from one walk of the cloud.

    Lag 0 with ``phi = psi`` is the (nonnegative) variance.  On a finite
    periodic-orbit cloud, correlations fall from the time-0 value while
    atoms decorrelate and partially recur once the lag reaches the orbit
    periods; the decay toward 0 is a proxy statement about the underlying
    measure, not the atoms.
    """
    if lags < 0:
        raise MeasureError("lags must be nonnegative")
    weights = [float(w) for w in cloud.weights]
    phis = [float(phi(p)) for p in cloud.points]
    mean_phi = _weighted_mean(phis, weights)
    mass = math.fsum(weights)
    current = list(cloud.points)
    out = []
    for n in range(lags + 1):
        if n:
            current = [_image_point(f, p) for p in current]
        psis = [float(psi(p)) for p in current]
        mean_psi = _weighted_mean(psis, weights)
        total = math.fsum(
            w * (a - mean_phi) * (b - mean_psi)
            for w, a, b in zip(weights, phis, psis)
        )
        out.append(total / mass)
    return tuple(out)


# ---------------------------------------------------------------------------
# cloud agreement


@dataclass(frozen=True)
class AgreementRow:
    """Comparison of one observable's averages over two clouds."""

    name: str
    mean_a: float
    mean_b: float
    se_a: float
    se_b: float
    gap: float
    limit: float
    compatible: bool


def cloud_agreement(
    cloud_a: WeightedPointCloud,
    cloud_b: WeightedPointCloud,
    observables: Sequence[Observable],
) -> tuple[AgreementRow, ...]:
    """Standard-error agreement gate between two clouds.

    For each observable the weighted means must differ by at most
    ``_AGREEMENT_FACTOR * (se_a + se_b)`` where ``se`` is the weighted standard error
    ``sqrt(sum w_i^2 (phi_i - mean)^2)``.  This is the operative quality
    check between clouds built from consecutive period cutoffs.
    """

    def stats(cloud: WeightedPointCloud, phi: Observable) -> tuple[float, float]:
        weights = [float(w) for w in cloud.weights]
        values = [float(phi(p)) for p in cloud.points]
        mean = _weighted_mean(values, weights)
        var = math.fsum((w * (v - mean)) ** 2 for w, v in zip(weights, values))
        return mean, math.sqrt(var)

    rows = []
    for phi in observables:
        mean_a, se_a = stats(cloud_a, phi)
        mean_b, se_b = stats(cloud_b, phi)
        gap = abs(mean_a - mean_b)
        limit = _AGREEMENT_FACTOR * (se_a + se_b) + 1e-12
        rows.append(
            AgreementRow(
                name=phi.name,
                mean_a=mean_a,
                mean_b=mean_b,
                se_a=se_a,
                se_b=se_b,
                gap=gap,
                limit=limit,
                compatible=gap <= limit,
            )
        )
    return tuple(rows)
