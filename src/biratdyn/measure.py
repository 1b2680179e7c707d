"""Sampling the invariant measure by saddle periodic orbits.

A plane map with small topological degree concentrates its measure of
maximal entropy on saddle periodic points: orbits of period ``n`` whose
``n``-step derivative has one eigenvalue of modulus above 1 and one below.
This module locates those orbits numerically and packages them as weighted
point clouds that stand in for the measure.

The search runs a vectorized complex Newton iteration on the fixed-point
equations of the ``n``-th chart iterate, started from scrambled Sobol
points.  Converged solutions are deduplicated projectively, filtered to
minimal period, classified by the eigenvalue moduli of the orbit
derivative, completed to full orbits, and certified by a sampled Krawczyk
contraction bound before they are reported.  Weights are exact rationals,
uniform across points, and always sum to 1.

Cloud diagnostics mirror how such a measure is used: averages of bounded
observables, the invariance residual ``|mu(phi o f) - mu(phi)|``, centered
correlation coefficients along the orbit (a mixing proxy), mass decay of
shrinking balls, and a standard-error agreement gate between clouds built
from different period cutoffs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.stats import qmc

from .geometry import HomogeneousPolynomial, ProjectivePoint, proj_distance
from .maps import ChartMap, RationalSurfaceMap, apply, chart_embed

__all__ = [
    "MeasureError",
    "NoSaddlesFound",
    "IndeterminateEncounter",
    "Observable",
    "WeightedPointCloud",
    "AgreementRow",
    "BallMassReport",
    "saddle_periodic_points",
    "saddle_cloud",
    "measure_average",
    "invariance_residual",
    "mixing_correlation",
    "cloud_agreement",
    "ball_mass_decay",
    "coordinate_observables",
    "random_observable",
    "bump_observable",
    "tube_observable",
]

# Search defaults.  A round of Sobol starts is drawn, Newton-polished, and
# merged with earlier finds; rounds stop early once three consecutive rounds
# add nothing new.
_ROUND_SIZE = 4096
_MAX_ROUNDS = 16
_NEWTON_ITERS = 60
_NEWTON_BOX = 50.0
_RESIDUAL_TOL = 1e-10
_DEDUPE_TOL = 1e-7
_EXPANSION_GAP = 1e-6
_CERTIFY_RADIUS = 1e-7
_CHORDAL_FIX_TOL = 1e-9


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

    ``fn`` consumes a :class:`ProjectivePoint`; ``lipschitz`` is a rough
    upper bound for the chordal Lipschitz constant, used only to interpret
    residual magnitudes.
    """

    fn: Callable[[ProjectivePoint], float]
    name: str
    lipschitz: float

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

        return Observable(fn=fn, name=names[index], lipschitz=4.0)

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

    return Observable(fn=fn, name=f"trig[{seed}]", lipschitz=float(4.0 * np.abs(w).sum()))


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

    return Observable(fn=fn, name=f"bump(r={radius:g})", lipschitz=1.72 / radius)


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

    return Observable(
        fn=fn,
        name=f"tube(w={width:g})",
        lipschitz=1.72 * max(1, curve.degree) / width,
    )


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
        points = tuple(points)
        if not points:
            raise MeasureError("a point cloud needs at least one point")
        w = Fraction(1, len(points))
        return cls(
            points=points,
            weights=(w,) * len(points),
            provenance=provenance,
            periods=tuple(periods) if periods is not None else None,
            eigenvalue_moduli=(
                tuple(eigenvalue_moduli) if eigenvalue_moduli is not None else None
            ),
            seed=seed,
        )

    @property
    def size(self) -> int:
        return len(self.points)

    def check_clear_of(
        self, forbidden: Sequence[ProjectivePoint], eps: float = 1e-6
    ) -> None:
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

    @classmethod
    def from_csv(cls, text: str) -> "WeightedPointCloud":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if len(lines) < 3 or not lines[0].startswith("#"):
            raise MeasureError("malformed cloud CSV")
        header = lines[0][1:].strip()
        fields = dict(
            part.strip().split("=", 1) for part in header.split(";") if "=" in part
        )
        provenance = fields.get("provenance", "Unknown")
        seed_text = fields.get("seed", "None")
        seed = None if seed_text == "None" else int(seed_text)
        points, weights, periods, moduli = [], [], [], []
        for ln in lines[2:]:
            cells = ln.split(",")
            if len(cells) != 10:
                raise MeasureError(f"malformed cloud CSV row: {ln!r}")
            vals = [float(c) for c in cells[:6]]
            points.append(
                ProjectivePoint.numeric_point(
                    complex(vals[0], vals[1]),
                    complex(vals[2], vals[3]),
                    complex(vals[4], vals[5]),
                )
            )
            weights.append(Fraction(cells[6]))
            periods.append(int(cells[7]))
            moduli.append((float(cells[8]), float(cells[9])))
        return cls(
            points=tuple(points),
            weights=tuple(weights),
            provenance=provenance,
            periods=tuple(periods),
            eigenvalue_moduli=tuple(moduli),
            seed=seed,
        )


# ---------------------------------------------------------------------------
# vectorized affine dynamics for the periodic-point search


class _AffineDynamics:
    """Batch evaluation of a chart self-map and its iterated derivative."""

    def __init__(self, f: RationalSurfaceMap, chart: int):
        self._evaluator = ChartMap(f, chart, chart)

    def advance(self, x: np.ndarray, y: np.ndarray, n: int):
        """Apply the chart map ``n`` times, chaining 2x2 derivative blocks."""
        w1, w2 = x.copy(), y.copy()
        a = np.ones_like(x)
        b = np.zeros_like(x)
        c = np.zeros_like(x)
        d = np.ones_like(x)
        with np.errstate(all="ignore"):
            for _ in range(n):
                w1, w2, jac = self._evaluator(w1, w2)
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

        Diverging or singular starts are replaced by NaN and ignored.
        """
        for _ in range(iters):
            w1, w2, (a, b, c, d) = self.advance(x, y, n)
            with np.errstate(all="ignore"):
                f1, f2 = w1 - x, w2 - y
                da, db, dc, dd = a - 1.0, b, c, d - 1.0
                det = da * dd - db * dc
                dx = (dd * f1 - db * f2) / det
                dy = (da * f2 - dc * f1) / det
            ok = (
                np.isfinite(dx)
                & np.isfinite(dy)
                & (np.abs(x) < _NEWTON_BOX)
                & (np.abs(y) < _NEWTON_BOX)
            )
            x = np.where(ok, x - dx, np.nan)
            y = np.where(ok, y - dy, np.nan)
        return x, y

    def residual(self, x: np.ndarray, y: np.ndarray, n: int) -> np.ndarray:
        w1, w2, _ = self.advance(x, y, n)
        with np.errstate(all="ignore"):
            return np.abs(w1 - x) + np.abs(w2 - y)

    def derivative_matrix(self, x: complex, y: complex, n: int) -> np.ndarray:
        ax = np.array([x], dtype=complex)
        ay = np.array([y], dtype=complex)
        _, _, (a, b, c, d) = self.advance(ax, ay, n)
        return np.array([[a[0], b[0]], [c[0], d[0]]], dtype=complex)

    def step_point(self, x: complex, y: complex) -> tuple[complex, complex]:
        w1, w2, _ = self.advance(
            np.array([x], dtype=complex), np.array([y], dtype=complex), 1
        )
        return complex(w1[0]), complex(w2[0])


def _dedupe_affine(pts: list[np.ndarray], tol: float = _DEDUPE_TOL) -> list[np.ndarray]:
    unique: list[np.ndarray] = []
    for p in pts:
        p = np.asarray(p)
        if not any(np.max(np.abs(p - q)) < tol for q in unique):
            unique.append(p)
    return unique


def _minimal_period(dyn: _AffineDynamics, p: np.ndarray, n: int) -> int:
    x, y = complex(p[0]), complex(p[1])
    cx, cy = x, y
    for k in range(1, n):
        cx, cy = dyn.step_point(cx, cy)
        if n % k == 0 and abs(cx - x) + abs(cy - y) < _DEDUPE_TOL:
            return k
    return n


def _certify_contraction(dyn: _AffineDynamics, p: np.ndarray, n: int) -> bool:
    """Sampled Krawczyk contraction bound on a small box around a root.

    With ``Y`` the inverse derivative of ``F = f^n - id`` at the candidate,
    the orbit is accepted when ``|Y F(p)| + r max |I - Y DF| < r`` over
    derivative samples at box corners of radius ``r``.  Quadratic Newton
    convergence makes the margin wide at genuine simple roots.
    """
    r = _CERTIFY_RADIUS
    x, y = complex(p[0]), complex(p[1])
    w1, w2, _ = dyn.advance(np.array([x]), np.array([y]), n)
    fvec = np.array([w1[0] - x, w2[0] - y])
    df = dyn.derivative_matrix(x, y, n) - np.eye(2)
    try:
        yinv = np.linalg.inv(df)
    except np.linalg.LinAlgError:
        return False
    eta = float(np.max(np.abs(yinv @ fvec)))
    kappa = 0.0
    for sx in (1, -1, 1j, -1j):
        for sy in (1, -1, 1j, -1j):
            sample = dyn.derivative_matrix(x + r * sx, y + r * sy, n) - np.eye(2)
            gap = np.eye(2) - yinv @ sample
            kappa = max(kappa, float(np.max(np.abs(gap).sum(axis=1))))
    return eta + kappa * r < r


def _sort_key(p: np.ndarray):
    return (
        round(p[0].real, 9),
        round(p[0].imag, 9),
        round(p[1].real, 9),
        round(p[1].imag, 9),
    )


def _group_orbits(
    dyn: _AffineDynamics, pts: list[np.ndarray], n: int
) -> list[list[np.ndarray]]:
    """Partition periodic points into complete forward orbits.

    Points whose orbit is not fully present (up to the dedupe tolerance)
    are dropped; a partial orbit would bias the uniform weighting.
    """
    remaining = sorted(pts, key=_sort_key)
    orbits: list[list[np.ndarray]] = []
    while remaining:
        start = remaining.pop(0)
        orbit = [start]
        cx, cy = complex(start[0]), complex(start[1])
        complete = True
        for _ in range(n - 1):
            cx, cy = dyn.step_point(cx, cy)
            img = np.array([cx, cy])
            match = None
            for q in remaining:
                if np.max(np.abs(img - q)) < 10 * _DEDUPE_TOL:
                    match = q
                    break
            if match is None:
                complete = False
                break
            remaining = [q for q in remaining if q is not match]
            orbit.append(img)
        if complete and len(orbit) == n:
            orbits.append(orbit)
    return orbits


def saddle_periodic_points(
    f: RationalSurfaceMap,
    period: int,
    *,
    budget: int = _ROUND_SIZE * _MAX_ROUNDS,
    seed: int = 2026,
    radius: float = 2.5,
    chart: int = 2,
    eps_indeterminacy: float = 1e-6,
) -> WeightedPointCloud:
    """Locate all saddle orbits of the given minimal period in a chart.

    Sobol-seeded Newton runs search the complex box ``|x|, |y| <= radius``
    for fixed points of the ``period``-th iterate; rounds of starts continue
    until three consecutive rounds find nothing new or the budget is spent.
    Candidates are deduplicated at chordal distance 1e-7, reduced to minimal
    period, completed to full orbits, certified by a sampled contraction
    bound, and classified as saddles when the orbit-derivative eigenvalue
    moduli straddle 1 by more than 1e-6.  Raises :class:`NoSaddlesFound`
    when nothing survives.
    """
    if not isinstance(period, int) or period < 1:
        raise MeasureError("period must be a positive integer")
    if budget < 1:
        raise MeasureError("search budget must be positive")
    dyn = _AffineDynamics(f, chart)

    found: list[np.ndarray] = []
    quiet = 0
    rounds = max(1, math.ceil(budget / _ROUND_SIZE))
    for rnd in range(rounds):
        count = min(_ROUND_SIZE, budget - rnd * _ROUND_SIZE)
        if count <= 0:
            break
        engine = qmc.Sobol(d=4, scramble=True, seed=seed + 1000 * period + rnd)
        u = engine.random(count)
        x = (2 * u[:, 0] - 1) * radius + 1j * (2 * u[:, 1] - 1) * radius
        y = (2 * u[:, 2] - 1) * radius + 1j * (2 * u[:, 3] - 1) * radius
        x, y = dyn.newton(x, y, period)
        res = dyn.residual(x, y, period)
        good = np.isfinite(res) & (res < _RESIDUAL_TOL)
        before = len(found)
        found = _dedupe_affine(found + list(np.stack([x[good], y[good]], axis=1)))
        if found:
            # orbit completion: polish the forward images of every find so a
            # single converged point recovers its whole cycle
            xs = np.array([p[0] for p in found])
            ys = np.array([p[1] for p in found])
            for _ in range(period - 1):
                xs, ys, _ = dyn.advance(xs, ys, 1)
                px, py = dyn.newton(xs.copy(), ys.copy(), period, iters=10)
                pres = dyn.residual(px, py, period)
                keep = np.isfinite(pres) & (pres < _RESIDUAL_TOL)
                found = _dedupe_affine(
                    found + list(np.stack([px[keep], py[keep]], axis=1))
                )
        quiet = quiet + 1 if len(found) == before else 0
        if quiet >= 3:
            break

    minimal = [p for p in found if _minimal_period(dyn, p, period) == period]

    saddles: list[np.ndarray] = []
    moduli: dict[tuple, tuple[float, float]] = {}
    for p in minimal:
        m = dyn.derivative_matrix(complex(p[0]), complex(p[1]), period)
        lo, hi = np.sort(np.abs(np.linalg.eigvals(m)))
        if hi > 1.0 + _EXPANSION_GAP and lo < 1.0 - _EXPANSION_GAP:
            if _certify_contraction(dyn, p, period):
                saddles.append(p)
                moduli[_sort_key(p)] = (float(hi), float(lo))

    orbits = _group_orbits(dyn, saddles, period)
    ordered = [p for orbit in orbits for p in orbit]
    if not ordered:
        raise NoSaddlesFound(
            f"no saddle orbits of period {period} found for {f.name!r}"
        )

    points = []
    for p in ordered:
        cx, cy = complex(p[0]), complex(p[1])
        q = ProjectivePoint.numeric_point(*chart_embed(chart, cx, cy))
        for _ in range(period):
            cx, cy = dyn.step_point(cx, cy)
        pn = ProjectivePoint.numeric_point(*chart_embed(chart, cx, cy))
        if proj_distance(q, pn) >= _CHORDAL_FIX_TOL:
            raise MeasureError(
                f"periodic-point residual exceeds {_CHORDAL_FIX_TOL:g} at {q}"
            )
        points.append(q)

    cloud = WeightedPointCloud.uniform(
        tuple(points),
        provenance=f"SaddleOrbits({period})",
        periods=(period,) * len(points),
        eigenvalue_moduli=tuple(moduli[_sort_key(p)] for p in ordered),
        seed=seed,
    )
    forbidden = list(f.indeterminacy_set())
    if f.inverse is not None:
        forbidden += list(f.inverse.indeterminacy_set())
    cloud.check_clear_of([q.numeric() for q in forbidden], eps=eps_indeterminacy)
    return cloud


def saddle_cloud(
    f: RationalSurfaceMap,
    max_period: int,
    *,
    budget: int = _ROUND_SIZE * _MAX_ROUNDS,
    seed: int = 2026,
    radius: float = 2.5,
    chart: int = 2,
) -> WeightedPointCloud:
    """Uniform cloud over all saddle orbit points of period <= max_period.

    Periods that contribute no saddles (for example when the only orbit of
    that period is a sink) are skipped silently; the error surfaces only if
    every period up to the cutoff is empty.
    """
    if not isinstance(max_period, int) or max_period < 1:
        raise MeasureError("max_period must be a positive integer")
    points: list[ProjectivePoint] = []
    periods: list[int] = []
    moduli: list[tuple[float, float]] = []
    for n in range(1, max_period + 1):
        try:
            part = saddle_periodic_points(
                f, n, budget=budget, seed=seed, radius=radius, chart=chart
            )
        except NoSaddlesFound:
            continue
        points.extend(part.points)
        periods.extend(part.periods)
        moduli.extend(part.eigenvalue_moduli)
    if not points:
        raise NoSaddlesFound(
            f"no saddle orbits of period <= {max_period} found for {f.name!r}"
        )
    return WeightedPointCloud.uniform(
        tuple(points),
        provenance=f"SaddleOrbits(<={max_period})",
        periods=tuple(periods),
        eigenvalue_moduli=tuple(moduli),
        seed=seed,
    )


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
    image = apply(f, p)
    if image.point is None:
        raise IndeterminateEncounter(
            f"cloud point {p} hit the indeterminacy locus of {f.name!r}"
        )
    return image.point


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


def mixing_correlation(
    f: RationalSurfaceMap,
    cloud: WeightedPointCloud,
    phi: Callable[[ProjectivePoint], float],
    psi: Callable[[ProjectivePoint], float],
    steps: int,
) -> float:
    """Centered correlation ``mu(phi . (psi o f^n)) - mu(phi) mu(psi o f^n)``.

    ``steps = 0`` with ``phi = psi`` returns the (nonnegative) variance.
    On a finite periodic-orbit cloud, correlations fall from the time-0
    value while atoms decorrelate and partially recur once ``steps``
    reaches the orbit periods; the decay toward 0 is a proxy statement
    about the underlying measure, not the atoms.
    """
    if steps < 0:
        raise MeasureError("steps must be nonnegative")
    weights = [float(w) for w in cloud.weights]
    current = list(cloud.points)
    for _ in range(steps):
        current = [_image_point(f, p) for p in current]
    phis = [float(phi(p)) for p in cloud.points]
    psis = [float(psi(p)) for p in current]
    mean_phi = _weighted_mean(phis, weights)
    mean_psi = _weighted_mean(psis, weights)
    total = math.fsum(
        w * (a - mean_phi) * (b - mean_psi)
        for w, a, b in zip(weights, phis, psis)
    )
    return total / math.fsum(weights)


# ---------------------------------------------------------------------------
# ball-mass decay and cloud agreement


@dataclass(frozen=True)
class BallMassReport:
    """Mass of shrinking chordal balls around cloud atoms.

    ``radii[k] = base * rho^(-k/2)``; ``masses[k]`` averages the ball mass
    over the sampled centers.  ``fitted_exponent`` is the mean decay rate of
    ``-log(mass)`` per step ``k`` over the resolvable range, to be compared
    with the reference rate ``log(rho)``.
    """

    radii: tuple[float, ...]
    masses: tuple[float, ...]
    fitted_exponent: float
    reference_rate: float
    centers_used: int


def ball_mass_decay(
    cloud: WeightedPointCloud,
    rho: float,
    *,
    base_radius: float = 0.9,
    steps: int = 9,
    n_centers: int = 7,
) -> BallMassReport:
    """Fit the decay exponent of ball masses ``mu(B(x, base * rho^(-k/2)))``.

    Centers are cloud atoms at evenly spaced indices.  Masses below 1.5
    atoms are excluded from each center's fit (the atomic floor), and
    centers with fewer than three resolvable radii are skipped.
    """
    if rho <= 1:
        raise MeasureError("rho must exceed 1")
    n = cloud.size
    radii = [base_radius * rho ** (-k / 2.0) for k in range(steps)]
    stride = max(1, n // n_centers)
    centers = cloud.points[::stride][:n_centers]
    weights = [float(w) for w in cloud.weights]
    floor = 1.5 / n
    mass_rows: list[list[float]] = []
    slopes: list[float] = []
    for c in centers:
        dists = [proj_distance(p, c) for p in cloud.points]
        masses = [
            math.fsum(w for w, d in zip(weights, dists) if d < r) for r in radii
        ]
        mass_rows.append(masses)
        usable = [(k, math.log(m)) for k, m in enumerate(masses) if m > floor]
        if len(usable) >= 3:
            ks = np.array([k for k, _ in usable], dtype=float)
            ls = np.array([v for _, v in usable])
            slopes.append(-float(np.polyfit(ks, ls, 1)[0]))
    if not slopes:
        raise MeasureError("cloud too sparse to resolve any ball-mass decay")
    mean_masses = tuple(
        float(np.mean([row[k] for row in mass_rows])) for k in range(steps)
    )
    return BallMassReport(
        radii=tuple(radii),
        masses=mean_masses,
        fitted_exponent=float(np.mean(slopes)),
        reference_rate=math.log(rho),
        centers_used=len(centers),
    )


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
    *,
    factor: float = 3.0,
) -> tuple[AgreementRow, ...]:
    """Standard-error agreement gate between two clouds.

    For each observable the weighted means must differ by at most
    ``factor * (se_a + se_b)`` where ``se`` is the weighted standard error
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
        limit = factor * (se_a + se_b) + 1e-12
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
