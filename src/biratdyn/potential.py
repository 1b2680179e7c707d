"""Green potentials of a plane map: step potential, partial sums, fits.

The step potential of a degree-``d`` map with homogeneous lift ``F`` is
``gamma(p) = d**-1 * log norm(F(z))`` on the unit-norm representative
``z`` of ``p``; it is minus infinity exactly on the indeterminacy set and
picks up a logarithmic singularity there.  Its weighted orbit sums
``g_N(p) = sum_{j<N} d**-j gamma(f^j p)`` converge (for stable maps) to
the invariant potential; the identity ``g_N(p) = d**-N log norm(F^N z)``
provides a second, telescoped evaluation path and every partial-sum call
cross-checks the two.  Every value comes from one batched orbit loop,
:func:`_orbit`; the step potential is its one-step sum, ``gamma = g_1``.

The weight is always the degree.  A plane map is algebraically stable,
``(f^n)* = (f*)^n``, exactly when ``deg f^n = d^n``, and the invariant
potential of the lift is then ``lim d**-n log norm(F^n z)``.  Weighted by
any other rate ``rho != d``, the sums of the lift's step potentials no
longer telescope to ``rho**-N log norm(F^N z)`` and are not a Green
potential.

Normalization note: potentials built from homogeneous lifts differ from
chart-level conventions by an additive constant.  All functional
identities, singularity fits, and convergence diagnostics used here are
insensitive to that constant, so the lift normalization is adopted
throughout and the constant is absorbed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import GeometryError, ProjectivePoint, _term_sum, proj_distance
from .maps import RationalSurfaceMap, chart_embed

__all__ = [
    "PotentialError",
    "OrbitHitIndeterminacy",
    "InsufficientSamples",
    "SingularityFit",
    "green_partial",
    "green_functional_check",
    "green_at_inverse_indeterminacy",
    "singularity_fit",
    "shell_points",
    "shell_means",
    "lelong_estimate",
    "green_lelong_estimate",
    "green_grid",
]

_ORBIT_FLOOR = 1e-13
# seed of the sphere samples around a center
_SHELL_SEED = 20260825
# the Lelong slope is fitted over this many smallest shells
_LELONG_FIT_LAST = 4


class PotentialError(Exception):
    pass


class OrbitHitIndeterminacy(PotentialError):
    """A numeric orbit step degenerated too close to the indeterminacy set
    for double precision to continue meaningfully."""

    def __init__(self, step, message=None):
        self.step = step
        super().__init__(message or f"orbit degenerated at step {step}")


class InsufficientSamples(PotentialError):
    pass


def _exact_on_indeterminacy(f: RationalSurfaceMap, p: ProjectivePoint) -> bool:
    if not p.exact:
        return False
    return all(v.is_zero() for v in f.evaluate_exact(p.coords))


def _norms(w):
    """Euclidean norm of each row of an (M, 3) complex array: the dot that
    ``np.linalg.norm`` takes on one complex 3-vector, lane by lane."""
    return np.sqrt(np.vecdot(w.real, w.real) + np.vecdot(w.imag, w.imag))


def _chart_lifts(chart: int, us, vs) -> np.ndarray:
    """Unit lifts of the chart points ``(us[m], vs[m])``, scaled as
    :class:`ProjectivePoint` scales one point; a lane whose norm is zero or
    not finite raises :class:`GeometryError`, which is then the only
    report of an overflowing norm."""
    coords = np.stack(np.broadcast_arrays(*chart_embed(chart, us, vs)), axis=-1).astype(complex)
    with np.errstate(over="ignore", invalid="ignore"):
        n = _norms(coords)
    if not np.all(np.isfinite(n) & (n >= 1e-300)):
        raise GeometryError("zero or non-finite vector does not define a projective point")
    return coords / n[:, None]


def _weighted_sum(logs, d: float):
    """``sum_j d**-j (logs[..., j] / d)`` per lane, accumulated in index
    order; 0.0 over no logs."""
    if not logs.shape[-1]:
        return np.zeros(logs.shape[:-1])
    weights = np.array([d ** (-j) for j in range(logs.shape[-1])])
    return np.add.accumulate(weights * (logs / d), axis=-1)[..., -1]


def _telescoped(logs, d: float):
    # log norm(F^N z) accumulated as a Horner recurrence over the
    # normalized orbit: A <- d*A + log a_j, then divide by d^N
    acc = 0.0
    for j in range(logs.shape[-1]):
        acc = d * acc + logs[..., j]
    return acc / d ** logs.shape[-1]


def _stopped(logs):
    """Lanes whose orbit stopped: a zero image or the floor."""
    return logs[..., -1] == -math.inf


def _orbit(f: RationalSurfaceMap, lifts: np.ndarray, N: int):
    """Step an (M, 3) batch of unit lifts N times together: the one orbit
    loop of the potential.

    Each lane does the arithmetic of a scalar orbit exactly: the components
    are `_term_sum` over object arrays of Python complex, the norm is
    :func:`_norms`, the division numpy's and the logarithm ``math.log``.
    Returns ``(logs, floor)``.  ``logs[m, j] = log norm(F(v_j))`` for the
    unit lift ``v_j`` of the j-th iterate of lane m; a zero image stops the
    lane, and its logs are -inf from that step on.  A nonzero image below
    ``_ORBIT_FLOOR * coeff_scale`` is too small for doubles to renormalize:
    it stops the lane the same way and ``floor[m]`` records the step (-1 on
    the other lanes).  The termwise and telescoped sums of every lane that
    completes agree to 1e-9 relative; a disagreement raises
    :class:`PotentialError`.
    """
    rows = [c._numeric_terms() for c in f.components]
    tiny = _ORBIT_FLOOR * f.coeff_scale()
    M = len(lifts)
    logs = np.full((M, N), -math.inf)
    floor = np.full(M, -1)
    live = np.arange(M)
    v = lifts
    for j in range(N):
        if not len(live):
            break
        x, y, t = v.T.astype(object)
        w = np.empty((len(live), 3), dtype=complex)
        for k, terms in enumerate(rows):
            acc = _term_sum(terms, x, y, t)
            w[:, k] = 0j if acc is None else acc
        norm = _norms(w)
        stop = norm < tiny  # a zero image too, as tiny > 0; NaN lanes go on
        if np.count_nonzero(stop):
            floor[live[stop & (norm != 0.0)]] = j
            live, w, norm = live[~stop], w[~stop], norm[~stop]
        logs[live, j] = [math.log(a) for a in norm.tolist()]
        v = w / norm[:, None]
    done = ~_stopped(logs)
    d = float(f.degree)
    total, tele = _weighted_sum(logs[done], d), _telescoped(logs[done], d)
    denom = np.maximum(np.maximum(np.abs(total), np.abs(tele)), 1e-9)
    bad = np.flatnonzero(np.abs(total - tele) > 1e-9 * denom)
    if len(bad):
        m = bad[0]
        raise PotentialError(
            "termwise and telescoped partial sums disagree: "
            f"{float(total[m])!r} vs {float(tele[m])!r}"
        )
    return logs, floor


def _green_sums(f: RationalSurfaceMap, logs) -> np.ndarray:
    """Termwise partial sums of an (M, N) block of kernel logs; -inf on the
    lanes that stopped."""
    out = np.full(len(logs), -math.inf)
    go = ~_stopped(logs)
    out[go] = _weighted_sum(logs[go], float(f.degree))
    return out


def _point_logs(f: RationalSurfaceMap, points, N: int):
    """Kernel logs of a list of points, one lane each.

    A point given exactly on I(f) takes no step: its logs are all -inf.
    The first lane in order that hits the floor raises
    :class:`OrbitHitIndeterminacy`.
    """
    on_i = np.array([_exact_on_indeterminacy(f, p) for p in points], dtype=bool)
    lifts = np.array([p.unit_vector() for p in points], dtype=complex).reshape(-1, 3)
    logs = np.full((len(points), N), -math.inf)
    logs[~on_i], floor = _orbit(f, lifts[~on_i], N)
    hit = floor[floor >= 0]
    if len(hit):
        raise OrbitHitIndeterminacy(int(hit[0]))
    return logs


def _partial_sums(f: RationalSurfaceMap, points, N: int) -> np.ndarray:
    """:func:`green_partial` at each point, in one kernel call."""
    if N < 1:
        raise ValueError("partial sum needs N >= 1")
    return _green_sums(f, _point_logs(f, points, N))


def green_partial(f: RationalSurfaceMap, p: ProjectivePoint, N: int) -> float:
    """Partial sum ``sum_{j<N} d**-j gamma(f^j p)`` (possibly -inf).

    The value is cross-checked against the telescoped identity
    ``d**-N log norm(F^N z)`` to 1e-9 relative; disagreement raises
    :class:`PotentialError`.
    """
    return float(_partial_sums(f, [p], N)[0])


def _functional_residual(logs, d: float):
    # g_N(f p) from logs[1:], g_{N+1}(p) and gamma(p) from the same orbit
    return np.abs(_weighted_sum(logs[..., 1:], d) - d * (_weighted_sum(logs, d) - logs[..., 0] / d))


def green_functional_check(f: RationalSurfaceMap, p: ProjectivePoint, N: int) -> float:
    """Residual of the pullback identity for partial sums.

    The invariant potential satisfies ``g(f p) = d * (g(p) - gamma(p))``;
    at truncation ``N`` the residual ``|g_N(f p) - d (g_{N+1}(p) -
    gamma(p))|`` vanishes identically term by term, so anything beyond
    float accumulation noise indicates an implementation fault.
    """
    logs = _point_logs(f, [p], N + 1)
    if _stopped(logs[0]):
        step = int(np.argmax(logs[0] == -math.inf))
        raise OrbitHitIndeterminacy(step, "orbit hit indeterminacy during check")
    return float(_functional_residual(logs[0], float(f.degree)))


def _chart_residuals(f: RationalSurfaceMap, N: int, chart: int, us, vs) -> list:
    """:func:`green_functional_check` at the chart points ``(us[m], vs[m])``
    in one kernel call: a residual per point, None where its orbit stopped
    at a zero image or the floor."""
    logs, _ = _orbit(f, _chart_lifts(chart, us, vs), N + 1)
    go = ~_stopped(logs)
    res = np.full(len(logs), math.nan)
    res[go] = _functional_residual(logs[go], float(f.degree))
    return [r if ok else None for r, ok in zip(res.tolist(), go)]


def green_at_inverse_indeterminacy(f: RationalSurfaceMap, N: int):
    """Partial sums at each indeterminacy point of the inverse map.

    Finiteness of these values (uniformly in the truncation) is the
    potential-theoretic face of the forward summability condition; a
    minus-infinity entry corresponds to a divergent weighted series.
    """
    if f.inverse is None:
        raise PotentialError("needs the inverse map")
    return _partial_sums(f, f.inverse.indeterminacy_set(), N).tolist()


# ---------------------------------------------------------------------------
# Shell sampling, singularity fits, Lelong slopes
# ---------------------------------------------------------------------------


def shell_points(center: ProjectivePoint, radius: float, count: int, seed: int):
    """Deterministic sample of points at exact chordal distance ``radius``.

    Writes each sample as ``sqrt(1 - r^2) c + r v`` with ``v`` a Haar-unit
    vector orthogonal to the unit lift ``c``; the chordal distance to the
    center is then exactly ``r``.
    """
    if not 0 < radius < 1:
        raise ValueError("shell radius must lie in (0, 1)")
    c = center.unit_vector()
    rng = np.random.default_rng(np.random.SeedSequence([seed, int(radius * 1e12) & 0x7FFFFFFF]))
    pts = []
    for _ in range(count):
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        v = v - np.vdot(c, v) * c
        n = np.linalg.norm(v)
        while n < 1e-9:
            v = rng.normal(size=3) + 1j * rng.normal(size=3)
            v = v - np.vdot(c, v) * c
            n = np.linalg.norm(v)
        v /= n
        w = math.sqrt(1.0 - radius * radius) * c + radius * v
        pts.append(ProjectivePoint.numeric_point(*w))
    return pts


@dataclass(frozen=True)
class SingularityFit:
    """Two-sided logarithmic envelope of the step potential near an
    indeterminacy point: ``A log d - B <= gamma <= A' log d + B'`` on the
    sampled shells, with the fitted slope and the residual spread."""

    point: ProjectivePoint
    lower: tuple  # (A, B)
    upper: tuple  # (A_prime, B_prime)
    radii: tuple
    slope: float
    residual_spread: tuple  # (min residual, max residual) about the LS fit
    samples: int


def singularity_fit(
    f: RationalSurfaceMap,
    q: ProjectivePoint,
    radii,
    *,
    samples_per_shell: int = 128,
) -> SingularityFit:
    """Least-squares log-singularity envelope of the step potential at an
    indeterminacy point, from spherical-shell samples."""
    radii = tuple(float(r) for r in radii)
    if len(radii) < 2 or samples_per_shell < 4:
        raise InsufficientSamples("need at least 2 shells and 4 samples each")
    if any(r <= 1e-7 for r in radii):
        raise ValueError("shell radii must exceed 1e-7")
    I_pts = f.indeterminacy_set()
    logs_d = []
    vals = []
    for r in radii:
        pts = shell_points(q, r, samples_per_shell, _SHELL_SEED)
        for p, g in zip(pts, _partial_sums(f, pts, 1).tolist()):
            if not math.isfinite(g):
                continue
            d = min(proj_distance(p, t) for t in I_pts)
            if d <= 0:
                continue
            logs_d.append(math.log(d))
            vals.append(g)
    if len(vals) < 8:
        raise InsufficientSamples("too few finite potential samples on the shells")
    X = np.vstack([np.ones(len(vals)), np.array(logs_d)]).T
    (intercept, slope), *_ = np.linalg.lstsq(X, np.array(vals), rcond=None)
    resid = np.array(vals) - (intercept + slope * np.array(logs_d))
    A = max(float(slope), 1e-6)
    B = float(np.max(A * np.array(logs_d) - np.array(vals)))
    B_prime = float(np.max(np.array(vals) - A * np.array(logs_d)))
    return SingularityFit(
        point=q,
        lower=(A, B),
        upper=(A, B_prime),
        radii=radii,
        slope=float(slope),
        residual_spread=(float(resid.min()), float(resid.max())),
        samples=len(vals),
    )


def shell_means(fn, center: ProjectivePoint, radii, *, samples_per_shell: int = 256, seed: int = _SHELL_SEED):
    """Mean of a function over chordal spheres around a center; ``fn``
    takes the sample points of one shell and returns their values."""
    means = []
    for r in radii:
        vals = np.asarray(fn(shell_points(center, float(r), samples_per_shell, seed)), dtype=float)
        finite = vals[np.isfinite(vals)]
        if len(finite) < samples_per_shell // 2:
            raise InsufficientSamples(f"shell at radius {r} lost most samples")
        means.append(float(np.mean(finite)))
    return means


def lelong_estimate(radii, means) -> float:
    """Slope of shell means against ``log r`` over the smallest radii.

    The slope of the spherical average of a potential as the radius
    shrinks is the mass it places at the center; a unit log pole gives
    slope one and a locally bounded potential gives slope zero.  Clamped
    below at zero.
    """
    radii = [float(r) for r in radii]
    if len(radii) < _LELONG_FIT_LAST or len(means) != len(radii):
        raise InsufficientSamples("need at least as many shells as the fit window")
    order = np.argsort(radii)  # ascending: smallest radii first
    lr = np.log(np.array(radii)[order][:_LELONG_FIT_LAST])
    mv = np.array(means, dtype=float)[order][:_LELONG_FIT_LAST]
    X = np.vstack([np.ones(_LELONG_FIT_LAST), lr]).T
    (_, slope), *_ = np.linalg.lstsq(X, mv, rcond=None)
    return max(float(slope), 0.0)


DEFAULT_LELONG_RADII = tuple(float(r) for r in np.geomspace(1e-5, 1e-2, 8))


def green_lelong_estimate(f: RationalSurfaceMap, center: ProjectivePoint, N: int) -> float:
    """Lelong slope of the truncated Green potential at a point, over 128
    samples on each shell of ``DEFAULT_LELONG_RADII``."""
    means = shell_means(
        lambda pts: _partial_sums(f, pts, N),
        center,
        DEFAULT_LELONG_RADII,
        samples_per_shell=128,
    )
    return lelong_estimate(DEFAULT_LELONG_RADII, means)


# ---------------------------------------------------------------------------
# Grid export
# ---------------------------------------------------------------------------


def _grid_axes(center, halfwidth: float, resolution: int):
    """The two coordinate axes of the grid window: entry ``[i, j]`` of a
    grid sits at ``(us[j], vs[i])``."""
    us = np.linspace(center[0] - halfwidth, center[0] + halfwidth, resolution)
    vs = np.linspace(center[1] - halfwidth, center[1] + halfwidth, resolution)
    return us, vs


def green_grid(
    f: RationalSurfaceMap,
    N: int,
    *,
    chart: int,
    center,
    halfwidth: float,
    resolution: int,
) -> np.ndarray:
    """Truncated Green potential sampled on a real affine grid.

    The grid spans the real slice of the given chart: entry ``[i, j]`` is
    the value at affine coordinates ``(center0 - halfwidth + ...)`` with
    rows advancing in the second coordinate.  Minus-infinities (orbits
    through indeterminacy) are recorded as ``-inf`` and left for the
    caller to rescale.
    """
    if resolution < 2:
        raise ValueError("grid resolution must be at least 2")
    if N < 1:
        raise ValueError("partial sum needs N >= 1")
    u, v = np.meshgrid(*_grid_axes(center, halfwidth, resolution))
    lifts = _chart_lifts(chart, u.ravel(), v.ravel())
    return _green_sums(f, _orbit(f, lifts, N)[0]).reshape(resolution, resolution)
