"""Green potentials of a plane map: step potential, partial sums, fits.

The step potential of a degree-``d`` map with homogeneous lift ``F`` is
``gamma(p) = rho**-1 * log norm(F(z))`` on the unit-norm representative
``z`` of ``p``; it is minus infinity exactly on the indeterminacy set and
picks up a logarithmic singularity there.  Its weighted orbit sums
``g_N(p) = sum_{j<N} rho**-j gamma(f^j p)`` converge (for stable maps) to
the invariant potential; the identity ``g_N(p) = rho**-N log norm(F^N z)``
provides a second, telescoped evaluation path and every partial-sum call
cross-checks the two.

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

from .cohomology import CohomologyLattice, SpectralData, spectral_data
from .geometry import ProjectivePoint, proj_distance
from .maps import RationalSurfaceMap, chart_embed

__all__ = [
    "PotentialError",
    "OrbitHitIndeterminacy",
    "InsufficientSamples",
    "SingularityFit",
    "gamma_plus",
    "green_partial",
    "green_partial_telescoped",
    "green_functional_check",
    "green_at_inverse_indeterminacy",
    "singularity_fit",
    "shell_points",
    "shell_means",
    "lelong_estimate",
    "green_lelong_estimate",
    "green_partial_for_class",
    "green_grid",
]

_ORBIT_FLOOR = 1e-13


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


def _unit_lift(p: ProjectivePoint) -> np.ndarray:
    return p.unit_vector()


def _exact_on_indeterminacy(f: RationalSurfaceMap, p: ProjectivePoint) -> bool:
    if not p.exact:
        return False
    return all(v.is_zero() for v in f.evaluate_exact(p.coords))


def gamma_plus(f: RationalSurfaceMap, p: ProjectivePoint, rho: float | None = None) -> float:
    """Step potential at one point; minus infinity exactly on I(f).

    ``rho`` defaults to the algebraic degree (the spectral radius for
    degree-stable maps) and may be overridden for diagnostic harnesses.
    """
    if rho is None:
        rho = float(f.degree)
    if _exact_on_indeterminacy(f, p):
        return -math.inf
    v = _unit_lift(p)
    w = f.evaluate_numeric(v)
    norm = float(np.linalg.norm(w))
    if norm == 0.0:
        return -math.inf
    return math.log(norm) / rho


def _normalized_orbit_logs(f: RationalSurfaceMap, p: ProjectivePoint, N: int):
    """Unit-normalized numeric orbit with per-step image log-norms.

    Returns (points, lognorms) where ``points[j]`` is the unit lift of the
    j-th iterate and ``lognorms[j] = log norm(F(points[j]))``.  A zero
    image (exact indeterminacy hit) yields a -inf entry and truncation; an
    image too small for doubles to renormalize raises
    :class:`OrbitHitIndeterminacy`.
    """
    pts = []
    logs = []
    if _exact_on_indeterminacy(f, p):
        return [p.unit_vector()], [-math.inf]
    v = _unit_lift(p)
    scale = f.coeff_scale()
    for j in range(N):
        pts.append(v)
        w = f.evaluate_numeric(v)
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            logs.append(-math.inf)
            return pts, logs
        if norm < _ORBIT_FLOOR * scale:
            raise OrbitHitIndeterminacy(j)
        logs.append(math.log(norm))
        v = w / norm
    return pts, logs


def green_partial(f: RationalSurfaceMap, p: ProjectivePoint, N: int, rho: float | None = None) -> float:
    """Partial sum ``sum_{j<N} rho**-j gamma(f^j p)`` (possibly -inf).

    When ``rho`` equals the algebraic degree the value is cross-checked
    against the telescoped identity ``rho**-N log norm(F^N z)`` to 1e-9
    relative; disagreement raises :class:`PotentialError`.
    """
    if N < 1:
        raise ValueError("partial sum needs N >= 1")
    if rho is None:
        rho = float(f.degree)
    _, logs = _normalized_orbit_logs(f, p, N)
    if logs and logs[-1] == -math.inf:
        return -math.inf
    total = 0.0
    for j, a in enumerate(logs):
        total += rho ** (-j) * (a / rho)
    if rho == float(f.degree):
        tele = _telescoped_from_logs(logs, float(f.degree))
        denom = max(abs(total), abs(tele), 1e-9)
        if abs(total - tele) > 1e-9 * denom:
            raise PotentialError(
                f"termwise and telescoped partial sums disagree: {total!r} vs {tele!r}"
            )
    return total


def _telescoped_from_logs(logs, d: float) -> float:
    # log norm(F^N z) accumulated as a Horner recurrence over the
    # normalized orbit: A <- d*A + log a_j, then divide by d^N
    acc = 0.0
    for a in logs:
        acc = d * acc + a
    return acc / d ** len(logs)


def green_partial_telescoped(f: RationalSurfaceMap, p: ProjectivePoint, N: int) -> float:
    """Telescoped evaluation ``rho**-N log norm(F^N z)`` on the normalized
    orbit (valid when the weight equals the algebraic degree)."""
    if N < 1:
        raise ValueError("partial sum needs N >= 1")
    _, logs = _normalized_orbit_logs(f, p, N)
    if logs and logs[-1] == -math.inf:
        return -math.inf
    return _telescoped_from_logs(logs, float(f.degree))


def green_functional_check(f: RationalSurfaceMap, p: ProjectivePoint, N: int, rho: float | None = None) -> float:
    """Residual of the pullback identity for partial sums.

    The invariant potential satisfies ``g(f p) = rho * (g(p) - gamma(p))``;
    at truncation ``N`` the residual ``|g_N(f p) - rho (g_{N+1}(p) -
    gamma(p))|`` vanishes identically term by term, so anything beyond
    float accumulation noise indicates an implementation fault.
    """
    if rho is None:
        rho = float(f.degree)
    pts, logs = _normalized_orbit_logs(f, p, N + 1)
    if logs[-1] == -math.inf or logs[0] == -math.inf:
        raise OrbitHitIndeterminacy(len(logs) - 1, "orbit hit indeterminacy during check")
    g_fp = 0.0
    for j, a in enumerate(logs[1:]):
        g_fp += rho ** (-j) * (a / rho)
    g_p_long = 0.0
    for j, a in enumerate(logs):
        g_p_long += rho ** (-j) * (a / rho)
    gamma_p = logs[0] / rho
    return abs(g_fp - rho * (g_p_long - gamma_p))


def green_at_inverse_indeterminacy(f: RationalSurfaceMap, N: int, rho: float | None = None):
    """Partial sums at each indeterminacy point of the inverse map.

    Finiteness of these values (uniformly in the truncation) is the
    potential-theoretic face of the forward summability condition; a
    minus-infinity entry corresponds to a divergent weighted series.
    """
    if f.inverse is None:
        raise PotentialError("needs the inverse map")
    return [green_partial(f, q, N, rho) for q in f.inverse.indeterminacy_set()]


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
    rho: float | None = None,
    samples_per_shell: int = 128,
    seed: int = 20260825,
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
        for p in shell_points(q, r, samples_per_shell, seed):
            g = gamma_plus(f, p, rho)
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


def shell_means(fn, center: ProjectivePoint, radii, *, samples_per_shell: int = 256, seed: int = 20260825):
    """Mean of a pointwise function over chordal spheres around a center."""
    means = []
    for r in radii:
        vals = [fn(p) for p in shell_points(center, float(r), samples_per_shell, seed)]
        finite = [v for v in vals if math.isfinite(v)]
        if len(finite) < samples_per_shell // 2:
            raise InsufficientSamples(f"shell at radius {r} lost most samples")
        means.append(float(np.mean(finite)))
    return means


def lelong_estimate(radii, means, *, fit_last: int = 4) -> float:
    """Slope of shell means against ``log r`` over the smallest radii.

    The slope of the spherical average of a potential as the radius
    shrinks is the mass it places at the center; a unit log pole gives
    slope one and a locally bounded potential gives slope zero.  Clamped
    below at zero.
    """
    radii = [float(r) for r in radii]
    if len(radii) < fit_last or len(means) != len(radii):
        raise InsufficientSamples("need at least as many shells as the fit window")
    order = np.argsort(radii)  # ascending: smallest radii first
    lr = np.log(np.array(radii)[order][:fit_last])
    mv = np.array(means, dtype=float)[order][:fit_last]
    X = np.vstack([np.ones(fit_last), lr]).T
    (_, slope), *_ = np.linalg.lstsq(X, mv, rcond=None)
    return max(float(slope), 0.0)


DEFAULT_LELONG_RADII = tuple(float(r) for r in np.geomspace(1e-5, 1e-2, 8))


def green_lelong_estimate(
    f: RationalSurfaceMap,
    center: ProjectivePoint,
    N: int,
    *,
    rho: float | None = None,
    radii=DEFAULT_LELONG_RADII,
    samples_per_shell: int = 256,
    seed: int = 20260825,
) -> float:
    """Lelong slope of the truncated Green potential at a point."""
    means = shell_means(
        lambda p: green_partial(f, p, N, rho),
        center,
        radii,
        samples_per_shell=samples_per_shell,
        seed=seed,
    )
    return lelong_estimate(radii, means)


# ---------------------------------------------------------------------------
# Class-valued partial sums
# ---------------------------------------------------------------------------


def green_partial_for_class(
    f: RationalSurfaceMap,
    L: CohomologyLattice,
    eta,
    p: ProjectivePoint,
    N: int,
    *,
    rho: float | None = None,
    sd: SpectralData | None = None,
    eta_potential=None,
    gamma_basis=None,
):
    """Partial Green sum attached to an arbitrary lattice class.

    Evaluates ``rho**-n [ p_eta(f^n x) + sum_{j<n} gamma(Mf^j eta)(f^(n-1-j) x) ]``
    where ``gamma(v)`` is linear in the class ``v`` over per-generator step
    potentials and ``p_eta`` is the smooth chart potential of ``eta``
    (zero for the expanding class itself).  Returns ``(value, c)`` with
    ``c`` the pairing of ``eta`` against the contracting class: the sums
    converge to ``c`` times the invariant potential.

    For the rank-one plane lattice the generator potential defaults to
    ``x -> log norm(F(z))`` (the step potential scaled by ``rho``), which
    makes the expanding-class case reduce exactly to :func:`green_partial`.
    """
    if N < 1:
        raise ValueError("needs N >= 1")
    if rho is None:
        rho = float(f.degree)
    if sd is None:
        sd = spectral_data(L)
    eta = np.asarray(eta, dtype=float)
    c = L.pairing(eta, sd.theta_minus)
    if gamma_basis is None:
        if L.rank != 1:
            raise PotentialError("per-generator potentials required for rank > 1")
        gamma_basis = [lambda x, _f=f, _r=rho: _r * gamma_plus(_f, x, _r)]
    if len(gamma_basis) != L.rank:
        raise PotentialError("one generator potential per lattice rank is required")
    pts, _ = _normalized_orbit_logs(f, p, N + 1)
    if len(pts) < N + 1:
        return -math.inf, c
    orbit = [ProjectivePoint.numeric_point(*v) for v in pts]
    M = L.Mf.astype(float)
    v = eta.copy()
    total = 0.0
    for j in range(N):
        x = orbit[N - 1 - j]
        total += sum(float(v[i]) * gamma_basis[i](x) for i in range(L.rank))
        v = M @ v
    if eta_potential is not None:
        total += eta_potential(orbit[N])
    return total * rho ** (-N), float(c)


# ---------------------------------------------------------------------------
# Grid export
# ---------------------------------------------------------------------------


def green_grid(
    f: RationalSurfaceMap,
    N: int,
    *,
    rho: float | None = None,
    chart: int = 2,
    center=(0.0, 0.0),
    halfwidth: float = 3.0,
    resolution: int = 128,
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
    us = np.linspace(center[0] - halfwidth, center[0] + halfwidth, resolution)
    vs = np.linspace(center[1] - halfwidth, center[1] + halfwidth, resolution)
    out = np.empty((resolution, resolution), dtype=float)
    for i, vv in enumerate(vs):
        for j, uu in enumerate(us):
            p = ProjectivePoint.numeric_point(*chart_embed(chart, uu, vv))
            try:
                out[i, j] = green_partial(f, p, N, rho)
            except OrbitHitIndeterminacy:
                out[i, j] = -math.inf
    return out
