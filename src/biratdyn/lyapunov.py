"""Lyapunov exponents of plane maps over sampled invariant measures.

Exponents are estimated by the QR cocycle: along each orbit the derivative
is accumulated one step at a time through a QR decomposition, and the two
log-diagonal sums divided by the step count converge to the top and bottom
exponents.  The tangent bundle is trivialized in affine charts — each point
uses the chart of its largest homogeneous coordinate, so affine coordinates
stay bounded — and every chart derivative is corrected by the square root
of the chordal (Fubini-Study) metric Gram matrix on both sides.  Orbit
segments that change charts pick up the explicit transition derivative via
the mixed-chart Jacobian, so singular values are chart-independent.

Two consistency identities guard the bookkeeping: per orbit, the sum of the
two accumulated log-diagonals must equal the accumulated ``log |det|`` of
the corrected step matrices (an algebraic property of QR), and the top
singular value of a single corrected step matrix must match the derivative
norm computed from the homogeneous 3x3 projection formula.

Integrability of ``log |Df|`` against the sampled measure is probed by
truncated means: the averages of ``min(|log |Df||, M)`` over doubling
truncation levels ``M`` must become Cauchy; atoms on or arbitrarily near
the indeterminacy set keep the sequence growing and flag the diagnostic as
inconsistent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import ProjectivePoint
from .maps import ChartMap, RationalSurfaceMap, chart_coords
from .measure import WeightedPointCloud

__all__ = [
    "LyapunovError",
    "AllOrbitsExcluded",
    "IntegrabilityReport",
    "LyapunovEstimate",
    "HyperbolicityVerdict",
    "cocycle_exponents",
    "integrability_partial",
    "hyperbolicity_verdict",
    "step_norm",
]

_EXCLUSION_RADIUS = 1e-6
_TRUNCATION_LEVELS = tuple(float(2**k) for k in range(1, 13))
_CAUCHY_TOL = 1e-3


class LyapunovError(Exception):
    """Base error for exponent estimation."""


class AllOrbitsExcluded(LyapunovError):
    """Every cloud point hit the exclusion radius around the indeterminacy set."""


@dataclass(frozen=True)
class IntegrabilityReport:
    """Truncated means of ``|log |Df||`` over doubling truncation levels.

    ``means[k]`` is the cloud average of ``min(|log |Df||, levels[k])``.
    The sequence is nondecreasing; ``consistent`` records whether it has
    become Cauchy (final increment at most 1e-3), the numerical proxy for
    integrability of ``log |Df|``.
    """

    levels: tuple[float, ...]
    means: tuple[float, ...]
    cauchy_gap: float
    consistent: bool


@dataclass(frozen=True)
class LyapunovEstimate:
    """Cloud-averaged Lyapunov exponents with per-point diagnostics.

    ``chi_plus >= chi_minus`` always holds.  ``det_residual`` is the worst
    per-orbit gap between the summed QR log-diagonals and the directly
    accumulated ``log |det|`` (an exact identity up to rounding).
    ``excluded_mass`` is the cloud weight dropped because the orbit entered
    the exclusion radius around the indeterminacy set.
    """

    chi_plus: float
    chi_minus: float
    se_plus: float
    se_minus: float
    n_steps: int
    provenance: str
    per_point_plus: tuple[float, ...]
    per_point_minus: tuple[float, ...]
    excluded_mass: float
    included: int
    det_residual: float
    integrability: Optional[IntegrabilityReport] = None

    def __post_init__(self):
        if not (self.chi_plus >= self.chi_minus):
            raise LyapunovError("chi_plus must dominate chi_minus")
        if not (math.isfinite(self.se_plus) and math.isfinite(self.se_minus)):
            raise LyapunovError("standard errors must be finite")


@dataclass(frozen=True)
class HyperbolicityVerdict:
    """Saddle-type test of the exponents against the ``log(rho)/8`` bound.

    ``expanding_ok`` requires ``chi_plus >= log(rho)/8 - 2 se`` and
    ``contracting_ok`` requires ``chi_minus <= -log(rho)/8 + 2 se``; the
    margins report the distances to the thresholds without the standard
    error allowance.
    """

    rho: float
    threshold: float
    expanding_ok: bool
    contracting_ok: bool
    margin_plus: float
    margin_minus: float


# ---------------------------------------------------------------------------
# chart-trivialized, metric-corrected step matrices


def _gram_half_factors(z1: np.ndarray, z2: np.ndarray):
    """Square root (and inverse square root) of the chordal metric Gram.

    In affine coordinates ``z`` the chordal metric has Gram matrix
    ``G = (s I - z z*) / s^2`` with ``s = 1 + |z|^2``: eigenvalue ``1/s^2``
    along ``z`` and ``1/s`` on the orthogonal complement.  Both square-root
    factors are assembled from the spectral projectors.
    """
    z1 = np.asarray(z1, dtype=complex)
    z2 = np.asarray(z2, dtype=complex)
    nz = np.abs(z1) ** 2 + np.abs(z2) ** 2
    s = 1.0 + nz
    m = z1.shape[0]
    eye = np.broadcast_to(np.eye(2, dtype=complex), (m, 2, 2))
    safe = np.where(nz > 0, nz, 1.0)
    proj = np.empty((m, 2, 2), dtype=complex)
    proj[:, 0, 0] = z1 * np.conj(z1) / safe
    proj[:, 0, 1] = z1 * np.conj(z2) / safe
    proj[:, 1, 0] = z2 * np.conj(z1) / safe
    proj[:, 1, 1] = z2 * np.conj(z2) / safe
    proj = np.where((nz > 0)[:, None, None], proj, 0.0)
    a_par = (1.0 / s)[:, None, None]
    a_perp = (1.0 / np.sqrt(s))[:, None, None]
    half = a_perp * eye + (a_par - a_perp) * proj
    half_inv = (1.0 / a_perp) * eye + (1.0 / a_par - 1.0 / a_perp) * proj
    return half, half_inv


class _CocycleStepper:
    """Batched one-step evaluation of the corrected tangent cocycle."""

    def __init__(self, f: RationalSurfaceMap):
        self._f = f
        self._evaluators: dict[tuple[int, int], ChartMap] = {}

    def _evaluator(self, chart_in: int, chart_out: int) -> ChartMap:
        key = (chart_in, chart_out)
        if key not in self._evaluators:
            self._evaluators[key] = ChartMap(self._f, chart_in, chart_out)
        return self._evaluators[key]

    def step(self, v: np.ndarray, chart_in: Optional[np.ndarray] = None):
        """One cocycle step at a batch of unit representatives.

        Returns the corrected 2x2 step matrices, the next unit
        representatives, a finiteness mask, and the output chart indices.
        ``chart_in`` defaults to the largest coordinate of each input; a
        caller chaining steps must pass the previous output charts so the
        orthonormal frames of consecutive steps agree (the output frame of
        one step is the input frame of the next — re-deriving the chart
        from a re-anchored representative could silently jump frames when
        two coordinates tie in modulus).
        """
        m = v.shape[0]
        with np.errstate(all="ignore"):
            # every term of a component of degree >= 1 involves a batch row
            image = np.stack(
                [comp.evaluate_numeric(v.T) for comp in self._f.components], axis=1
            )
            norms = np.linalg.norm(image, axis=1)
            w = image / np.where(norms > 0, norms, 1.0)[:, None]
        if chart_in is None:
            chart_in = np.argmax(np.abs(v), axis=1)
        chart_out = np.argmax(np.abs(w), axis=1)
        mats = np.full((m, 2, 2), np.nan, dtype=complex)
        ok = np.isfinite(norms) & (norms > 0)
        for ci in range(3):
            for co in range(3):
                idx = np.nonzero((chart_in == ci) & (chart_out == co) & ok)[0]
                if idx.size == 0:
                    continue
                z1, z2 = chart_coords(ci, v[idx]).T
                with np.errstate(all="ignore"):
                    w1, w2, jac = self._evaluator(ci, co)(z1, z2)
                (j11, j12), (j21, j22) = jac
                jmat = np.empty((idx.size, 2, 2), dtype=complex)
                jmat[:, 0, 0] = j11
                jmat[:, 0, 1] = j12
                jmat[:, 1, 0] = j21
                jmat[:, 1, 1] = j22
                out_half, _ = _gram_half_factors(w1, w2)
                _, in_half_inv = _gram_half_factors(z1, z2)
                mats[idx] = out_half @ jmat @ in_half_inv
        finite = np.all(np.isfinite(mats), axis=(1, 2)) & ok
        return mats, w, finite, chart_out


def step_norm(f: RationalSurfaceMap, p: ProjectivePoint) -> float:
    """Top singular value of the corrected chart step matrix at one point.

    Matches the derivative norm from the homogeneous projection formula;
    returns ``inf`` at indeterminacy points.
    """
    stepper = _CocycleStepper(f)
    v = p.unit_vector()[None, :]
    mats, _, finite, _ = stepper.step(v)
    if not finite[0]:
        return math.inf
    return float(np.linalg.svd(mats[0], compute_uv=False)[0])


def _chordal_to_points(v: np.ndarray, targets: list[np.ndarray]) -> np.ndarray:
    """Chordal distance from each batch row to the nearest target point."""
    if not targets:
        return np.full(v.shape[0], np.inf)
    best = np.full(v.shape[0], np.inf)
    for q in targets:
        inner = np.abs(v @ np.conj(q)) ** 2
        d = np.sqrt(np.maximum(0.0, 1.0 - inner))
        best = np.minimum(best, d)
    return best


def cocycle_exponents(
    f: RationalSurfaceMap,
    cloud: WeightedPointCloud,
    n: int,
    *,
    exclusion_radius: float = _EXCLUSION_RADIUS,
) -> LyapunovEstimate:
    """QR-accumulated Lyapunov exponents averaged over a point cloud.

    Each cloud point is iterated ``n`` steps; at every step the corrected
    chart derivative is folded into a QR decomposition and the log moduli
    of the two diagonal entries are accumulated.  Atoms carrying a positive
    period stamp are re-anchored to their starting representative after
    every full period: the orbit provably closes, and without the reset the
    expanding direction would amplify rounding noise off the cycle within a
    few dozen steps.  Points whose orbit enters the exclusion radius around
    the indeterminacy set of the map (or whose step matrix degenerates) are
    dropped and their weight reported as ``excluded_mass``; the remaining
    weights are renormalized.  Raises :class:`AllOrbitsExcluded` when
    nothing survives.
    """
    if n < 1:
        raise LyapunovError("need at least one cocycle step")
    stepper = _CocycleStepper(f)
    ind_points = [q.numeric().unit_vector() for q in f.indeterminacy_set()]

    m = cloud.size
    v0 = np.stack([p.unit_vector() for p in cloud.points])
    v = v0.copy()
    periods = np.array(cloud.periods, dtype=int)
    phase = np.zeros(m, dtype=int)
    chart_state = np.argmax(np.abs(v0), axis=1)
    q_frames = np.broadcast_to(np.eye(2, dtype=complex), (m, 2, 2)).copy()
    sum_top = np.zeros(m)
    sum_bot = np.zeros(m)
    sum_det = np.zeros(m)
    alive = np.ones(m, dtype=bool)

    for _ in range(n):
        dists = _chordal_to_points(v, ind_points)
        alive &= dists >= exclusion_radius
        if not alive.any():
            break
        mats, w, finite, chart_out = stepper.step(v, chart_state)
        alive &= finite
        # dead rows get a harmless identity so batched QR stays defined
        safe = np.where(alive[:, None, None], mats, np.eye(2, dtype=complex))
        product = safe @ q_frames
        q_frames, r = np.linalg.qr(product)
        with np.errstate(all="ignore"):
            sum_top += np.where(alive, np.log(np.abs(r[:, 0, 0])), 0.0)
            sum_bot += np.where(alive, np.log(np.abs(r[:, 1, 1])), 0.0)
            _, logdet = np.linalg.slogdet(safe)
            sum_det += np.where(alive, logdet, 0.0)
        v = np.where(alive[:, None], w, v)
        chart_state = np.where(alive, chart_out, chart_state)
        phase += 1
        closing = (periods > 0) & (phase == periods)
        if closing.any():
            # re-anchor closed orbits to their certified representative;
            # the frame (chart_state) carries over, so no frame jump occurs
            v[closing] = v0[closing]
            phase[closing] = 0

    if not np.any(alive):
        raise AllOrbitsExcluded(
            f"all {m} orbits entered the {exclusion_radius:g}-neighborhood of"
            f" the indeterminacy set of {f.name!r}"
        )

    idx = np.nonzero(alive)[0]
    per_plus = np.maximum(sum_top[idx], sum_bot[idx]) / n
    per_minus = np.minimum(sum_top[idx], sum_bot[idx]) / n
    det_residual = float(np.max(np.abs(sum_top[idx] + sum_bot[idx] - sum_det[idx])))

    kept_fracs = [cloud.weights[i] for i in idx]
    total = sum(kept_fracs)
    weights = np.array([float(w_ / total) for w_ in kept_fracs])
    excluded_mass = float(1 - total)

    def mean_se(values: np.ndarray):
        mean = float(math.fsum(w_ * x for w_, x in zip(weights, values)))
        var = math.fsum((w_ * (x - mean)) ** 2 for w_, x in zip(weights, values))
        return mean, math.sqrt(var)

    chi_plus, se_plus = mean_se(per_plus)
    chi_minus, se_minus = mean_se(per_minus)

    included_cloud = WeightedPointCloud(
        points=tuple(cloud.points[i] for i in idx),
        weights=tuple(w_ / total for w_ in kept_fracs),
        provenance=cloud.provenance,
    )
    report = integrability_partial(f, included_cloud)

    return LyapunovEstimate(
        chi_plus=chi_plus,
        chi_minus=chi_minus,
        se_plus=se_plus,
        se_minus=se_minus,
        n_steps=n,
        provenance=cloud.provenance,
        per_point_plus=tuple(float(x) for x in per_plus),
        per_point_minus=tuple(float(x) for x in per_minus),
        excluded_mass=excluded_mass,
        included=int(idx.size),
        det_residual=det_residual,
        integrability=report,
    )


def integrability_partial(
    f: RationalSurfaceMap, cloud: WeightedPointCloud
) -> IntegrabilityReport:
    """Truncated means of ``|log |Df||`` over the cloud.

    The derivative norm is the top singular value of the corrected chart
    step matrix; points on the indeterminacy set contribute ``+inf`` and
    therefore the full truncation level at every stage, which keeps the
    sequence growing and flags it as inconsistent.
    """
    stepper = _CocycleStepper(f)
    v = np.stack([p.unit_vector() for p in cloud.points])
    mats, _, finite, _ = stepper.step(v)
    values = []
    for k in range(cloud.size):
        if not finite[k]:
            values.append(math.inf)
            continue
        top = float(np.linalg.svd(mats[k], compute_uv=False)[0])
        values.append(abs(math.log(top)) if top > 0 else math.inf)
    weights = [float(w) for w in cloud.weights]
    wsum = math.fsum(weights)
    means = []
    for level in _TRUNCATION_LEVELS:
        means.append(
            math.fsum(w * min(val, level) for w, val in zip(weights, values)) / wsum
        )
    gap = means[-1] - means[-2]
    return IntegrabilityReport(
        levels=_TRUNCATION_LEVELS,
        means=tuple(means),
        cauchy_gap=gap,
        consistent=gap <= _CAUCHY_TOL,
    )


def hyperbolicity_verdict(est: LyapunovEstimate, rho: float) -> HyperbolicityVerdict:
    """Test the exponents against the saddle-type bound ``log(rho)/8``.

    The expanding exponent must clear ``log(rho)/8`` and the contracting
    exponent must fall below ``-log(rho)/8``, each with a two-standard-error
    allowance.
    """
    if rho <= 1:
        raise LyapunovError("the expansion rate rho must exceed 1")
    threshold = math.log(rho) / 8.0
    return HyperbolicityVerdict(
        rho=rho,
        threshold=threshold,
        expanding_ok=est.chi_plus >= threshold - 2.0 * est.se_plus,
        contracting_ok=est.chi_minus <= -threshold + 2.0 * est.se_minus,
        margin_plus=est.chi_plus - threshold,
        margin_minus=-threshold - est.chi_minus,
    )
