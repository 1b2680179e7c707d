"""Discrete energy seminorms for positive (1,1)-forms on affine chart grids.

An affine chart of the projective plane carries four real coordinates
(Re z1, Im z1, Re z2, Im z2); integrals are midpoint-rule sums over a
uniform box.  A (1,1)-form with continuous coefficients is sampled as a
field of Hermitian 2x2 matrices M through the convention

    T = i * sum_{j,k} M_jk dz_j ^ dz̄_k,

so the Euclidean Kähler form  dx1^dy1 + dx2^dy2  has constant matrix I/2.
With the conjugation operator d^c = i(d̄ - d) (hence dd^c u has matrix
2 H(u), where H(u)_jk = d²u/dz_j dz̄_k is the complex Hessian), the
top-degree densities per unit 4-volume are

    d(phi) ^ d^c(psi) ^ T   ->   8 Re< adj(M) grad(phi), grad(psi) >,
    beta ^ T                ->   2 tr(M),

where grad(phi) = (d(phi)/dz1, d(phi)/dz2), adj is the 2x2 adjugate and
beta denotes the Euclidean form.  Everything in this module reduces to
these two densities:

* ``energy`` -- the seminorm pairing  E_T(phi, psi) = int d(phi)^d^c(psi)^T;
* ``regularize`` -- the standard decreasing smooth approximants
  u_j = m(u + j) - j of a function with logarithmic poles;
* ``energy_monotonicity_check`` -- the two-sided comparison inequality for
  ordered smooth functions with bounded complex Hessian;
* ``cauchy_diagnostic`` -- pairwise seminorm distances |u_j - u_k|_T of a
  regularizing sequence, with a decay flag;
* ``pushforward_energy_check`` -- the change-of-variables identity
  relating |u ∘ f|_T on a source window to |u| against the pushed-forward
  form on the image window.

A ``ChartFunction`` is one callable: ``f(z1, z2)`` returns a ``Jet`` whose
value, gradient and optional complex Hessian come from one pass over the
nodes, and sums and scalar multiples act on jets.  A ``DiscreteForm11``
is likewise a closure giving its coefficients on given nodes.  Each check
evaluates each function and form it receives once on every node:
``energy`` and ``energy_monotonicity_check`` on the whole grid at once,
``cauchy_diagnostic`` and the change of variables one chunk of the grid
at a time, so that neither holds an array as large as its grid.  The
Green kernel is to enter the same way, as one jet of its value and
Wirtinger gradient (ROADMAP item 5).

The map's chart expression, its Jacobian and its target pivot coordinate
come from the stateless kernel ``maps.chart_map``, and chart points from
``maps.chart_embed``/``chart_coords``.  This module alone keeps guard
margins over the kernel's values: one guarded loop integrates both windows
of the change of variables, widens the extremes of |pivot| and |det J|
over each window's nodes and raises ``ChartMeetsExceptionalSet`` when it
degenerates.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .geometry import ProjectivePoint
from .maps import RationalSurfaceMap, chart_coords, chart_embed, chart_map

__all__ = [
    "EnergyError",
    "NonPositiveT",
    "PremiseViolated",
    "ChartMeetsExceptionalSet",
    "GridChart",
    "DiscreteForm11",
    "Jet",
    "ChartFunction",
    "EnergyComparisonReport",
    "CauchyDiagnostic",
    "PushforwardCheck",
    "constant_function",
    "coordinate_part",
    "log_distance",
    "smoothed_log_distance",
    "smoothed_log_form",
    "random_trig",
    "bump_function",
    "complex_hessian",
    "energy",
    "regularize",
    "energy_monotonicity_check",
    "cauchy_diagnostic",
    "pushforward_energy_check",
]

# node eigenvalues of a positive form may dip this far below zero by rounding
_POSITIVITY_TOL = 1e-12
# central-difference step of the numeric complex Hessian
_HESSIAN_STEP = 1e-5
# half-width of the band in which ``regularize`` smooths max(u, -j)
_SMOOTHING_WIDTH = 0.25
# a regularizing sequence decays when its last consecutive distance is at
# most this fraction of the first, or below the floor
_DECAY_FACTOR = 0.25
_DECAY_FLOOR = 1e-9
# change of variables: cutoff support as a fraction of the source box, and
# the margin of the target box around the cutoff's image
_WINDOW_SCALE = 0.6
_TARGET_PAD = 1.15


class EnergyError(Exception):
    """Base error for the discrete energy layer."""


class NonPositiveT(EnergyError):
    """A node matrix of a supposedly positive (1,1)-form has a negative
    eigenvalue beyond rounding tolerance."""


class PremiseViolated(EnergyError):
    """A hypothesis of the comparison inequality fails on the grid."""


class ChartMeetsExceptionalSet(EnergyError):
    """The integration window touches the indeterminacy or critical locus
    of the map (or its inverse), where the change of variables breaks."""


# ---------------------------------------------------------------------------
# grid charts
# ---------------------------------------------------------------------------


def _is_integer(value) -> bool:
    """An int or a numpy integer; ``True`` and ``False`` are not counts."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class GridChart:
    """Uniform midpoint grid on a box in an affine chart of the plane.

    ``chart`` names the homogeneous coordinate set to 1; the two remaining
    coordinates, in increasing index order, are the complex chart
    coordinates (z1, z2).  The box is centred at the chart coordinates of
    ``center`` with the same ``halfwidth`` along all four real axes and
    ``resolution`` cells per axis; nodes sit at cell centres.
    """

    center: ProjectivePoint
    chart: int = 2
    halfwidth: float = 1.0
    resolution: int = 24

    def __post_init__(self) -> None:
        if not _is_integer(self.chart) or not 0 <= self.chart <= 2:
            raise EnergyError("chart index must be 0, 1 or 2")
        if not _is_integer(self.resolution) or self.resolution < 8:
            raise EnergyError("grid resolution must be an integer >= 8")
        w = self.halfwidth
        if (not isinstance(w, numbers.Real) or isinstance(w, bool)
                or not math.isfinite(w) or not w > 0):
            raise EnergyError("grid halfwidth must be a finite real number > 0")
        coords = self.center.coords
        pivot = coords[self.chart]
        if self.center.exact:
            degenerate = pivot.is_zero()
        else:
            scale = max(abs(complex(c)) for c in coords)
            degenerate = abs(complex(pivot)) <= 1e-12 * scale
        if degenerate:
            raise EnergyError(
                "chart center lies on the line at infinity of its chart index"
            )

    @property
    def affine_center(self) -> tuple[complex, complex]:
        c1, c2 = chart_coords(self.chart, self.center.unit_vector())
        return complex(c1), complex(c2)

    @property
    def step(self) -> float:
        return 2.0 * self.halfwidth / self.resolution

    @property
    def cell_volume(self) -> float:
        return self.step**4

    @property
    def shape(self) -> tuple[int, int, int, int]:
        r = self.resolution
        return (r, r, r, r)

    def axis(self, i: int) -> np.ndarray:
        """Cell-centre coordinates of real axis i (0: Re z1, 1: Im z1,
        2: Re z2, 3: Im z2)."""
        c1, c2 = self.affine_center
        component = (c1.real, c1.imag, c2.real, c2.imag)[i]
        h = self.step
        return component - self.halfwidth + h * (np.arange(self.resolution) + 0.5)

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Complex node coordinates as broadcast-ready arrays of shapes
        (r, r, 1, 1) and (1, 1, r, r)."""
        ax0, ax1, ax2, ax3 = (self.axis(i) for i in range(4))
        z1 = ax0[:, None, None, None] + 1j * ax1[None, :, None, None]
        z2 = ax2[None, None, :, None] + 1j * ax3[None, None, None, :]
        return z1, z2

    def contains(self, c1: complex, c2: complex, pad: float) -> bool:
        a1, a2 = self.affine_center
        bound = self.halfwidth + pad
        return (
            abs(c1.real - a1.real) <= bound
            and abs(c1.imag - a1.imag) <= bound
            and abs(c2.real - a2.real) <= bound
            and abs(c2.imag - a2.imag) <= bound
        )


def _chunks(chart: GridChart):
    """The grid's nodes as r flat chunks of r^3 nodes, one per Re z1 node:
    the one chunk loop of the checks that do not hold the whole grid."""
    ax0 = chart.axis(0)
    y1g, x2g, y2g = np.meshgrid(chart.axis(1), chart.axis(2), chart.axis(3), indexing="ij")
    y1f = y1g.ravel()
    z2f = (x2g + 1j * y2g).ravel()
    for x1 in ax0:
        yield x1 + 1j * y1f, z2f


# ---------------------------------------------------------------------------
# (1,1)-forms as Hermitian matrix fields
# ---------------------------------------------------------------------------


def _min_eigenvalues(a, b, c) -> np.ndarray:
    """Smallest eigenvalue of each Hermitian node matrix [[a, b], [conj(b), c]]
    with a, c real."""
    mid = (a + c) / 2.0
    rad = np.sqrt(((a - c) / 2.0) ** 2 + np.abs(b) ** 2)
    return mid - rad


Form11Function = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]


@dataclass(frozen=True, eq=False)
class DiscreteForm11:
    """A (1,1)-form by its Hermitian coefficient closure: ``T(z1, z2)``
    returns (a, b, c) on the given nodes, the node matrix being
    [[a, b], [conj(b), c]] with a, c real.  A form holds no samples, so
    each check evaluates it on the nodes it is working on, chunk by chunk
    where the check walks its grid in chunks."""

    coefficients: Form11Function

    def __call__(self, z1: np.ndarray, z2: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        a, b, c = self.coefficients(z1, z2)
        return (
            np.asarray(a, dtype=np.float64),
            np.asarray(b, dtype=np.complex128),
            np.asarray(c, dtype=np.float64),
        )

    @classmethod
    def constant(cls, a: float, b: complex, c: float) -> "DiscreteForm11":
        coefficients = (np.float64(a), np.complex128(b), np.float64(c))
        return cls(lambda z1, z2: coefficients)

    @classmethod
    def euclidean(cls) -> "DiscreteForm11":
        """The Euclidean Kähler form dx1^dy1 + dx2^dy2 (matrix I/2)."""
        return cls.constant(0.5, 0.0, 0.5)

    def min_eigenvalue(self, z1: np.ndarray, z2: np.ndarray) -> float:
        """Smallest eigenvalue of the node matrices on (z1, z2)."""
        return float(np.min(_min_eigenvalues(*self(z1, z2))))


def _positive_coefficients(T: DiscreteForm11, z1: np.ndarray, z2: np.ndarray):
    """``T``'s coefficients on the nodes (z1, z2); raises ``NonPositiveT``
    when a node matrix has an eigenvalue below the rounding tolerance."""
    a, b, c = T(z1, z2)
    worst = float(np.min(_min_eigenvalues(a, b, c)))
    if worst < -_POSITIVITY_TOL:
        raise NonPositiveT(
            f"form has a node eigenvalue {worst:.3e} below -{_POSITIVITY_TOL:.0e}"
        )
    return a, b, c


def smoothed_log_form(a: Sequence[complex], s: float) -> Form11Function:
    """Coefficient closure of dd^c of the smoothed logarithm
    0.5*log(|z - a|^2 + s^2): a closed positive form concentrating at ``a``
    as s -> 0, whose local potential degenerates there."""
    a1 = complex(a[0])
    a2 = complex(a[1])
    s2 = float(s) ** 2

    def coefficients(z1: np.ndarray, z2: np.ndarray):
        w1 = z1 - a1
        w2 = z2 - a2
        m1 = np.abs(w1) ** 2
        m2 = np.abs(w2) ** 2
        den = (m1 + m2 + s2) ** 2
        return (m2 + s2) / den, -np.conj(w1) * w2 / den, (m1 + s2) / den

    return coefficients


# ---------------------------------------------------------------------------
# chart functions
# ---------------------------------------------------------------------------


class Jet(NamedTuple):
    """One evaluation of a real chart function on node arrays: the value,
    the Wirtinger derivatives d1 = d/dz1 and d2 = d/dz2, and (optionally)
    the complex Hessian entries (h11, h12, h22), h_jk = d²/dz_j dz̄_k."""

    value: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    hessian: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None


@dataclass(frozen=True)
class ChartFunction:
    """Real-valued function of the chart coordinates: ``f(z1, z2)`` returns
    its ``Jet`` on the nodes, computed in one pass."""

    jet: Callable[[np.ndarray, np.ndarray], Jet]

    def __call__(self, z1: np.ndarray, z2: np.ndarray) -> Jet:
        return self.jet(z1, z2)

    def __add__(self, other: "ChartFunction") -> "ChartFunction":
        if not isinstance(other, ChartFunction):
            return NotImplemented

        def jet(z1, z2):
            p, q = self(z1, z2), other(z1, z2)
            both = p.hessian is not None and q.hessian is not None
            hessian = tuple(x + y for x, y in zip(p.hessian, q.hessian)) if both else None
            return Jet(p.value + q.value, p.d1 + q.d1, p.d2 + q.d2, hessian)

        return ChartFunction(jet)

    def __mul__(self, scalar: float) -> "ChartFunction":
        if not isinstance(scalar, (int, float)):
            return NotImplemented
        s = float(scalar)

        def jet(z1, z2):
            p = self(z1, z2)
            hessian = None if p.hessian is None else tuple(s * h for h in p.hessian)
            return Jet(s * p.value, s * p.d1, s * p.d2, hessian)

        return ChartFunction(jet)

    __rmul__ = __mul__


_ZERO = np.complex128(0.0)
_FLAT = (_ZERO, _ZERO, _ZERO)


def constant_function(value: float) -> ChartFunction:
    jet = Jet(np.float64(float(value)), _ZERO, _ZERO, _FLAT)
    return ChartFunction(lambda z1, z2: jet)


def coordinate_part(variable: int, part: str) -> ChartFunction:
    """Re or Im of a chart coordinate (variable 1 or 2)."""
    if variable not in (1, 2):
        raise EnergyError("variable must be 1 or 2")
    if part not in ("re", "im"):
        raise EnergyError("part must be 're' or 'im'")
    wirt = np.complex128(0.5 if part == "re" else -0.5j)
    grad = (wirt, _ZERO) if variable == 1 else (_ZERO, wirt)

    def jet(z1, z2):
        z = z1 if variable == 1 else z2
        return Jet(np.real(z) if part == "re" else np.imag(z), *grad, _FLAT)

    return ChartFunction(jet)


def _log_distance(a: Sequence[complex], s2: float) -> ChartFunction:
    """0.5 * log(|z - a|^2 + s2) with its analytic gradient."""
    a1 = complex(a[0])
    a2 = complex(a[1])

    def jet(z1, z2):
        w1 = z1 - a1
        w2 = z2 - a2
        r2 = np.abs(w1) ** 2 + np.abs(w2) ** 2 + s2
        with np.errstate(divide="ignore", invalid="ignore"):
            return Jet(0.5 * np.log(r2), np.conj(w1) / (2.0 * r2), np.conj(w2) / (2.0 * r2))

    return ChartFunction(jet)


def log_distance(a: Sequence[complex]) -> ChartFunction:
    """u(z) = log |z - a| with its analytic gradient; -inf at z = a."""
    # adding s2 = 0.0 leaves the nonnegative r^2 bit for bit unchanged
    return _log_distance(a, 0.0)


def smoothed_log_distance(a: Sequence[complex], s: float) -> ChartFunction:
    """u_s(z) = 0.5 * log(|z - a|^2 + s^2), a smooth approximant of
    log |z - a| from above."""
    return _log_distance(a, float(s) ** 2)


def random_trig(seed: int, *, terms: int = 4, amplitude: float = 0.5) -> ChartFunction:
    """Seeded real trigonometric polynomial with |value| <= amplitude and
    analytic first and second Wirtinger derivatives."""
    rng = np.random.default_rng(seed)
    freqs = np.empty((terms, 4), dtype=np.int64)
    for row in range(terms):
        vec = rng.integers(-2, 3, size=4)
        while not vec.any():
            vec = rng.integers(-2, 3, size=4)
        freqs[row] = vec
    amps = amplitude * rng.uniform(0.3, 1.0, terms) * rng.choice((-1.0, 1.0), terms) / terms
    phases = rng.uniform(0.0, 2.0 * math.pi, terms)
    omega1 = freqs[:, 0] - 1j * freqs[:, 1]
    omega2 = freqs[:, 2] - 1j * freqs[:, 3]

    def jet(z1, z2):
        axes = (np.real(z1), np.imag(z1), np.real(z2), np.imag(z2))
        total = None
        for k in range(terms):
            angle = (
                freqs[k, 0] * axes[0]
                + freqs[k, 1] * axes[1]
                + freqs[k, 2] * axes[2]
                + freqs[k, 3] * axes[3]
                + phases[k]
            )
            cos = np.cos(angle)
            slope = -0.5 * amps[k] * np.sin(angle)
            curve = -0.25 * amps[k] * cos
            term = (
                amps[k] * cos,
                slope * omega1[k],
                slope * omega2[k],
                curve * abs(omega1[k]) ** 2,
                curve * omega1[k] * np.conj(omega2[k]),
                curve * abs(omega2[k]) ** 2,
            )
            total = term if total is None else tuple(s + t for s, t in zip(total, term))
        value, d1, d2, *hessian = total
        return Jet(value, d1, d2, tuple(hessian))

    return ChartFunction(jet)


def bump_function(center: Sequence[complex], widths: Sequence[float]) -> ChartFunction:
    """Smooth compactly supported bump: product over the four real axes of
    (1 - t^2)^3 on |t| < 1 with t the scaled offset."""
    c1 = complex(center[0])
    c2 = complex(center[1])
    offs = (c1.real, c1.imag, c2.real, c2.imag)
    w = tuple(float(x) for x in widths)
    if len(w) != 4 or min(w) <= 0:
        raise EnergyError("bump needs four positive axis widths")

    def jet(z1, z2):
        qs = []
        dqs = []
        for i, v in enumerate((np.real(z1), np.imag(z1), np.real(z2), np.imag(z2))):
            t = (v - offs[i]) / w[i]
            inside = np.abs(t) < 1.0
            base = np.where(inside, 1.0 - t**2, 0.0)
            qs.append(base**3)
            dqs.append(np.where(inside, -6.0 * t * base**2 / w[i], 0.0))

        def partial(i):
            out = dqs[i]
            for j in range(4):
                if j != i:
                    out = out * qs[j]
            return out

        return Jet(
            qs[0] * qs[1] * qs[2] * qs[3],
            0.5 * (partial(0) - 1j * partial(1)),
            0.5 * (partial(2) - 1j * partial(3)),
        )

    return ChartFunction(jet)


def _hessian_of(fn: ChartFunction, jet: Jet, z1: np.ndarray, z2: np.ndarray):
    """``complex_hessian`` of ``fn`` given its jet ``jet`` on (z1, z2)."""
    if jet.hessian is not None:
        return tuple(np.asarray(h) for h in jet.hessian)
    h = _HESSIAN_STEP
    shifts = (h, -h, 1j * h, -1j * h)
    at1 = [fn(z1 + s, z2) for s in shifts]
    at2 = [fn(z1, z2 + s) for s in shifts]

    def dbar(jets, grad):
        dx = (getattr(jets[0], grad) - getattr(jets[1], grad)) / (2 * h)
        dy = (getattr(jets[2], grad) - getattr(jets[3], grad)) / (2 * h)
        return 0.5 * (dx + 1j * dy)

    return dbar(at1, "d1"), dbar(at2, "d1"), dbar(at2, "d2")


def complex_hessian(
    fn: ChartFunction, z1: np.ndarray, z2: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Complex Hessian entries (h11, h12, h22) of a real chart function:
    the jet's analytic Hessian when it has one, otherwise central
    differences of the analytic gradient (d/dz̄ = (d/dx + i d/dy)/2 applied
    to d1, d2) from the jets at the 8 grids z1 ± h, z1 ± ih, z2 ± h, z2 ± ih."""
    return _hessian_of(fn, fn(z1, z2), z1, z2)


# ---------------------------------------------------------------------------
# the energy pairing
# ---------------------------------------------------------------------------


def _pairing_density(p1, p2, q1, q2, a, b, c):
    """4-volume density of d(phi)^d^c(psi)^T, symmetrized so that swapping
    (p, q) leaves the floating-point result bit-identical."""
    t1 = np.conj(q1) * (c * p1 - b * p2) + np.conj(q2) * (a * p2 - np.conj(b) * p1)
    t2 = np.conj(p1) * (c * q1 - b * q2) + np.conj(p2) * (a * q2 - np.conj(b) * q1)
    return 4.0 * (np.real(t1) + np.real(t2))


def _gradient(jet: Jet) -> tuple[np.ndarray, np.ndarray]:
    return np.asarray(jet.d1), np.asarray(jet.d2)


def _grid_energy(p, q, coefficients, chart: GridChart) -> float:
    """Midpoint-rule E_T from the node gradients p of phi and q of psi and
    the node coefficients of T."""
    density = _pairing_density(*p, *q, *coefficients)
    total = float(np.sum(np.broadcast_to(density, chart.shape)))
    return total * chart.cell_volume


def energy(
    phi: ChartFunction,
    T: DiscreteForm11,
    chart: GridChart,
    psi: Optional[ChartFunction] = None,
) -> float:
    """Midpoint-rule value of E_T(phi, psi) = int d(phi)^d^c(psi)^T over the
    chart box (psi defaults to phi)."""
    z1, z2 = chart.nodes()
    coefficients = _positive_coefficients(T, z1, z2)
    p = _gradient(phi(z1, z2))
    q = p if psi is None else _gradient(psi(z1, z2))
    return _grid_energy(p, q, coefficients, chart)


# ---------------------------------------------------------------------------
# two-sided comparison inequality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnergyComparisonReport:
    """Residuals of the ordered-pair energy comparison: with u <= v smooth
    and dd^c u, dd^c v >= -c*beta,

        E_T(u,v) - E_T(v,v) + c*int (v-u) beta^T  >= 0   (first residual)
        E_T(u,u) - E_T(u,v) + c*int (v-u) beta^T  >= 0   (second residual)

    up to discretization slack."""

    residuals: tuple[float, float]
    c: float
    comparison_mass: float
    premise_margin: float


def energy_monotonicity_check(
    u: ChartFunction,
    v: ChartFunction,
    T: DiscreteForm11,
    chart: GridChart,
    c: Optional[float] = None,
) -> EnergyComparisonReport:
    """Verify the premises u <= v and dd^c >= -c*beta on the grid and return
    both comparison residuals (each nonnegative up to quadrature slack).

    When ``c`` is omitted it is fitted as the smallest admissible bound for
    the two complex Hessians on the grid."""
    z1, z2 = chart.nodes()
    coefficients = _positive_coefficients(T, z1, z2)
    ju, jv = u(z1, z2), v(z1, z2)
    uu = np.asarray(ju.value, dtype=np.float64)
    vv = np.asarray(jv.value, dtype=np.float64)
    gap = vv - uu
    if float(np.min(gap)) < -1e-12:
        raise PremiseViolated("order premise u <= v fails on the grid")

    # dd^c has matrix 2 H; dd^c + c*beta >= 0 means eig_min(2H) + c/2 >= 0
    eig_u, eig_v = (
        2.0 * _min_eigenvalues(np.real(h11), h12, np.real(h22))
        for h11, h12, h22 in (_hessian_of(u, ju, z1, z2), _hessian_of(v, jv, z1, z2))
    )
    worst = float(min(np.min(eig_u), np.min(eig_v)))
    if c is None:
        c = max(0.0, -2.0 * worst) * (1.0 + 1e-9)
    margin = worst + c / 2.0
    if margin < -1e-10:
        raise PremiseViolated(
            f"Hessian premise dd^c >= -c*beta fails: margin {margin:.3e} with c={c:g}"
        )

    # beta ^ T has volume density 2 tr(M)
    ta, _, tc = coefficients
    mass_density = np.broadcast_to(np.asarray(gap * (2.0 * (ta + tc))), chart.shape)
    mass = float(np.sum(mass_density)) * chart.cell_volume

    gu, gv = _gradient(ju), _gradient(jv)
    e_uv = _grid_energy(gu, gv, coefficients, chart)
    e_vv = _grid_energy(gv, gv, coefficients, chart)
    e_uu = _grid_energy(gu, gu, coefficients, chart)
    first = e_uv - e_vv + c * mass
    second = e_uu - e_uv + c * mass
    return EnergyComparisonReport(
        residuals=(first, second),
        c=float(c),
        comparison_mass=mass,
        premise_margin=margin,
    )


# ---------------------------------------------------------------------------
# regularization and Cauchy behaviour
# ---------------------------------------------------------------------------


def _m_slope(t: np.ndarray, delta: float) -> np.ndarray:
    return np.clip((t + delta) / (2.0 * delta), 0.0, 1.0)


def regularize(u: ChartFunction, j: float, delta: float = _SMOOTHING_WIDTH) -> ChartFunction:
    """Level-j smooth majorant u_j = m(u + j) - j of a function with log
    poles: u_j = u where u >= -j + delta, u_j = -j where u <= -j - delta,
    and u_j decreases pointwise as j increases."""
    if delta <= 0:
        raise EnergyError("smoothing width must be positive")
    level = float(j)

    def jet(z1, z2):
        # m(u + j) - j with m the C^1 convex interpolation of max(0, t),
        # arranged so u_j equals u exactly above the band and -j below it;
        # the gradient is m'(u + j) grad(u)
        p = u(z1, z2)
        t = p.value + level
        slope = _m_slope(t, delta)
        with np.errstate(invalid="ignore", over="ignore"):
            band = (t + delta) ** 2 / (4.0 * delta) - level
            return Jet(
                np.where(t >= delta, p.value, np.where(t <= -delta, -level, band)),
                np.where(slope > 0.0, slope * p.d1, 0.0),
                np.where(slope > 0.0, slope * p.d2, 0.0),
            )

    return ChartFunction(jet)


@dataclass(frozen=True)
class CauchyDiagnostic:
    """Pairwise seminorm distances |u_j - u_k|_T of a regularizing sequence.

    ``decays`` records whether the consecutive distances fade along the
    level list (final entry below a fixed fraction of the first, or below
    the resolution floor): the signature of a Cauchy sequence."""

    levels: tuple[float, ...]
    matrix: np.ndarray = field(repr=False)
    seminorms: tuple[float, ...]
    consecutive: tuple[float, ...]
    decays: bool


def cauchy_diagnostic(
    u: ChartFunction,
    T: DiscreteForm11,
    chart: GridChart,
    levels: Iterable[float],
) -> CauchyDiagnostic:
    """Seminorm distance matrix of the regularized levels of ``u`` against
    ``T``.  Uses the chain rule grad(u_j) = m'(u + j) grad(u), so only one
    gradient field of ``u`` is ever evaluated.

    The grid is walked in the chunks of the change of variables: on each
    chunk ``u``'s jet and ``T``'s coefficients are evaluated once, ``T`` is
    checked positive (``NonPositiveT``), and the squared distances are
    summed into one level-by-level array, so no array spans the whole grid.
    Square roots are taken after the last chunk."""
    level_list = tuple(float(j) for j in levels)
    if len(level_list) < 2:
        raise EnergyError("need at least two levels")
    n = len(level_list)
    # squared seminorms on the diagonal, squared distances above it
    sums = np.zeros((n, n))
    for z1, z2 in _chunks(chart):
        a, b, c = _positive_coefficients(T, z1, z2)
        with np.errstate(divide="ignore", invalid="ignore"):
            ju = u(z1, z2)
            uval = np.broadcast_to(np.asarray(ju.value, dtype=np.float64), z1.shape)
            p1, p2 = _gradient(ju)
            density = np.broadcast_to(
                np.asarray(_pairing_density(p1, p2, p1, p2, a, b, c)), z1.shape
            )
        usable = np.isfinite(uval) & np.isfinite(density)
        density = np.where(usable, density, 0.0)
        weights = [_m_slope(uval + j, _SMOOTHING_WIDTH) for j in level_list]
        for i in range(n):
            sums[i, i] += float(np.sum(weights[i] ** 2 * density))
            for k in range(i + 1, n):
                sums[i, k] += float(np.sum((weights[i] - weights[k]) ** 2 * density))
    norms = np.sqrt(np.maximum(sums * chart.cell_volume, 0.0))
    upper = np.triu(norms, 1)
    matrix = upper + upper.T
    consecutive = tuple(float(matrix[i, i + 1]) for i in range(n - 1))
    decays = consecutive[-1] <= max(_DECAY_FACTOR * consecutive[0], _DECAY_FLOOR)
    return CauchyDiagnostic(
        levels=level_list,
        matrix=matrix,
        seminorms=tuple(float(x) for x in np.diag(norms)),
        consecutive=consecutive,
        decays=decays,
    )


# ---------------------------------------------------------------------------
# change of variables
# ---------------------------------------------------------------------------


def _widen(small: float, large: float, values) -> tuple[float, float]:
    """``(small, large)`` widened to cover the values that are not NaN.

    A NaN lane (a start that left the domain) says nothing about the
    window, but it turns the batch's ``np.min`` into NaN, which ``min``
    then drops along with every other lane.  An all-NaN batch leaves both
    as they were.
    """
    lo, hi = float(np.min(values)), float(np.max(values))
    if math.isnan(lo):
        values = np.asarray(values)
        values = values[~np.isnan(values)]
        if not values.size:
            return small, large
        lo, hi = float(np.min(values)), float(np.max(values))
    return min(small, lo), max(large, hi)


def _check_guards(denominator: tuple[float, float], jacobian: tuple[float, float]) -> None:
    """Raise when the (smallest, largest) |denominator| (the chart map's
    target pivot coordinate) or |det J| over a window's nodes shows it
    reaching the target chart's line at infinity or the critical set."""
    if denominator[0] < 1e-9 * max(denominator[1], 1e-300):
        raise ChartMeetsExceptionalSet(
            "image of the window degenerates toward the target chart's line at infinity"
        )
    if jacobian[0] < 1e-10 * max(jacobian[1], 1e-300):
        raise ChartMeetsExceptionalSet(
            "window meets the critical set: chart Jacobian degenerates"
        )


def _indeterminacy_in_box(f: RationalSurfaceMap, chart: GridChart) -> None:
    for p in f.indeterminacy_set():
        vec = p.unit_vector()
        if abs(vec[chart.chart]) <= 1e-12:
            continue  # on the line at infinity of this chart
        c1, c2 = (complex(c) for c in chart_coords(chart.chart, vec))
        if chart.contains(c1, c2, pad=chart.step):
            raise ChartMeetsExceptionalSet(
                f"indeterminacy point at chart coordinates ({c1:.4g}, {c2:.4g}) "
                "lies inside the integration window"
            )


def _critical_proxy_min(f: RationalSurfaceMap, hom, current: float) -> float:
    """Smallest normalized modulus of the critical-curve polynomials over
    the nodes; values near zero flag a window crossing the critical set."""
    norms = np.sqrt(
        np.abs(hom[0]) ** 2 + np.abs(np.asarray(hom[1], dtype=np.complex128)) ** 2 + np.abs(hom[2]) ** 2
    )
    smallest = current
    for poly, _mult in f.critical_set():
        scale = max(abs(complex(c)) for c in poly.terms.values()) if poly.terms else 0.0
        if scale == 0.0:
            continue
        vals = np.abs(poly.evaluate_numeric(hom)) / (scale * norms**poly.degree)
        smallest = min(smallest, float(np.min(vals)))
    return smallest


@dataclass(frozen=True)
class PushforwardCheck:
    """Both sides of the change-of-variables identity: the windowed energy
    of u ∘ f against T on the source box versus the energy of u against the
    pushed-forward form on the image box."""

    source_value: float
    target_value: float
    relative_discrepancy: float
    source_chart: GridChart
    target_chart: GridChart


def _window_integral(g: RationalSurfaceMap, window: GridChart, integrand, labels) -> float:
    """Midpoint sum over ``window`` of ``integrand(z1, z2, w1, w2, J)``, the
    node densities given the chunk's images under ``g`` and chart Jacobian:
    the one chunk loop of the change of variables.  After the loop it
    raises on the |pivot| and |det J| margins, then on the critical-set
    proxy, then on a non-finite integrand; ``labels`` (side, critical-set
    message) names the window in the last two errors."""
    side, near_critical = labels
    chart = window.chart
    total = 0.0
    crit_min = math.inf
    finite = True
    denominator = jacobian = (math.inf, 0.0)
    for z1, z2 in _chunks(window):
        w1, w2, J, D = chart_map(g, chart, chart, z1, z2)
        denominator = _widen(*denominator, np.abs(D))
        jacobian = _widen(*jacobian, np.abs(J[0][0] * J[1][1] - J[0][1] * J[1][0]))
        crit_min = _critical_proxy_min(g, chart_embed(chart, z1, z2), crit_min)
        density = np.broadcast_to(integrand(z1, z2, w1, w2, J), z1.shape)
        finite = finite and bool(np.all(np.isfinite(density)))
        total += float(np.sum(density))
    _check_guards(denominator, jacobian)
    if crit_min < 1e-2:
        raise ChartMeetsExceptionalSet(f"{near_critical} (normalized distance {crit_min:.2e})")
    if not finite:
        raise EnergyError(f"{side} integrand is not finite on the grid")
    return total * window.cell_volume


_SOURCE = ("source", "window approaches the critical set")
_TARGET = ("target", "image window approaches the inverse critical set")


def pushforward_energy_check(
    u: ChartFunction,
    f: RationalSurfaceMap,
    T: DiscreteForm11,
    source_chart: GridChart,
    *,
    target_resolution: Optional[int] = None,
) -> PushforwardCheck:
    """Dual-route seminorm check across a biholomorphic window of ``f``.

    ``T`` is evaluated on the source nodes and, for the pushed-forward
    form, on the preimages of the target nodes.  Both windows lie in the
    source box's chart.  A smooth cutoff supported on ``_WINDOW_SCALE``
    times the source box weights both integrals; the identity is exact in
    the continuum, so the relative discrepancy measures pure quadrature
    error.  Raises ``ChartMeetsExceptionalSet`` when the window or its
    image touches the indeterminacy or critical loci, where the premises
    fail.
    """
    if f.inverse is None:
        raise EnergyError("map has no attached inverse; the target-side integral needs one")
    if not isinstance(T, DiscreteForm11):
        raise EnergyError("T must be a DiscreteForm11")
    chart = source_chart.chart

    _indeterminacy_in_box(f, source_chart)

    # numeric roundtrip sanity of the attached inverse near the window
    c1, c2 = source_chart.affine_center
    probe1 = np.array([c1 + 0.37 * source_chart.halfwidth])
    probe2 = np.array([c2 + 0.23 * source_chart.halfwidth])
    w1p, w2p, _, _ = chart_map(f, chart, chart, probe1, probe2)
    s1p, s2p, _, _ = chart_map(f.inverse, chart, chart, w1p, w2p)
    if np.all(np.isfinite([s1p[0], s2p[0]])):
        err = abs(s1p[0] - probe1[0]) + abs(s2p[0] - probe2[0])
        if err > 1e-6 * (1.0 + abs(probe1[0]) + abs(probe2[0])):
            raise EnergyError("attached inverse fails a numeric roundtrip near the window")

    chi = bump_function((c1, c2), (_WINDOW_SCALE * source_chart.halfwidth,) * 4)
    box_lo = np.full(4, math.inf)
    box_hi = np.full(4, -math.inf)

    def source_density(z1, z2, w1, w2, J):
        # |u ∘ f| against T, and the box that the cutoff's image fills
        chiv = np.asarray(chi(z1, z2).value)
        u1, u2 = _gradient(u(w1, w2))
        g1 = J[0][0] * u1 + J[1][0] * u2
        g2 = J[0][1] * u1 + J[1][1] * u2
        density = _pairing_density(g1, g2, g1, g2, *T(z1, z2)) * chiv
        mask = np.broadcast_to(chiv, z1.shape) > 1e-9
        if mask.any():
            w1b = np.broadcast_to(np.asarray(w1), z1.shape)[mask]
            w2b = np.broadcast_to(np.asarray(w2), z1.shape)[mask]
            for axis, vals in enumerate((w1b.real, w1b.imag, w2b.real, w2b.imag)):
                box_lo[axis] = min(box_lo[axis], float(vals.min()))
                box_hi[axis] = max(box_hi[axis], float(vals.max()))
        return density

    source_value = _window_integral(f, source_chart, source_density, _SOURCE)
    if not np.all(np.isfinite(box_lo)):
        raise EnergyError("cutoff support is empty on the source grid")

    mids = (box_lo + box_hi) / 2.0
    halfwidth = float(max((box_hi - box_lo) / 2.0)) * _TARGET_PAD
    target_chart = GridChart(
        center=ProjectivePoint.numeric_point(
            *chart_embed(chart, mids[0] + 1j * mids[1], mids[2] + 1j * mids[3])
        ),
        chart=chart,
        halfwidth=halfwidth,
        resolution=source_chart.resolution if target_resolution is None else target_resolution,
    )
    _indeterminacy_in_box(f.inverse, target_chart)

    def target_density(y1, y2, s1, s2, K):
        # |u| against the pushforward of T: matrix K^T M(s) conj(K)
        chiv = np.asarray(chi(s1, s2).value)
        a, b, c = T(s1, s2)
        k11, k12 = K[0][0], K[0][1]
        k21, k22 = K[1][0], K[1][1]
        col1_1 = a * np.conj(k11) + b * np.conj(k21)
        col1_2 = np.conj(b) * np.conj(k11) + c * np.conj(k21)
        col2_1 = a * np.conj(k12) + b * np.conj(k22)
        col2_2 = np.conj(b) * np.conj(k12) + c * np.conj(k22)
        m_a = np.real(k11 * col1_1 + k21 * col1_2)
        m_b = k11 * col2_1 + k21 * col2_2
        m_c = np.real(k12 * col2_1 + k22 * col2_2)
        u1, u2 = _gradient(u(y1, y2))
        return _pairing_density(u1, u2, u1, u2, m_a, m_b, m_c) * chiv

    target_value = _window_integral(f.inverse, target_chart, target_density, _TARGET)

    gap = abs(source_value - target_value)
    scale = max(abs(source_value), abs(target_value), 1e-300)
    return PushforwardCheck(
        source_value=source_value,
        target_value=target_value,
        relative_discrepancy=gap / scale,
        source_chart=source_chart,
        target_chart=target_chart,
    )
