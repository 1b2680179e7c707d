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

The map's chart expression and its Jacobian come from ``maps.ChartMap``
and chart points from ``maps.chart_embed``/``chart_coords``; this module
reads the kernel's guard margins and raises ``ChartMeetsExceptionalSet``
when a window degenerates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .geometry import ProjectivePoint
from .maps import ChartMap, RationalSurfaceMap, chart_coords, chart_embed

__all__ = [
    "EnergyError",
    "NonPositiveT",
    "PremiseViolated",
    "ChartMeetsExceptionalSet",
    "GridChart",
    "DiscreteForm11",
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
        if not 0 <= self.chart <= 2:
            raise EnergyError("chart index must be 0, 1 or 2")
        if int(self.resolution) != self.resolution or self.resolution < 8:
            raise EnergyError("grid resolution must be an integer >= 8")
        if not self.halfwidth > 0:
            raise EnergyError("grid halfwidth must be positive")
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

    def contains(self, c1: complex, c2: complex, pad: float = 1e-12) -> bool:
        a1, a2 = self.affine_center
        bound = self.halfwidth + pad
        return (
            abs(c1.real - a1.real) <= bound
            and abs(c1.imag - a1.imag) <= bound
            and abs(c2.real - a2.real) <= bound
            and abs(c2.imag - a2.imag) <= bound
        )


# ---------------------------------------------------------------------------
# (1,1)-forms as Hermitian matrix fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DiscreteForm11:
    """Hermitian coefficient field (a, b, c) of a (1,1)-form: the node
    matrix is [[a, b], [conj(b), c]] with a, c real."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", np.asarray(self.a, dtype=np.float64))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=np.complex128))
        object.__setattr__(self, "c", np.asarray(self.c, dtype=np.float64))

    @classmethod
    def constant(cls, a: float, b: complex, c: float) -> "DiscreteForm11":
        return cls(np.float64(a), np.complex128(b), np.float64(c))

    @classmethod
    def euclidean(cls) -> "DiscreteForm11":
        """The Euclidean Kähler form dx1^dy1 + dx2^dy2 (matrix I/2)."""
        return cls.constant(0.5, 0.0, 0.5)

    @classmethod
    def from_function(cls, chart: GridChart, fn) -> "DiscreteForm11":
        z1, z2 = chart.nodes()
        a, b, c = fn(z1, z2)
        return cls(a, b, c)

    def min_eigenvalue(self) -> float:
        mid = (self.a + self.c) / 2.0
        rad = np.sqrt(((self.a - self.c) / 2.0) ** 2 + np.abs(self.b) ** 2)
        return float(np.min(mid - rad))

    def require_positive(self, tol: float = 1e-12) -> None:
        worst = self.min_eigenvalue()
        if worst < -tol:
            raise NonPositiveT(
                f"form has a node eigenvalue {worst:.3e} below -{tol:.0e}"
            )

    def mass_density(self) -> np.ndarray:
        """Volume density of beta ^ T per unit 4-volume: 2 tr(M)."""
        return 2.0 * (self.a + self.c)


Form11Function = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]


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

ValueFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ChartFunction:
    """Real-valued function of the chart coordinates with analytic Wirtinger
    derivatives d1 = d/dz1 and d2 = d/dz2, and (optionally) the complex
    Hessian entries h_jk = d²/dz_j dz̄_k."""

    value: ValueFn
    d1: ValueFn
    d2: ValueFn
    h11: Optional[ValueFn] = None
    h12: Optional[ValueFn] = None
    h22: Optional[ValueFn] = None

    def has_hessian(self) -> bool:
        return self.h11 is not None and self.h12 is not None and self.h22 is not None

    def __add__(self, other: "ChartFunction") -> "ChartFunction":
        if not isinstance(other, ChartFunction):
            return NotImplemented
        both_hessian = self.has_hessian() and other.has_hessian()
        return ChartFunction(
            value=lambda z1, z2: self.value(z1, z2) + other.value(z1, z2),
            d1=lambda z1, z2: self.d1(z1, z2) + other.d1(z1, z2),
            d2=lambda z1, z2: self.d2(z1, z2) + other.d2(z1, z2),
            h11=(lambda z1, z2: self.h11(z1, z2) + other.h11(z1, z2)) if both_hessian else None,
            h12=(lambda z1, z2: self.h12(z1, z2) + other.h12(z1, z2)) if both_hessian else None,
            h22=(lambda z1, z2: self.h22(z1, z2) + other.h22(z1, z2)) if both_hessian else None,
        )

    def __mul__(self, scalar: float) -> "ChartFunction":
        if not isinstance(scalar, (int, float)):
            return NotImplemented
        s = float(scalar)
        has_h = self.has_hessian()
        return ChartFunction(
            value=lambda z1, z2: s * self.value(z1, z2),
            d1=lambda z1, z2: s * self.d1(z1, z2),
            d2=lambda z1, z2: s * self.d2(z1, z2),
            h11=(lambda z1, z2: s * self.h11(z1, z2)) if has_h else None,
            h12=(lambda z1, z2: s * self.h12(z1, z2)) if has_h else None,
            h22=(lambda z1, z2: s * self.h22(z1, z2)) if has_h else None,
        )

    __rmul__ = __mul__

    def __neg__(self) -> "ChartFunction":
        return self * (-1.0)

    def __sub__(self, other: "ChartFunction") -> "ChartFunction":
        return self + (other * (-1.0))


def _zero(z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    return np.complex128(0.0)


def constant_function(value: float) -> ChartFunction:
    v = float(value)
    return ChartFunction(
        value=lambda z1, z2: np.float64(v),
        d1=_zero,
        d2=_zero,
        h11=_zero,
        h12=_zero,
        h22=_zero,
    )


def coordinate_part(variable: int, part: str) -> ChartFunction:
    """Re or Im of a chart coordinate (variable 1 or 2)."""
    if variable not in (1, 2):
        raise EnergyError("variable must be 1 or 2")
    if part not in ("re", "im"):
        raise EnergyError("part must be 're' or 'im'")
    wirt = np.complex128(0.5 if part == "re" else -0.5j)

    def value(z1, z2):
        z = z1 if variable == 1 else z2
        return np.real(z) if part == "re" else np.imag(z)

    grad = lambda z1, z2: wirt  # noqa: E731 - constant Wirtinger derivative
    return ChartFunction(
        value=value,
        d1=grad if variable == 1 else _zero,
        d2=grad if variable == 2 else _zero,
        h11=_zero,
        h12=_zero,
        h22=_zero,
    )


def log_distance(a: Sequence[complex]) -> ChartFunction:
    """u(z) = log |z - a| with its analytic gradient; -inf at z = a."""
    a1 = complex(a[0])
    a2 = complex(a[1])

    def parts(z1, z2):
        w1 = z1 - a1
        w2 = z2 - a2
        return w1, w2, np.abs(w1) ** 2 + np.abs(w2) ** 2

    def value(z1, z2):
        _, _, r2 = parts(z1, z2)
        with np.errstate(divide="ignore"):
            return 0.5 * np.log(r2)

    def d1(z1, z2):
        w1, _, r2 = parts(z1, z2)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.conj(w1) / (2.0 * r2)

    def d2(z1, z2):
        _, w2, r2 = parts(z1, z2)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.conj(w2) / (2.0 * r2)

    return ChartFunction(value=value, d1=d1, d2=d2)


def smoothed_log_distance(a: Sequence[complex], s: float) -> ChartFunction:
    """u_s(z) = 0.5 * log(|z - a|^2 + s^2), a smooth approximant of
    log |z - a| from above."""
    a1 = complex(a[0])
    a2 = complex(a[1])
    s2 = float(s) ** 2

    def parts(z1, z2):
        w1 = z1 - a1
        w2 = z2 - a2
        return w1, w2, np.abs(w1) ** 2 + np.abs(w2) ** 2 + s2

    return ChartFunction(
        value=lambda z1, z2: 0.5 * np.log(parts(z1, z2)[2]),
        d1=lambda z1, z2: np.conj(parts(z1, z2)[0]) / (2.0 * parts(z1, z2)[2]),
        d2=lambda z1, z2: np.conj(parts(z1, z2)[1]) / (2.0 * parts(z1, z2)[2]),
    )


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

    def angles(z1, z2, k):
        return (
            freqs[k, 0] * np.real(z1)
            + freqs[k, 1] * np.imag(z1)
            + freqs[k, 2] * np.real(z2)
            + freqs[k, 3] * np.imag(z2)
            + phases[k]
        )

    def accumulate(z1, z2, weight):
        total = None
        for k in range(terms):
            term = weight(k, angles(z1, z2, k))
            total = term if total is None else total + term
        return total

    return ChartFunction(
        value=lambda z1, z2: accumulate(z1, z2, lambda k, a: amps[k] * np.cos(a)),
        d1=lambda z1, z2: accumulate(
            z1, z2, lambda k, a: -0.5 * amps[k] * np.sin(a) * omega1[k]
        ),
        d2=lambda z1, z2: accumulate(
            z1, z2, lambda k, a: -0.5 * amps[k] * np.sin(a) * omega2[k]
        ),
        h11=lambda z1, z2: accumulate(
            z1, z2, lambda k, a: -0.25 * amps[k] * np.cos(a) * abs(omega1[k]) ** 2
        ),
        h12=lambda z1, z2: accumulate(
            z1, z2, lambda k, a: -0.25 * amps[k] * np.cos(a) * omega1[k] * np.conj(omega2[k])
        ),
        h22=lambda z1, z2: accumulate(
            z1, z2, lambda k, a: -0.25 * amps[k] * np.cos(a) * abs(omega2[k]) ** 2
        ),
    )


def bump_function(center: Sequence[complex], widths: Sequence[float]) -> ChartFunction:
    """Smooth compactly supported bump: product over the four real axes of
    (1 - t^2)^3 on |t| < 1 with t the scaled offset."""
    c1 = complex(center[0])
    c2 = complex(center[1])
    offs = (c1.real, c1.imag, c2.real, c2.imag)
    w = tuple(float(x) for x in widths)
    if len(w) != 4 or min(w) <= 0:
        raise EnergyError("bump needs four positive axis widths")

    def axes(z1, z2):
        return (np.real(z1), np.imag(z1), np.real(z2), np.imag(z2))

    def q_parts(z1, z2):
        qs = []
        dqs = []
        for i, v in enumerate(axes(z1, z2)):
            t = (v - offs[i]) / w[i]
            inside = np.abs(t) < 1.0
            base = np.where(inside, 1.0 - t**2, 0.0)
            qs.append(base**3)
            dqs.append(np.where(inside, -6.0 * t * base**2 / w[i], 0.0))
        return qs, dqs

    def value(z1, z2):
        qs, _ = q_parts(z1, z2)
        return qs[0] * qs[1] * qs[2] * qs[3]

    def partial(qs, dqs, i):
        out = dqs[i]
        for j in range(4):
            if j != i:
                out = out * qs[j]
        return out

    def d1(z1, z2):
        qs, dqs = q_parts(z1, z2)
        return 0.5 * (partial(qs, dqs, 0) - 1j * partial(qs, dqs, 1))

    def d2(z1, z2):
        qs, dqs = q_parts(z1, z2)
        return 0.5 * (partial(qs, dqs, 2) - 1j * partial(qs, dqs, 3))

    return ChartFunction(value=value, d1=d1, d2=d2)


def complex_hessian(
    fn: ChartFunction, z1: np.ndarray, z2: np.ndarray, step: float = 1e-5
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Complex Hessian entries (h11, h12, h22) of a real chart function:
    analytic closures when available, otherwise central differences of the
    analytic gradient (d/dz̄ = (d/dx + i d/dy)/2 applied to d1, d2)."""
    if fn.has_hessian():
        return (
            np.asarray(fn.h11(z1, z2)),
            np.asarray(fn.h12(z1, z2)),
            np.asarray(fn.h22(z1, z2)),
        )

    def dbar(closure, var):
        if var == 1:
            dx = (closure(z1 + step, z2) - closure(z1 - step, z2)) / (2 * step)
            dy = (closure(z1 + 1j * step, z2) - closure(z1 - 1j * step, z2)) / (2 * step)
        else:
            dx = (closure(z1, z2 + step) - closure(z1, z2 - step)) / (2 * step)
            dy = (closure(z1, z2 + 1j * step) - closure(z1, z2 - 1j * step)) / (2 * step)
        return 0.5 * (dx + 1j * dy)

    return dbar(fn.d1, 1), dbar(fn.d1, 2), dbar(fn.d2, 2)


# ---------------------------------------------------------------------------
# the energy pairing
# ---------------------------------------------------------------------------


def _pairing_density(p1, p2, q1, q2, a, b, c):
    """4-volume density of d(phi)^d^c(psi)^T, symmetrized so that swapping
    (p, q) leaves the floating-point result bit-identical."""
    t1 = np.conj(q1) * (c * p1 - b * p2) + np.conj(q2) * (a * p2 - np.conj(b) * p1)
    t2 = np.conj(p1) * (c * q1 - b * q2) + np.conj(p2) * (a * q2 - np.conj(b) * q1)
    return 4.0 * (np.real(t1) + np.real(t2))


def energy(
    phi: ChartFunction,
    T: DiscreteForm11,
    chart: GridChart,
    psi: Optional[ChartFunction] = None,
) -> float:
    """Midpoint-rule value of E_T(phi, psi) = int d(phi)^d^c(psi)^T over the
    chart box (psi defaults to phi)."""
    T.require_positive()
    z1, z2 = chart.nodes()
    p1 = np.asarray(phi.d1(z1, z2))
    p2 = np.asarray(phi.d2(z1, z2))
    if psi is None:
        q1, q2 = p1, p2
    else:
        q1 = np.asarray(psi.d1(z1, z2))
        q2 = np.asarray(psi.d2(z1, z2))
    density = _pairing_density(p1, p2, q1, q2, T.a, T.b, T.c)
    total = float(np.sum(np.broadcast_to(density, chart.shape)))
    return total * chart.cell_volume


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


def _hessian_min_eig(h11, h12, h22) -> np.ndarray:
    ha = np.real(h11)
    hc = np.real(h22)
    mid = (ha + hc) / 2.0
    rad = np.sqrt(((ha - hc) / 2.0) ** 2 + np.abs(h12) ** 2)
    return mid - rad


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
    T.require_positive()
    z1, z2 = chart.nodes()
    uu = np.asarray(u.value(z1, z2), dtype=np.float64)
    vv = np.asarray(v.value(z1, z2), dtype=np.float64)
    gap = vv - uu
    if float(np.min(gap)) < -1e-12:
        raise PremiseViolated("order premise u <= v fails on the grid")

    # dd^c has matrix 2 H; dd^c + c*beta >= 0 means eig_min(2H) + c/2 >= 0
    eig_u = 2.0 * _hessian_min_eig(*complex_hessian(u, z1, z2))
    eig_v = 2.0 * _hessian_min_eig(*complex_hessian(v, z1, z2))
    worst = float(min(np.min(eig_u), np.min(eig_v)))
    if c is None:
        c = max(0.0, -2.0 * worst) * (1.0 + 1e-9)
    margin = worst + c / 2.0
    if margin < -1e-10:
        raise PremiseViolated(
            f"Hessian premise dd^c >= -c*beta fails: margin {margin:.3e} with c={c:g}"
        )

    mass_density = np.broadcast_to(np.asarray(gap * T.mass_density()), chart.shape)
    mass = float(np.sum(mass_density)) * chart.cell_volume

    e_uv = energy(u, T, chart, psi=v)
    e_vv = energy(v, T, chart)
    e_uu = energy(u, T, chart)
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


def regularize(u: ChartFunction, j: float, delta: float = 0.25) -> ChartFunction:
    """Level-j smooth majorant u_j = m(u + j) - j of a function with log
    poles: u_j = u where u >= -j + delta, u_j = -j where u <= -j - delta,
    and u_j decreases pointwise as j increases."""
    if delta <= 0:
        raise EnergyError("smoothing width must be positive")
    level = float(j)

    def value(z1, z2):
        # m(u + j) - j with m the C^1 convex interpolation of max(0, t),
        # arranged so u_j equals u exactly above the band and -j below it
        raw = u.value(z1, z2)
        t = raw + level
        with np.errstate(invalid="ignore", over="ignore"):
            band = (t + delta) ** 2 / (4.0 * delta) - level
            return np.where(t >= delta, raw, np.where(t <= -delta, -level, band))

    def damp(closure):
        def wrapped(z1, z2):
            slope = _m_slope(u.value(z1, z2) + level, delta)
            with np.errstate(invalid="ignore", over="ignore"):
                return np.where(slope > 0.0, slope * closure(z1, z2), 0.0)

        return wrapped

    return ChartFunction(value=value, d1=damp(u.d1), d2=damp(u.d2))


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
    delta: float = 0.25,
    decay_factor: float = 0.25,
    floor: float = 1e-9,
) -> CauchyDiagnostic:
    """Seminorm distance matrix of the regularized levels of ``u`` against
    ``T``.  Uses the chain rule grad(u_j) = m'(u + j) grad(u), so only one
    gradient field of ``u`` is ever evaluated."""
    T.require_positive()
    level_list = tuple(float(j) for j in levels)
    if len(level_list) < 2:
        raise EnergyError("need at least two levels")
    z1, z2 = chart.nodes()
    with np.errstate(divide="ignore", invalid="ignore"):
        uval = np.broadcast_to(
            np.asarray(u.value(z1, z2), dtype=np.float64), chart.shape
        )
        p1 = np.asarray(u.d1(z1, z2))
        p2 = np.asarray(u.d2(z1, z2))
        density = np.broadcast_to(
            np.asarray(_pairing_density(p1, p2, p1, p2, T.a, T.b, T.c)), chart.shape
        )
    usable = np.isfinite(uval) & np.isfinite(density)
    density = np.where(usable, density, 0.0)

    weights = [_m_slope(uval + j, delta) for j in level_list]
    vol = chart.cell_volume
    n = len(level_list)
    matrix = np.zeros((n, n))
    seminorms = []
    for i in range(n):
        seminorms.append(math.sqrt(max(float(np.sum(weights[i] ** 2 * density)) * vol, 0.0)))
        for k in range(i + 1, n):
            diff = weights[i] - weights[k]
            val = math.sqrt(max(float(np.sum(diff**2 * density)) * vol, 0.0))
            matrix[i, k] = matrix[k, i] = val
    consecutive = tuple(float(matrix[i, i + 1]) for i in range(n - 1))
    decays = consecutive[-1] <= max(decay_factor * consecutive[0], floor)
    return CauchyDiagnostic(
        levels=level_list,
        matrix=matrix,
        seminorms=tuple(seminorms),
        consecutive=consecutive,
        decays=decays,
    )


# ---------------------------------------------------------------------------
# change of variables
# ---------------------------------------------------------------------------


def _coeff_scale(poly) -> float:
    return max(abs(complex(c)) for c in poly.terms.values()) if poly.terms else 0.0


def _check_guards(chart_map: ChartMap) -> None:
    """Raise when the margins seen by a chart map show its window
    reaching the target chart's line at infinity or the critical set."""
    if chart_map.denominator_small < 1e-9 * max(chart_map.denominator_large, 1e-300):
        raise ChartMeetsExceptionalSet(
            "image of the window degenerates toward the target chart's line at infinity"
        )
    if chart_map.jacobian_small < 1e-10 * max(chart_map.jacobian_large, 1e-300):
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
        scale = _coeff_scale(poly)
        if scale == 0.0:
            continue
        vals = np.abs(poly.evaluate_numeric(hom)) / (scale * norms**poly.degree)
        smallest = min(smallest, float(np.min(vals)))
    return smallest


def _chunks(chart: GridChart):
    ax0 = chart.axis(0)
    y1g, x2g, y2g = np.meshgrid(chart.axis(1), chart.axis(2), chart.axis(3), indexing="ij")
    y1f = y1g.ravel()
    z2f = (x2g + 1j * y2g).ravel()
    for x1 in ax0:
        yield x1 + 1j * y1f, z2f


def _as_form_function(T) -> Form11Function:
    if callable(T):
        return T
    if isinstance(T, DiscreteForm11):
        if T.a.ndim == 0 and T.b.ndim == 0 and T.c.ndim == 0:
            a, b, c = T.a, T.b, T.c
            return lambda z1, z2: (a, b, c)
        raise EnergyError(
            "change-of-variables checks need the form as constants or a closure, "
            "not node samples tied to one grid"
        )
    raise EnergyError("T must be a DiscreteForm11 or a coefficient closure")


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


def pushforward_energy_check(
    u: ChartFunction,
    f: RationalSurfaceMap,
    T,
    source_chart: GridChart,
    *,
    window_scale: float = 0.6,
    pad: float = 1.15,
    target_chart_index: Optional[int] = None,
    target_resolution: Optional[int] = None,
) -> PushforwardCheck:
    """Dual-route seminorm check across a biholomorphic window of ``f``.

    A smooth cutoff supported on ``window_scale`` times the source box
    weights both integrals; the identity is exact in the continuum, so the
    relative discrepancy measures pure quadrature error.  Raises
    ``ChartMeetsExceptionalSet`` when the window or its image touches the
    indeterminacy or critical loci, where the premises fail.
    """
    if f.inverse is None:
        raise EnergyError("map has no attached inverse; the target-side integral needs one")
    t_fn = _as_form_function(T)
    chart_in = source_chart.chart
    chart_out = chart_in if target_chart_index is None else target_chart_index

    _indeterminacy_in_box(f, source_chart)

    forward = ChartMap(f, chart_in, chart_out)

    # numeric roundtrip sanity of the attached inverse near the window
    c1, c2 = source_chart.affine_center
    probe1 = np.array([c1 + 0.37 * source_chart.halfwidth])
    probe2 = np.array([c2 + 0.23 * source_chart.halfwidth])
    w1p, w2p, _ = forward(probe1, probe2)
    backward_probe = ChartMap(f.inverse, chart_out, chart_in)
    s1p, s2p, _ = backward_probe(w1p, w2p)
    if np.all(np.isfinite([s1p[0], s2p[0]])):
        err = abs(s1p[0] - probe1[0]) + abs(s2p[0] - probe2[0])
        if err > 1e-6 * (1.0 + abs(probe1[0]) + abs(probe2[0])):
            raise EnergyError("attached inverse fails a numeric roundtrip near the window")

    sc1, sc2 = source_chart.affine_center
    widths = (window_scale * source_chart.halfwidth,) * 4
    chi = bump_function((sc1, sc2), widths)

    source_sum = 0.0
    crit_min = math.inf
    finite = True
    box_lo = np.full(4, math.inf)
    box_hi = np.full(4, -math.inf)
    for z1c, z2c in _chunks(source_chart):
        w1, w2, J = forward(z1c, z2c)
        crit_min = _critical_proxy_min(f, chart_embed(chart_in, z1c, z2c), crit_min)
        chiv = np.asarray(chi.value(z1c, z2c))
        u1 = np.asarray(u.d1(w1, w2))
        u2 = np.asarray(u.d2(w1, w2))
        g1 = J[0][0] * u1 + J[1][0] * u2
        g2 = J[0][1] * u1 + J[1][1] * u2
        a, b, c = t_fn(z1c, z2c)
        density = _pairing_density(g1, g2, g1, g2, a, b, c) * chiv
        density = np.broadcast_to(density, z1c.shape)
        finite = finite and bool(np.all(np.isfinite(density)))
        source_sum += float(np.sum(density))
        mask = np.broadcast_to(chiv, z1c.shape) > 1e-9
        if mask.any():
            w1b = np.broadcast_to(np.asarray(w1), z1c.shape)[mask]
            w2b = np.broadcast_to(np.asarray(w2), z1c.shape)[mask]
            for axis, vals in enumerate((w1b.real, w1b.imag, w2b.real, w2b.imag)):
                box_lo[axis] = min(box_lo[axis], float(vals.min()))
                box_hi[axis] = max(box_hi[axis], float(vals.max()))
    _check_guards(forward)
    if crit_min < 1e-2:
        raise ChartMeetsExceptionalSet(
            f"window approaches the critical set (normalized distance {crit_min:.2e})"
        )
    if not finite:
        raise EnergyError("source integrand is not finite on the grid")
    if not np.all(np.isfinite(box_lo)):
        raise EnergyError("cutoff support is empty on the source grid")
    source_value = source_sum * source_chart.cell_volume

    mids = (box_lo + box_hi) / 2.0
    halfwidth = float(max((box_hi - box_lo) / 2.0)) * pad
    target_chart = GridChart(
        center=ProjectivePoint.numeric_point(
            *chart_embed(chart_out, mids[0] + 1j * mids[1], mids[2] + 1j * mids[3])
        ),
        chart=chart_out,
        halfwidth=halfwidth,
        resolution=target_resolution or source_chart.resolution,
    )
    _indeterminacy_in_box(f.inverse, target_chart)

    backward = ChartMap(f.inverse, chart_out, chart_in)
    target_sum = 0.0
    crit_min_back = math.inf
    finite = True
    for y1c, y2c in _chunks(target_chart):
        s1, s2, K = backward(y1c, y2c)
        crit_min_back = _critical_proxy_min(
            f.inverse, chart_embed(chart_out, y1c, y2c), crit_min_back
        )
        chiv = np.asarray(chi.value(s1, s2))
        a, b, c = t_fn(s1, s2)
        # pushforward of T: matrix K^T M(s) conj(K) in target coordinates
        k11, k12 = K[0][0], K[0][1]
        k21, k22 = K[1][0], K[1][1]
        col1_1 = a * np.conj(k11) + b * np.conj(k21)
        col1_2 = np.conj(b) * np.conj(k11) + c * np.conj(k21)
        col2_1 = a * np.conj(k12) + b * np.conj(k22)
        col2_2 = np.conj(b) * np.conj(k12) + c * np.conj(k22)
        m_a = np.real(k11 * col1_1 + k21 * col1_2)
        m_b = k11 * col2_1 + k21 * col2_2
        m_c = np.real(k12 * col2_1 + k22 * col2_2)
        u1 = np.asarray(u.d1(y1c, y2c))
        u2 = np.asarray(u.d2(y1c, y2c))
        density = _pairing_density(u1, u2, u1, u2, m_a, m_b, m_c) * chiv
        density = np.broadcast_to(density, y1c.shape)
        finite = finite and bool(np.all(np.isfinite(density)))
        target_sum += float(np.sum(density))
    _check_guards(backward)
    if crit_min_back < 1e-2:
        raise ChartMeetsExceptionalSet(
            f"image window approaches the inverse critical set (normalized distance {crit_min_back:.2e})"
        )
    if not finite:
        raise EnergyError("target integrand is not finite on the grid")
    target_value = target_sum * target_chart.cell_volume

    gap = abs(source_value - target_value)
    scale = max(abs(source_value), abs(target_value), 1e-300)
    return PushforwardCheck(
        source_value=source_value,
        target_value=target_value,
        relative_discrepancy=gap / scale,
        source_chart=source_chart,
        target_chart=target_chart,
    )
