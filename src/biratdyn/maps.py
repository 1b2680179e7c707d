"""Rational self-maps of the projective plane and their basic algebra.

A map is a triple of coprime homogeneous polynomials over Q(i) of common
degree.  This module covers evaluation (with blowup and collapse
detection), exact composition with coefficient-size caps, indeterminacy
and critical loci, degree sequences under iteration, and first/second
derivative data in affine charts and in the Fubini-Study metric.

The affine charts of the plane are reached through one embedding pair,
`chart_embed` and `chart_coords`, and every batched chart-to-chart
evaluation (values, 2x2 Jacobian, guard margins) goes through one kernel,
`ChartMap`; the potential, energy, saddle-search and cocycle layers share
both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .geometry import (
    ComplexRational,
    GeometryError,
    HomogeneousPolynomial,
    ProjectivePoint,
    from_sympy,
    poly_divide_exact,
    poly_factor,
    poly_gcd,
    proj_distance,
    to_sympy,
    _sympy,
)

# hard cap on exact coefficient size; beyond this exact iteration stops
DEFAULT_COEFF_BIT_CAP = 1 << 16
# membership tolerance for exceptional curves at unit representatives
EPS_EXCEPTIONAL = 1e-6
# tolerance for numeric indeterminacy detection at unit representatives
EPS_INDETERMINACY = 1e-9


class MapError(ValueError):
    """Invalid map construction or operation."""


class CoefficientOverflow(MapError):
    """Exact coefficients exceeded the configured bit cap."""

    def __init__(self, bits: int, cap: int, context: str = ""):
        self.bits = bits
        self.cap = cap
        super().__init__(f"coefficients reached {bits} bits (cap {cap}) {context}".strip())


class PositiveDimensionalLocus(MapError):
    """The requested locus contains a curve, not just points."""


@dataclass(frozen=True)
class MapImage:
    """Result of applying a map at a point.

    kind is one of "point", "blowup", "collapsed".  A blowup result
    carries the total image curve when it could be determined exactly
    (requires the inverse map); a collapsed result carries the image
    point together with the contracted curve through the argument.
    """

    kind: str
    point: Optional[ProjectivePoint] = None
    curve: Optional[HomogeneousPolynomial] = None
    curve_known: bool = True

    def is_point(self) -> bool:
        return self.kind == "point"


@dataclass(frozen=True)
class DegreeSequence:
    """Degrees of the reduced iterates f^1..f^N."""

    degrees: list[int]
    is_multiplicative: bool
    first_drop: Optional[int]
    truncated_at: Optional[int] = None

    def __len__(self):
        return len(self.degrees)


class RationalSurfaceMap:
    """Self-map of P^2 given by three coprime homogeneous components.

    Common polynomial factors are divided out on construction.  Maps whose
    Jacobian determinant vanishes identically (non-dominant maps) are
    rejected.  An inverse triple may be attached; use `verify_inverse` to
    certify that it actually inverts the map.
    """

    def __init__(
        self,
        components: Sequence[HomogeneousPolynomial],
        inverse: Optional["RationalSurfaceMap"] = None,
        name: str = "",
    ):
        comps = list(components)
        if len(comps) != 3:
            raise MapError("a plane map needs exactly 3 components")
        if all(c.is_zero() for c in comps):
            raise MapError("all components vanish")
        degrees = {c.degree for c in comps if not c.is_zero()}
        if len(degrees) != 1:
            raise MapError(f"components have mixed degrees {sorted(degrees)}")
        nonzero = [c for c in comps if not c.is_zero()]
        if len(nonzero) >= 2:
            g = poly_gcd(nonzero)
            if g.degree > 0:
                comps = [
                    poly_divide_exact(c, g) if not c.is_zero() else HomogeneousPolynomial.zero(c.degree - g.degree)
                    for c in comps
                ]
        self.components: tuple[HomogeneousPolynomial, ...] = tuple(comps)
        self.degree: int = self.components[0].degree if not self.components[0].is_zero() else max(
            c.degree for c in self.components if not c.is_zero()
        )
        if self.degree < 1:
            raise MapError("map degree must be at least 1")
        self.name = name
        self.inverse = inverse
        self._jacobian_det: Optional[HomogeneousPolynomial] = None
        self._critical: Optional[list[tuple[HomogeneousPolynomial, int]]] = None
        self._indeterminacy: Optional[list[ProjectivePoint]] = None
        self._contractions: Optional[list[tuple[HomogeneousPolynomial, Optional[ProjectivePoint]]]] = None
        if not self._dominant():
            raise MapError("Jacobian determinant vanishes identically: map is not dominant")

    def _dominant(self) -> bool:
        """Dominance test: a numeric nonzero Jacobian determinant at a random
        point is a certificate; the degenerate-looking case falls back to
        the exact symbolic determinant."""
        rng = np.random.default_rng(715225739)
        for _ in range(3):
            z = rng.normal(size=3) + 1j * rng.normal(size=3)
            z /= np.linalg.norm(z)
            M = np.array(
                [
                    [self.components[i].derivative(j).evaluate_numeric(z) for j in range(3)]
                    for i in range(3)
                ],
                dtype=np.complex128,
            )
            scale = 1.0
            for row in M:
                scale *= max(np.linalg.norm(row), 1e-300)
            if abs(np.linalg.det(M)) > 1e-10 * scale:
                return True
        return not self.jacobian_determinant().is_zero()

    # -- basic data ---------------------------------------------------------

    def jacobian_matrix(self) -> list[list[HomogeneousPolynomial]]:
        return [[c.derivative(v) for v in range(3)] for c in self.components]

    def jacobian_determinant(self) -> HomogeneousPolynomial:
        if self._jacobian_det is None:
            m = self.jacobian_matrix()
            det = (
                m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
            )
            self._jacobian_det = det
        return self._jacobian_det

    def evaluate_exact(self, coords) -> tuple[ComplexRational, ComplexRational, ComplexRational]:
        return tuple(c.evaluate_exact(coords) for c in self.components)

    def evaluate_numeric(self, vec3: np.ndarray) -> np.ndarray:
        return np.array([c.evaluate_numeric(vec3) for c in self.components], dtype=np.complex128)

    def coeff_scale(self) -> float:
        """Euclidean norm of all coefficients; used to normalize residuals."""
        total = 0.0
        for c in self.components:
            for v in c.terms.values():
                total += abs(complex(v)) ** 2
        return math.sqrt(total) if total > 0 else 1.0

    def with_name(self, name: str) -> "RationalSurfaceMap":
        self.name = name
        return self

    def __repr__(self):
        label = self.name or "map"
        return f"RationalSurfaceMap({label}, degree={self.degree})"

    # -- loci ---------------------------------------------------------------

    def indeterminacy_set(self) -> list[ProjectivePoint]:
        """Common zeros of the three components (finite for coprime
        components).  Exact coordinates where the points are Gaussian
        rational, floating points with residual certification otherwise."""
        if self._indeterminacy is None:
            g = poly_gcd(list(self.components))
            if g.degree > 0:
                raise PositiveDimensionalLocus("components share a common curve")
            self._indeterminacy = _common_zeros(self.components, self.coeff_scale())
        return list(self._indeterminacy)

    def critical_set(self) -> list[tuple[HomogeneousPolynomial, int]]:
        """Irreducible factors of the Jacobian determinant with
        multiplicities; total degree is 3(d-1)."""
        if self._critical is None:
            self._critical = poly_factor(self.jacobian_determinant())
        return list(self._critical)

    def contractions(self) -> list[tuple[HomogeneousPolynomial, Optional[ProjectivePoint]]]:
        """Critical factors paired with their image point when the factor is
        contracted by the map (target None when the factor is not
        contracted within sampling tolerance)."""
        if self._contractions is None:
            out = []
            for factor, _mult in self.critical_set():
                target = _contraction_target(self, factor)
                out.append((factor, target))
            self._contractions = out
        return list(self._contractions)

    # -- application --------------------------------------------------------

    def apply(self, p: ProjectivePoint, eps_indeterminacy: float = EPS_INDETERMINACY) -> MapImage:
        return apply(self, p, eps_indeterminacy)

    def __call__(self, p: ProjectivePoint) -> MapImage:
        return apply(self, p)


def apply(
    f: RationalSurfaceMap, p: ProjectivePoint, eps_indeterminacy: float = EPS_INDETERMINACY
) -> MapImage:
    """Apply f at p.

    Returns a Point image away from the exceptional loci; a Blowup marker
    (with total image curve when the inverse is attached) at indeterminacy
    points; a Collapsed marker with the image point on contracted critical
    curves.  Numeric points use eps_indeterminacy at unit representatives
    for the indeterminacy test.
    """
    if p.exact:
        vals = f.evaluate_exact(p.coords)
        if all(v.is_zero() for v in vals):
            return _blowup_image(f, p)
        image = ProjectivePoint(vals, exact=True).reduced()
        on_curve = _contracted_factor_through(f, p)
        if on_curve is not None:
            return MapImage(kind="collapsed", point=image, curve=on_curve)
        return MapImage(kind="point", point=image)
    z = p.unit_vector()
    vals = f.evaluate_numeric(z)
    if np.linalg.norm(vals) < eps_indeterminacy * f.coeff_scale():
        return _blowup_image(f, p)
    image = ProjectivePoint(vals, exact=False)
    on_curve = _contracted_factor_through(f, p)
    if on_curve is not None:
        return MapImage(kind="collapsed", point=image, curve=on_curve)
    return MapImage(kind="point", point=image)


def _contracted_factor_through(f: RationalSurfaceMap, p: ProjectivePoint):
    for factor, target in f.contractions():
        if target is None:
            continue
        if p.exact:
            if factor.evaluate_exact(p.coords).is_zero():
                return factor
        else:
            scale = math.sqrt(sum(abs(complex(c)) ** 2 for c in factor.terms.values()))
            if abs(factor.evaluate_numeric(p.unit_vector())) < EPS_EXCEPTIONAL * scale:
                return factor
    return None


def _blowup_image(f: RationalSurfaceMap, p: ProjectivePoint) -> MapImage:
    if not p.exact or f.inverse is None:
        return MapImage(kind="blowup", curve=None, curve_known=False)
    # the total image of a blown-up point consists of the inverse-critical
    # curves that the inverse contracts onto that point
    pieces = []
    for factor, target in f.inverse.contractions():
        if target is not None and proj_distance(p.numeric(), target) < EPS_EXCEPTIONAL:
            pieces.append(factor)
    if not pieces:
        return MapImage(kind="blowup", curve=None, curve_known=False)
    curve = pieces[0]
    for extra in pieces[1:]:
        curve = curve * extra
    return MapImage(kind="blowup", curve=curve, curve_known=True)


def _contraction_target(f: RationalSurfaceMap, factor: HomogeneousPolynomial):
    """Image point of a critical factor if the map contracts it, sampled
    along random lines; None when images do not coincide."""
    rng = np.random.default_rng(2400451907)
    images = []
    tries = 0
    while len(images) < 5 and tries < 60:
        tries += 1
        a = rng.normal(size=3) + 1j * rng.normal(size=3)
        b = rng.normal(size=3) + 1j * rng.normal(size=3)
        for s in _curve_line_intersections(factor, a, b):
            q = a + s * b
            nq = np.linalg.norm(q)
            if nq < 1e-9:
                continue
            q = q / nq
            # stay away from indeterminacy where the image is undefined
            img = f.evaluate_numeric(q)
            n = np.linalg.norm(img)
            if n < 1e-7 * f.coeff_scale():
                continue
            images.append(ProjectivePoint(img, exact=False))
            if len(images) >= 5:
                break
    if len(images) < 3:
        return None
    base = images[0]
    if all(proj_distance(base, other) < 1e-6 for other in images[1:]):
        return base
    return None


def _curve_line_intersections(poly: HomogeneousPolynomial, a: np.ndarray, b: np.ndarray):
    """Solve poly(a + s b) = 0 for complex s (coefficients built exactly
    from the sparse terms, roots numeric)."""
    from numpy.polynomial import polynomial as npoly

    coeffs = np.zeros(poly.degree + 1, dtype=np.complex128)
    for (i, j, k), c in poly.terms.items():
        term = np.array([1.0 + 0j])
        for var, e in ((0, i), (1, j), (2, k)):
            lin = np.array([a[var], b[var]], dtype=np.complex128)
            for _ in range(e):
                term = npoly.polymul(term, lin)
        coeffs[: len(term)] += complex(c) * term
    # strip negligible leading coefficients before root finding
    mags = np.abs(coeffs)
    if mags.max() == 0:
        return []
    keep = np.nonzero(mags > 1e-12 * mags.max())[0]
    if len(keep) == 0:
        return []
    top = keep.max()
    if top == 0:
        return []
    return list(npoly.polyroots(coeffs[: top + 1]))


# ---------------------------------------------------------------------------
# composition and degree sequences
# ---------------------------------------------------------------------------


def compose(
    f: RationalSurfaceMap,
    g: RationalSurfaceMap,
    bit_cap: int = DEFAULT_COEFF_BIT_CAP,
    name: str = "",
) -> RationalSurfaceMap:
    """Reduced composition f o g: substitute g into f, then divide out the
    common factor.  Raises CoefficientOverflow when exact coefficients
    exceed bit_cap bits."""
    new_comps = []
    for comp in f.components:
        acc = HomogeneousPolynomial.zero(comp.degree * g.degree)
        for (i, j, k), c in comp.terms.items():
            term = HomogeneousPolynomial.constant(c)
            for gcomp, e in zip(g.components, (i, j, k)):
                if e:
                    term = term * gcomp.pow(e)
            acc = acc + term
        new_comps.append(acc)
        if acc.max_coeff_bits() > bit_cap:
            raise CoefficientOverflow(acc.max_coeff_bits(), bit_cap, "during composition")
    composed = RationalSurfaceMap(new_comps, name=name)
    if composed.components[0].max_coeff_bits() > bit_cap:
        raise CoefficientOverflow(composed.components[0].max_coeff_bits(), bit_cap, "after reduction")
    return composed


def identity_map() -> RationalSurfaceMap:
    return RationalSurfaceMap(
        [
            HomogeneousPolynomial.monomial(1, 0, 0),
            HomogeneousPolynomial.monomial(0, 1, 0),
            HomogeneousPolynomial.monomial(0, 0, 1),
        ],
        name="id",
    )


def is_identity(f: RationalSurfaceMap) -> bool:
    """True when the map is projectively the identity [x : y : t]."""
    if f.degree != 1:
        return False
    x = HomogeneousPolynomial.monomial(1, 0, 0)
    y = HomogeneousPolynomial.monomial(0, 1, 0)
    t = HomogeneousPolynomial.monomial(0, 0, 1)
    c0, c1, c2 = f.components
    return (c0 * y == c1 * x) and (c0 * t == c2 * x) and (c1 * t == c2 * y)


def verify_inverse(f: RationalSurfaceMap, bit_cap: int = DEFAULT_COEFF_BIT_CAP) -> bool:
    """Certify the attached inverse: both compositions reduce to the
    identity map."""
    if f.inverse is None:
        raise MapError("no inverse attached")
    return is_identity(compose(f, f.inverse, bit_cap)) and is_identity(
        compose(f.inverse, f, bit_cap)
    )


def degree_sequence(
    f: RationalSurfaceMap, length: int, bit_cap: int = DEFAULT_COEFF_BIT_CAP
) -> DegreeSequence:
    """Degrees of the reduced iterates f, f^2, ..., f^length.

    The sequence is multiplicative (d_n = d_1^n) exactly when no iterate
    picks up a common factor; first_drop records the first n where
    multiplicativity fails.  If exact coefficients exceed the bit cap the
    sequence is truncated and marked."""
    if length < 1:
        raise MapError("need length >= 1")
    degrees = [f.degree]
    current = f
    truncated_at = None
    for n in range(2, length + 1):
        try:
            current = compose(f, current, bit_cap)
        except CoefficientOverflow:
            truncated_at = n
            break
        degrees.append(current.degree)
    d1 = degrees[0]
    first_drop = None
    for n, d in enumerate(degrees, start=1):
        if d != d1**n:
            first_drop = n
            break
    return DegreeSequence(
        degrees=degrees,
        is_multiplicative=first_drop is None and truncated_at is None,
        first_drop=first_drop,
        truncated_at=truncated_at,
    )


# ---------------------------------------------------------------------------
# indeterminacy via elimination
# ---------------------------------------------------------------------------


def _cr_from_sympy_number(z) -> ComplexRational:
    sympy, _ = _sympy()
    re, im = z.as_real_imag()
    re = sympy.Rational(re)
    im = sympy.Rational(im)
    return ComplexRational(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))


def _univar_roots(expr, var):
    """Roots of a univariate polynomial over Q(i): exact roots from linear
    factors over the Gaussian rationals, the rest numeric."""
    sympy, _ = _sympy()
    exact: list[ComplexRational] = []
    numeric: list[complex] = []
    poly = sympy.Poly(sympy.expand(expr), var)
    if poly.degree() == 0:
        return exact, numeric
    _, factors = sympy.factor_list(poly.as_expr(), var, gaussian=True)
    for fac, _mult in factors:
        fp = sympy.Poly(fac, var)
        if fp.degree() == 1:
            a, b = fp.all_coeffs()
            exact.append(_cr_from_sympy_number(sympy.expand(-b / a)))
        elif fp.degree() >= 2:
            coeffs = [complex(c) for c in fp.all_coeffs()]
            numeric.extend(np.roots(coeffs))
    return exact, numeric


def _solve_affine_pairs(exprs, u, v):
    """Common zeros of a family of polynomials in two variables over Q(i).

    Returns (exact_pairs, numeric_v_roots): exact Gaussian-rational
    solution pairs, plus v-values of non-rational fibers for numeric
    back-substitution by the caller.  Raises PositiveDimensionalLocus when
    the system has a curve of solutions."""
    sympy, _ = _sympy()
    fs = [sympy.expand(e) for e in exprs]
    fs = [e for e in fs if e != 0]
    if not fs:
        raise PositiveDimensionalLocus("system vanishes identically in a chart")
    gb = sympy.groebner(fs, u, v, order="lex", extension=sympy.I)
    gens = list(gb.exprs)
    if gens == [sympy.Integer(1)]:
        return [], []
    if not gb.is_zero_dimensional:
        raise PositiveDimensionalLocus("solution locus contains a curve")
    elim = [g for g in gens if g.free_symbols <= {v}]
    qv = elim[0]
    for g in elim[1:]:
        qv = sympy.gcd(qv, g)
    v_exact, v_numeric = _univar_roots(qv, v)
    exact_pairs = []
    numeric_v = [complex(rv) for rv in v_numeric]
    for rv in v_exact:
        rv_sym = sympy.Rational(rv.re_num, rv.re_den) + sympy.I * sympy.Rational(rv.im_num, rv.im_den)
        gens_u = [sympy.expand(g.subs(v, rv_sym)) for g in gens]
        gens_u = [g for g in gens_u if g != 0]
        if not gens_u:
            raise PositiveDimensionalLocus("fiber over a root is one-dimensional")
        qu = gens_u[0]
        for g in gens_u[1:]:
            qu = sympy.gcd(qu, g)
        u_exact, u_numeric = _univar_roots(qu, u)
        exact_pairs.extend((ru, rv) for ru in u_exact)
        if u_numeric:
            numeric_v.append(complex(rv))
    return exact_pairs, numeric_v


def _fiber_coeffs_chart0(poly: HomogeneousPolynomial, tval: complex) -> np.ndarray:
    """Coefficients in y of poly(1, y, tval), highest degree first."""
    coeffs = np.zeros(poly.degree + 1, dtype=np.complex128)
    for (_i, j, k), c in poly.terms.items():
        coeffs[j] += complex(c) * (tval**k)
    return coeffs[::-1]


def _common_zeros(components, coeff_scale: float) -> list[ProjectivePoint]:
    sympy, (X, Y, T) = _sympy()
    F = [to_sympy(c) for c in components]
    points: list[ProjectivePoint] = []
    numeric_candidates: list[np.ndarray] = []

    # chart x = 1
    exact_pairs, numeric_v = _solve_affine_pairs([f.subs(X, 1) for f in F], Y, T)
    for yv, tv in exact_pairs:
        points.append(ProjectivePoint([ComplexRational(1), yv, tv], exact=True))
    for tv in numeric_v:
        # back-substitute numerically: y-roots of the first component that
        # does not vanish identically on the fiber
        for comp in components:
            coeffs = _fiber_coeffs_chart0(comp, tv)
            if np.abs(coeffs).max() > 1e-12 * max(coeff_scale, 1.0):
                for yv in np.roots(coeffs):
                    numeric_candidates.append(np.array([1.0, yv, tv], dtype=np.complex128))
                break

    # chart x = 0, y = 1
    line = [sympy.expand(f.subs({X: 0, Y: 1})) for f in F]
    line = [e for e in line if e != 0]
    if not line:
        raise PositiveDimensionalLocus("the line x = 0 lies in the common zero locus")
    qt = line[0]
    for e in line[1:]:
        qt = sympy.gcd(qt, e)
    if qt.free_symbols:
        t_exact, t_numeric = _univar_roots(qt, T)
        for tv in t_exact:
            points.append(ProjectivePoint([ComplexRational(0), ComplexRational(1), tv], exact=True))
        for tv in t_numeric:
            numeric_candidates.append(np.array([0.0, 1.0, tv], dtype=np.complex128))

    # remaining point [0:0:1]
    if all(sympy.expand(f.subs({X: 0, Y: 0, T: 1})) == 0 for f in F):
        points.append(ProjectivePoint([ComplexRational(0), ComplexRational(0), ComplexRational(1)], exact=True))

    # verify exact points by substitution
    for p in points:
        vals = [c.evaluate_exact(p.coords) for c in components]
        if not all(v.is_zero() for v in vals):
            raise MapError("internal error: exact indeterminacy candidate fails to vanish")

    # certify numeric candidates by residual and deduplicate
    out = list(points)
    for vec in numeric_candidates:
        if not np.all(np.isfinite(vec)):
            continue
        q = ProjectivePoint(vec, exact=False)
        residual = np.linalg.norm([c.evaluate_numeric(q.unit_vector()) for c in components])
        if residual > 1e-10 * coeff_scale:
            continue
        if any(proj_distance(q, existing) < 1e-9 for existing in out):
            continue
        out.append(q)
    return out


# ---------------------------------------------------------------------------
# derivatives: Fubini-Study operator norm, chart Jacobians
# ---------------------------------------------------------------------------


def derivative_norm(f: RationalSurfaceMap, p: ProjectivePoint) -> float:
    """Operator norm of the induced derivative at p in the Fubini-Study
    metric, computed from the homogeneous lift restricted to the
    orthogonal complement of the fiber direction; +inf on I(f)."""
    z = p.unit_vector()
    Fz = f.evaluate_numeric(z)
    norm_F = np.linalg.norm(Fz)
    if norm_F < 1e-300:
        return math.inf
    w = Fz / norm_F
    DF = np.array(
        [
            [f.components[i].derivative(j).evaluate_numeric(z) for j in range(3)]
            for i in range(3)
        ],
        dtype=np.complex128,
    )
    Pz = np.eye(3) - np.outer(z, z.conj())
    Pw = np.eye(3) - np.outer(w, w.conj())
    M = Pw @ DF @ Pz / norm_F
    return float(np.linalg.svd(M, compute_uv=False)[0])


def chart_embed(chart: int, z1, z2) -> tuple:
    """Homogeneous coordinates of the affine point (z1, z2) of a chart: a
    triple with 1.0 at index ``chart``; z1 and z2 are scalars or arrays."""
    if chart == 0:
        return (1.0, z1, z2)
    if chart == 1:
        return (z1, 1.0, z2)
    return (z1, z2, 1.0)


def chart_coords(chart: int, v) -> np.ndarray:
    """Affine coordinates in a chart of homogeneous vectors v[..., 0:3]:
    the two other coordinates divided by coordinate ``chart``."""
    v = np.asarray(v)
    others = [i for i in range(3) if i != chart]
    return v[..., others] / v[..., chart, None]


class ChartMap:
    """Chart expression of a plane map, evaluated in batches.

    Takes source coordinates in chart ``chart_in`` to target coordinates in
    chart ``chart_out`` together with the 2x2 Jacobian.  Guard margins are
    the smallest and largest |denominator| (the target pivot coordinate of
    F) and |det J| seen over all calls; they tell when a window meets the
    target chart's line at infinity or the critical set.
    """

    def __init__(self, f: RationalSurfaceMap, chart_in: int, chart_out: int):
        self.f = f
        self.chart_in = chart_in
        self.chart_out = chart_out
        self.in_vars = [i for i in range(3) if i != chart_in]
        self.out_vars = [i for i in range(3) if i != chart_out]
        self.denominator_small = math.inf
        self.denominator_large = 0.0
        self.jacobian_small = math.inf
        self.jacobian_large = 0.0

    def __call__(self, z1, z2):
        """Return image coordinates (w1, w2) in the target chart and the
        2x2 Jacobian entries (J[l][j] = dw_l / dz_j)."""
        hom = chart_embed(self.chart_in, z1, z2)
        comps = self.f.components
        F = [c.evaluate_numeric(hom) for c in comps]
        D = np.asarray(F[self.chart_out])
        absd = np.abs(D)
        self.denominator_small = min(self.denominator_small, float(np.min(absd)))
        self.denominator_large = max(self.denominator_large, float(np.max(absd)))
        with np.errstate(divide="ignore", invalid="ignore"):
            w1 = F[self.out_vars[0]] / D
            w2 = F[self.out_vars[1]] / D
            dF = [[c.derivative(v).evaluate_numeric(hom) for v in self.in_vars] for c in comps]
            J = [[None, None], [None, None]]
            for l, out in enumerate(self.out_vars):
                for j in range(2):
                    J[l][j] = (dF[out][j] * D - F[out] * dF[self.chart_out][j]) / (D * D)
        det = np.abs(J[0][0] * J[1][1] - J[0][1] * J[1][0])
        self.jacobian_small = min(self.jacobian_small, float(np.min(det)))
        self.jacobian_large = max(self.jacobian_large, float(np.max(det)))
        return w1, w2, J


def second_derivative_norm(f: RationalSurfaceMap, p: ProjectivePoint) -> float:
    """Frobenius norm of the second derivative tensor of the chart
    expression of f at p (source chart from p, target chart from f(p))."""
    z = p.unit_vector()
    Fz = f.evaluate_numeric(z)
    if np.linalg.norm(Fz) < 1e-300:
        return math.inf
    chart_in = int(np.argmax(np.abs(z)))
    chart_out = int(np.argmax(np.abs(Fz)))
    rep = z / z[chart_in]
    in_vars = [i for i in range(3) if i != chart_in]
    out_vars = [i for i in range(3) if i != chart_out]
    Fv = f.evaluate_numeric(rep)
    R = Fv[chart_out]
    dF = {v: np.array([f.components[i].derivative(v).evaluate_numeric(rep) for i in range(3)]) for v in in_vars}
    d2F = {}
    for a in in_vars:
        for b in in_vars:
            if (b, a) in d2F:
                d2F[(a, b)] = d2F[(b, a)]
            else:
                d2F[(a, b)] = np.array(
                    [
                        f.components[i].derivative(a).derivative(b).evaluate_numeric(rep)
                        for i in range(3)
                    ]
                )
    total = 0.0
    for out in out_vars:
        P = Fv[out]
        for a in in_vars:
            for b in in_vars:
                Pa, Pb = dF[a][out], dF[b][out]
                Ra, Rb = dF[a][chart_out], dF[b][chart_out]
                Pab = d2F[(a, b)][out]
                Rab = d2F[(a, b)][chart_out]
                val = (
                    Pab / R
                    - (Pa * Rb + Pb * Ra) / R**2
                    - P * Rab / R**2
                    + 2 * P * Ra * Rb / R**3
                )
                total += abs(val) ** 2
    return math.sqrt(total)
