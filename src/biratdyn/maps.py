"""Rational self-maps of the projective plane and their basic algebra.

A map is a triple of coprime homogeneous polynomials over Q(i) of common
degree.  This module covers evaluation (`image_point`, None on the
indeterminacy set), exact composition with coefficient-size caps,
indeterminacy and critical loci with the contracted curves, degree
sequences under iteration, and derivative data in affine charts and in the
Fubini-Study metric.

The affine charts of the plane are reached through one embedding pair,
`chart_embed` and `chart_coords`, which the potential, energy,
saddle-search and cocycle layers share.  Every batched chart-to-chart
evaluation goes through one stateless kernel, `chart_map`: it returns the
image, its 2x2 Jacobian and the target pivot coordinate, and keeps
nothing between calls.  Guard margins over those values belong to their
one reader, the change-of-variables check in `energy`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .geometry import (
    CR_ZERO,
    ComplexRational,
    HomogeneousPolynomial,
    ProjectivePoint,
    poly_divide_exact,
    poly_factor,
    poly_gcd,
    proj_distance,
    _GaussianInteger,
    _IntegerPolynomial,
    _PowerTable,
    _common_denominator,
    _term_sum,
)

# hard cap on exact coefficient size; beyond this exact iteration stops
DEFAULT_COEFF_BIT_CAP = 1 << 16
# chordal distance that counts as landing on an exceptional point
EPS_EXCEPTIONAL = 1e-6
# tolerance for numeric indeterminacy detection at unit representatives
EPS_INDETERMINACY = 1e-9
# iterates f^1..f^N checked for multiplicative degrees (by exceptional orbits,
# composing only where their walk cannot decide)
DEGREE_CHECK_ITERATES = 5
# largest iterate degree composed exactly: the next, 81 for a cubic, takes
# tens of seconds to substitute
_MAX_COMPOSED_DEGREE = 64
# fixed Gaussian-integer points where the dominance test evaluates det J
# exactly once its numeric tries are inconclusive
_DOMINANCE_POINTS = (
    (ComplexRational(1, 2), ComplexRational(-3, 1), ComplexRational(2, -1)),
    (ComplexRational(2, 0), ComplexRational(5, 1), ComplexRational(-1, -3)),
    (ComplexRational(-4, 3), ComplexRational(1, -1), ComplexRational(3, 2)),
)


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
class DegreeSequence:
    """Degrees of the reduced iterates f^1..f^N."""

    degrees: list[int]
    is_multiplicative: bool
    first_drop: Optional[int]
    truncated_at: Optional[int] = None


def _det3(m):
    """Cofactor expansion of a 3x3 determinant along its first row, over
    polynomials or exact values alike."""
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


class RationalSurfaceMap:
    """Self-map of P^2 given by three coprime homogeneous components.

    Common polynomial factors are divided out on construction.  Maps whose
    Jacobian determinant vanishes identically (non-dominant maps) are
    rejected.  An inverse triple may be attached; use `verify_inverse` to
    certify that it actually inverts the map.

    A map and its inverse are one linked pair, ``f.inverse.inverse is f``:
    ``inverse=g`` links a ``g`` without inverse back to the new map, so the
    exact loci cached on each object are computed once per direction.
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
        self._coeff_scale: Optional[float] = None
        self._integer_rows: Optional[tuple[tuple, int]] = None
        if not self._dominant():
            raise MapError("Jacobian determinant vanishes identically: map is not dominant")
        if inverse is not None and inverse.inverse is None:
            inverse.inverse = self

    def _dominant(self) -> bool:
        """Dominance test: a nonzero Jacobian determinant at any point is a
        certificate.  Three random points are tried numerically, then the
        fixed Gaussian-integer points exactly; only when det J is 0 at all
        of those is the exact symbolic determinant built."""
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
        m = self.jacobian_matrix()
        for point in _DOMINANCE_POINTS:
            if not _det3([[entry.evaluate_exact(point) for entry in row] for row in m]).is_zero():
                return True
        return not self.jacobian_determinant().is_zero()

    # -- basic data ---------------------------------------------------------

    def jacobian_matrix(self) -> list[list[HomogeneousPolynomial]]:
        return [[c.derivative(v) for v in range(3)] for c in self.components]

    def jacobian_determinant(self) -> HomogeneousPolynomial:
        if self._jacobian_det is None:
            self._jacobian_det = _det3(self.jacobian_matrix())
        return self._jacobian_det

    def evaluate_numeric(self, vec3: np.ndarray) -> np.ndarray:
        return np.array([c.evaluate_numeric(vec3) for c in self.components], dtype=np.complex128)

    def coeff_scale(self) -> float:
        """Euclidean norm of all coefficients; used to normalize residuals.
        Computed once per map."""
        if self._coeff_scale is None:
            total = 0.0
            for c in self.components:
                for v in c.terms.values():
                    total += abs(complex(v)) ** 2
            self._coeff_scale = math.sqrt(total) if total > 0 else 1.0
        return self._coeff_scale

    def _integer_components(self) -> tuple[tuple, int]:
        """The components' integer rows (`_integer_terms`) rescaled to one
        positive common denominator, so the three scale alike: the triple
        of row tuples and that denominator.  Computed once per map."""
        if self._integer_rows is None:
            terms = [c._integer_terms() for c in self.components]
            den = math.lcm(*(d for _, d in terms))
            self._integer_rows = (
                tuple(tuple((i, j, k, c * _GaussianInteger(den // d, 0)) for i, j, k, c in rows)
                      for rows, d in terms),
                den)
        return self._integer_rows

    def __repr__(self):
        label = self.name or "map"
        return f"RationalSurfaceMap({label}, degree={self.degree})"

    # -- loci ---------------------------------------------------------------

    def indeterminacy_set(self) -> list[ProjectivePoint]:
        """Common zeros of the three components (finite for coprime
        components).  Exact coordinates where the points are Gaussian
        rational, floating points with residual certification otherwise.

        Exact elimination over Q(i) in pure Python, chart by chart.  In the
        chart x = 1 every common zero (1, y, t) is a common zero of two
        fixed integer combinations g1, g2 of the components, so t is a root
        of the resultant Res_y(g1, g2), which is computed by evaluation
        and interpolation.  `_gaussian_roots` finds the Gaussian-rational
        roots of its square-free part rigorously (isolating disks, then an
        exact check of each rounded candidate); over each such t the exact
        gcd of the three components in y gives the points of the fiber,
        and roots that are not Gaussian rational are back-substituted
        numerically.  The line x = 0 is solved through the gcd of the
        components at y = 1, then [0 : 0 : 1] is tested.  Exact points are
        checked by substitution and numeric candidates kept only below a
        residual bound, so extra roots of the resultant, where only g1 and
        g2 vanish, drop out.  Within a chart exact points are ordered by
        (-Im, -Re) of t, then of y."""
        if self._indeterminacy is None:
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


def image_point(f: RationalSurfaceMap, p: ProjectivePoint) -> Optional[ProjectivePoint]:
    """Image of p under f, or None at an indeterminacy point.

    An exact p is indeterminate exactly when all components vanish there,
    and otherwise maps to the reduced exact image: the components' integer
    rows, over one denominator, are summed over Z[i] at p's Gaussian-integer
    coordinates, whose powers the three components share.  A numeric p is
    taken as indeterminate when the image of its unit representative has
    norm below ``EPS_INDETERMINACY`` times the coefficient scale.
    """
    if p.exact:
        x, y, t = (_PowerTable(v) for v in p._gaussian_integers())
        vals = [_term_sum(rows, x, y, t) for rows in f._integer_components()[0]]
        if not any(vals):
            return None
        return ProjectivePoint._primitive(vals)
    vals = f.evaluate_numeric(p.unit_vector())
    if np.linalg.norm(vals) < EPS_INDETERMINACY * f.coeff_scale():
        return None
    return ProjectivePoint(vals, exact=False)


def _blowup_image(f: RationalSurfaceMap, p: ProjectivePoint) -> Optional[HomogeneousPolynomial]:
    """Total image curve of a point p of I(f): the product of the critical
    factors that the inverse contracts onto p (Diller-Favre stabilization,
    ROADMAP item 4).  None for a numeric p, a map without an inverse, or no
    contracted factor of the inverse landing on p."""
    if not p.exact or f.inverse is None:
        return None
    pieces = [factor for factor, target in f.inverse.contractions()
              if target is not None and proj_distance(p.numeric(), target) < EPS_EXCEPTIONAL]
    return math.prod(pieces[1:], start=pieces[0]) if pieces else None


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


def _line_restriction(poly: HomogeneousPolynomial, a, b) -> np.ndarray:
    """Coefficients of s -> poly(a + s b), constant term first, padded to
    poly.degree + 1 entries."""
    from numpy.polynomial import Polynomial

    value = poly.evaluate_numeric([Polynomial([a[v], b[v]]) for v in range(3)])
    coeffs = np.zeros(poly.degree + 1, dtype=np.complex128)
    c = value.coef if isinstance(value, Polynomial) else [value]
    coeffs[: len(c)] = c
    return coeffs


def _curve_line_intersections(poly: HomogeneousPolynomial, a: np.ndarray, b: np.ndarray):
    """Solve poly(a + s b) = 0 for complex s (roots numeric)."""
    from numpy.polynomial import polynomial as npoly

    coeffs = _line_restriction(poly, a, b)
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


def _substitute(
    f: RationalSurfaceMap, g: RationalSurfaceMap, bit_cap: int
) -> list[HomogeneousPolynomial]:
    """Components of f with g's components substituted, not reduced.
    Raises CoefficientOverflow when a coefficient exceeds bit_cap bits.

    The substitution runs over Z[i]: g's components are integer rows over
    one denominator e, so a component of f of degree n with integer rows
    over d is their substitution divided once by d * e**n."""
    g_rows, e = g._integer_components()
    G = [_IntegerPolynomial({(i, j, k): c for i, j, k, c in rows}) for rows in g_rows]
    comps = []
    for comp in f.components:
        rows, d = comp._integer_terms()
        acc = _term_sum(((i, j, k, _IntegerPolynomial({(0, 0, 0): c})) for i, j, k, c in rows), *G)
        degree = comp.degree * g.degree
        if acc is None:
            acc = HomogeneousPolynomial.zero(degree)
        else:
            acc = acc.over(degree, d * e**comp.degree)
        comps.append(acc)
        if acc.max_coeff_bits() > bit_cap:
            raise CoefficientOverflow(acc.max_coeff_bits(), bit_cap, "during composition")
    return comps


def compose(
    f: RationalSurfaceMap,
    g: RationalSurfaceMap,
    bit_cap: int = DEFAULT_COEFF_BIT_CAP,
    name: str = "",
) -> RationalSurfaceMap:
    """Reduced composition f o g: substitute g into f, then divide out the
    common factor.  Raises CoefficientOverflow when exact coefficients
    exceed bit_cap bits."""
    composed = RationalSurfaceMap(_substitute(f, g, bit_cap), name=name)
    if composed.components[0].max_coeff_bits() > bit_cap:
        raise CoefficientOverflow(composed.components[0].max_coeff_bits(), bit_cap, "after reduction")
    return composed


def is_identity(f: RationalSurfaceMap | Sequence[HomogeneousPolynomial]) -> bool:
    """True when f, a map or a triple of components, is projectively the
    identity [x : y : t]: the triple is h * (x, y, t) for a nonzero h, so
    its components are x, y and t times one nonzero quotient, which is
    read off the exponents without a product."""
    quotients = []
    for var, comp in enumerate(f.components if isinstance(f, RationalSurfaceMap) else f):
        if any(not key[var] for key in comp.terms):
            return False
        quotients.append({key[:var] + (key[var] - 1,) + key[var + 1:]: c
                          for key, c in comp.terms.items()})
    return bool(quotients[0]) and quotients[0] == quotients[1] == quotients[2]


def verify_inverse(f: RationalSurfaceMap) -> bool:
    """Certify the attached inverse: both substitutions, f into its inverse
    and back, are the identity up to a common factor (which is never
    divided out)."""
    if f.inverse is None:
        raise MapError("no inverse attached")
    g = f.inverse
    return (is_identity(_substitute(f, g, DEFAULT_COEFF_BIT_CAP))
            and is_identity(_substitute(g, f, DEFAULT_COEFF_BIT_CAP)))


def degree_sequence(f: RationalSurfaceMap, length: int) -> DegreeSequence:
    """Degrees of the reduced iterates f, f^2, ..., f^length.

    The sequence is multiplicative (d_n = d_1^n) exactly when no iterate
    picks up a common factor; first_drop records the first n where
    multiplicativity fails.  `_degree_drop` decides this; a dropping
    sequence is composed to report its degrees, and is truncated and marked
    if composed coefficients exceed DEFAULT_COEFF_BIT_CAP bits or the next
    iterate's degree would exceed 64."""
    if isinstance(length, bool) or length < 1:
        raise MapError("need length >= 1")
    first_drop, composed = _degree_drop(f, length)
    if first_drop is None and composed is None:
        return DegreeSequence([f.degree**n for n in range(1, length + 1)], True, None)
    return composed or _composed_degree_sequence(f, length)


def _degree_drop(
    f: RationalSurfaceMap, length: int
) -> tuple[Optional[int], Optional[DegreeSequence]]:
    """(first_drop, composed) for f, ..., f^length: the least n with
    d_n < d_1^n, or None, and the composed sequence if one was needed.

    The exceptional orbits decide without composing: d_n = d_1^n for every
    n <= length exactly when no p in I(f^-1) has f^k(p) in I(f) for some
    k <= length - 2, and the first drop is at n = k + 2 for the least such k
    (Fornaess-Sibony 1995; Diller-Favre 2001, Thm 1.14).  `orbit_walk`, the
    stability diagnostics' walker, steps each point of I(f^-1).  The iterates
    are composed only when it cannot decide: no inverse, a numeric point, or
    an orbit past DEFAULT_COEFF_BIT_CAP bits.  first_drop is then the
    composed one, None also when composition stopped first (truncated_at)."""
    if f.inverse is not None:
        sources = f.inverse.indeterminacy_set()
        if all(p.exact for p in sources):
            walks = [orbit_walk(f, p, length - 1, DEFAULT_COEFF_BIT_CAP) for p in sources]
            if all(end != "cap" for _, end in walks):
                hits = [len(points) + 1 for points, end in walks if end == "indeterminate"]
                return min(hits, default=None), None
    composed = _composed_degree_sequence(f, length)
    return composed.first_drop, composed


def orbit_walk(
    f: RationalSurfaceMap, p: ProjectivePoint, steps: int, bit_cap: int
) -> tuple[list[ProjectivePoint], str]:
    """The orbit p, f(p), ..., f^steps(p) stepped with `image_point`, and
    how the walk ended: ``"horizon"`` after all steps; ``"indeterminate"``
    when the last point listed lies in I(f), so its image is undefined;
    ``"cap"`` when the last point listed is the first exact image with a
    coordinate of more than bit_cap bits."""
    points = [p]
    for _ in range(steps):
        q = image_point(f, points[-1])
        if q is None:
            return points, "indeterminate"
        points.append(q)
        if q.exact and q.bit_size() > bit_cap:
            return points, "cap"
    return points, "horizon"


def _composed_degree_sequence(f: RationalSurfaceMap, length: int) -> DegreeSequence:
    """`degree_sequence` by composing f with itself length - 1 times."""
    degrees = [f.degree]
    current = f
    truncated_at = None
    for n in range(2, length + 1):
        if f.degree * current.degree > _MAX_COMPOSED_DEGREE:
            truncated_at = n
            break
        try:
            current = compose(f, current)
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
# indeterminacy: resultants and certified roots over Q(i)
# ---------------------------------------------------------------------------

# pairs of small-integer combinations of the components, one pair for the
# resultant in y; a later pair is tried only when the pair before it has
# a resultant that vanishes identically or involves no y
_RESULTANT_COMBINATIONS = (((1, 2, 3), (3, 1, 2)), ((1, 3, 7), (5, 2, 1)), ((2, 1, 5), (1, 4, 1)))
# working precisions (bits) of the numeric root finder, tried in turn
_ROOT_PRECISIONS = tuple(100 << k for k in range(7))
_CR_ONE = ComplexRational(1)


def _strip(a: list) -> list:
    """a without zero leading coefficients; a coefficient list is constant
    term first, and [] is the zero polynomial."""
    while a and a[-1].is_zero():
        a.pop()
    return a


def _horner(a: list, z) -> ComplexRational:
    acc = CR_ZERO
    for c in reversed(a):
        acc = acc * z + c
    return acc


def _divide(a: list, b: list) -> tuple[list, list]:
    """Quotient and remainder of a by a nonzero b over Q(i)."""
    a = list(a)
    inv = _CR_ONE / b[-1]
    q = [CR_ZERO] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        c = a.pop() * inv
        shift = len(a) + 1 - len(b)
        q[shift] = c
        for k, bk in enumerate(b[:-1]):
            a[shift + k] = a[shift + k] - c * bk
        _strip(a)
    return q, a


def _univariate_gcd(polys) -> list:
    """Monic gcd over Q(i) of coefficient lists, by Euclid; [] when every
    list is zero."""
    g: list = []
    for a in polys:
        a = _strip(list(a))
        while a:
            g, a = a, _divide(g, a)[1]
    return [c / g[-1] for c in g]


def _derivative(a: list) -> list:
    return [c * k for k, c in enumerate(a)][1:]


def _dyadic(x) -> Fraction:
    """The exact value of an mpmath real (whose man_exp drops the sign)."""
    man, exp = x.man_exp
    value = Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
    return -value if x < 0 else value


def _isolated(s: list, zs: list, lc_abs2: Fraction) -> bool:
    """Whether the disks of radius n |s(z) / s'(z)|, one around each of the
    n approximate roots zs of the square-free s, are disjoint and each of
    radius below 1 / (2 |lc|).  Each such disk holds a root of s, so
    disjoint ones hold one root each.  Radii enter through their exact
    squares: disks of radii r and r' are disjoint when |z - z'|^2 >
    2 (r^2 + r'^2), which bounds (r + r')^2."""
    n = len(zs)
    ds = _derivative(s)
    r2 = []
    for z in zs:
        d = _horner(ds, z).abs2()
        if not d:
            return False
        r2.append(n * n * _horner(s, z).abs2() / d)
        if 4 * r2[-1] * lc_abs2 >= 1:
            return False
    return all((zs[j] - zs[k]).abs2() > 2 * (r2[j] + r2[k])
               for j in range(n) for k in range(j + 1, n))


def _gaussian_roots(a: list) -> tuple[list[ComplexRational], list[complex]]:
    """Distinct roots of a nonconstant polynomial over Q(i): the
    Gaussian-rational ones exactly, ordered by (-Im, -Re), and the others
    as complex numbers.

    The square-free part s = a / gcd(a, a') is scaled to Gaussian-integer
    coefficients with leading coefficient lc.  A root u / v of s in lowest
    terms over Z[i] has v | lc, so lc times it is a Gaussian integer.
    mpmath's roots, read as exact dyadic numbers, are accepted once
    `_isolated` puts each alone in a disk of radius below 1 / (2 |lc|), and
    the precision is raised until it does.  Rounding lc z to the nearest
    Gaussian integer then recovers every Gaussian-rational root, and each
    rounded candidate is checked by exact substitution.
    """
    import mpmath

    g = _univariate_gcd([a, _derivative(a)])
    s = _divide(a, g)[0]
    den = math.lcm(*(d for c in s for d in (c.re_den, c.im_den)))
    s = [c * den for c in s]
    if len(s) == 2:
        return [-s[0] / s[1]], []
    lc = s[-1]
    approx = None
    for prec in _ROOT_PRECISIONS:
        with mpmath.workprec(prec):
            # built at the working precision, so integers above 2**53 keep
            # every digit that precision holds
            coeffs = [mpmath.mpc(int(c.re), int(c.im)) for c in reversed(s)]
            try:
                approx = mpmath.polyroots(coeffs, maxsteps=prec, extraprec=prec,
                                          roots_init=approx)
            except mpmath.mp.NoConvergence:
                approx = None
                continue
            zs = [ComplexRational(_dyadic(mpmath.mpf(z.real)), _dyadic(mpmath.mpf(z.imag)))
                  for z in approx]
        if _isolated(s, zs, lc.abs2()):
            break
    else:
        raise MapError("could not isolate the roots of an eliminant")
    exact, numeric = [], []
    for z in zs:
        w = lc * z
        c = ComplexRational(round(w.re), round(w.im)) / lc
        if _horner(s, c).is_zero():
            exact.append(c)
        else:
            numeric.append(complex(z))
    exact.sort(key=lambda c: (-c.im, -c.re))
    return exact, numeric


def _in_y(f: dict, t0) -> list:
    """The bivariate f(y, t) at t = t0 as a coefficient list in y."""
    out = [CR_ZERO] * (max(j for j, _ in f) + 1)
    for (j, k), c in f.items():
        out[j] = out[j] + c * t0**k
    return _strip(out)


def _bareiss_determinant(m: list) -> _GaussianInteger:
    """Determinant over Z[i] of a nonempty square matrix, by fraction-free
    (Bareiss) elimination: every entry stays a minor of m, so each division
    by the previous pivot is exact and no gcd is taken."""
    m = [list(row) for row in m]
    sign, prev = 1, _GaussianInteger(1, 0)
    for col in range(len(m)):
        pivot = next((r for r in range(col, len(m)) if m[r][col]), None)
        if pivot is None:
            return _GaussianInteger(0, 0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        top = m[col]
        p = top[col]
        for r in range(col + 1, len(m)):
            row, q = m[r], m[r][col]
            m[r] = [None] * (col + 1) + [(row[c] * p - q * top[c]).exact_quotient(prev)
                                         for c in range(col + 1, len(m))]
        prev = p
    return prev if sign > 0 else -prev


def _y_coefficients(f: dict, m: int, t0: int) -> list:
    """The bivariate f(y, t), a dict from (j, k) to Gaussian integers, at
    the integer t = t0 as m + 1 coefficients in y, highest power first."""
    out = [[0, 0] for _ in range(m + 1)]
    for (j, k), c in f.items():
        w = t0**k
        out[m - j][0] += c.re * w
        out[m - j][1] += c.im * w
    return [_GaussianInteger(re, im) for re, im in out]


def _resultant_in_y(f: dict, g: dict, degree: int) -> list:
    """Res_y(f, g) as a coefficient list in t, for bivariate f and g of
    total degree at most ``degree`` that are not both free of y.

    The Sylvester determinant is taken with the y-degrees m and n of f and
    g as polynomials over Q(i)[t], so it commutes with setting t = t0.  Its
    t-degree is at most N = degree^2, and it is interpolated from its values
    at t0 = 0, 1, ..., N.  Everything runs over Z[i]: f and g are scaled to
    Gaussian integers over denominators df and dg, which scales each
    determinant by df^n dg^m; the determinants are fraction-free
    (`_bareiss_determinant`); and Newton's forward-difference form is taken
    times N!, so the coefficients are divided only once, by N! df^n dg^m."""
    m = max(j for j, _ in f)
    n = max(j for j, _ in g)
    (fz, df), (gz, dg) = (_common_denominator(list(h.values())) for h in (f, g))
    fz, gz = dict(zip(f, fz)), dict(zip(g, gz))
    N = degree * degree
    zero = _GaussianInteger(0, 0)
    values = []
    for t0 in range(N + 1):
        a, b = _y_coefficients(fz, m, t0), _y_coefficients(gz, n, t0)
        rows = [[zero] * r + a + [zero] * (n - 1 - r) for r in range(n)]
        rows += [[zero] * r + b + [zero] * (m - 1 - r) for r in range(m)]
        values.append(_bareiss_determinant(rows))
    # N! res(t) = sum over k of (N! / k!) (Delta^k values)[0] t (t - 1) ... (t - k + 1)
    diffs = []
    while values:
        diffs.append(values[0])
        values = [v - u for u, v in zip(values, values[1:])]
    out: list = []
    for k in range(N, -1, -1):
        # out = out * (t - k) + diffs[k] * N! / k!, innermost first
        out = [zero] + out
        for i in range(len(out) - 1):
            out[i] = out[i] - out[i + 1] * _GaussianInteger(k, 0)
        out[0] = out[0] + diffs[k] * _GaussianInteger(math.factorial(N) // math.factorial(k), 0)
    while out and not out[-1]:
        out.pop()
    scale = math.factorial(N) * df**n * dg**m
    return [c.over(scale) for c in out]


def _combination(F: list, weights) -> dict:
    out: dict = {}
    for f, w in zip(F, weights):
        for key, c in f.items():
            out[key] = out.get(key, CR_ZERO) + c * w
    return {key: c for key, c in out.items() if not c.is_zero()}


def _common_zeros(components, coeff_scale: float) -> list[ProjectivePoint]:
    """Common zeros of coprime components; see `indeterminacy_set`."""
    degree = max(c.degree for c in components)
    points: list[ProjectivePoint] = []
    numeric_candidates: list[np.ndarray] = []

    # chart x = 1: the t-values of the common zeros are among the roots of
    # a resultant in y of two combinations of the components
    F = [{(j, k): c for (_, j, k), c in comp.terms.items()} for comp in components]
    for alpha, beta in _RESULTANT_COMBINATIONS:
        g1, g2 = _combination(F, alpha), _combination(F, beta)
        if g1 and g2 and max(j for j, _ in [*g1, *g2]) > 0:
            res = _resultant_in_y(g1, g2, degree)
            if res:
                break
    else:
        raise MapError("no combination of the components has a nonzero resultant in y")
    t_exact, numeric_t = _gaussian_roots(res) if len(res) > 1 else ([], [])
    for tv in t_exact:
        fiber = _univariate_gcd(_in_y(f, tv) for f in F)
        if not fiber:
            raise PositiveDimensionalLocus("fiber over a root is one-dimensional")
        if len(fiber) == 1:
            continue
        y_exact, y_numeric = _gaussian_roots(fiber)
        points.extend(ProjectivePoint([_CR_ONE, yv, tv], exact=True) for yv in y_exact)
        if y_numeric:
            numeric_t.append(complex(tv))
    for tv in numeric_t:
        # back-substitute numerically: y-roots of the first component that
        # does not vanish identically on the fiber
        for comp in components:
            coeffs = _line_restriction(comp, (1.0, 0.0, tv), (0.0, 1.0, 0.0))
            if np.abs(coeffs).max() > 1e-12 * max(coeff_scale, 1.0):
                for yv in np.roots(coeffs[::-1]):
                    numeric_candidates.append(np.array([1.0, yv, tv], dtype=np.complex128))
                break

    # chart x = 0, y = 1
    line = [[CR_ZERO] * (degree + 1) for _ in components]
    for row, comp in zip(line, components):
        for (i, _, k), c in comp.terms.items():
            if not i:
                row[k] = c
    qt = _univariate_gcd(line)
    if not qt:
        raise PositiveDimensionalLocus("the line x = 0 lies in the common zero locus")
    if len(qt) > 1:
        line_exact, line_numeric = _gaussian_roots(qt)
        points.extend(ProjectivePoint([CR_ZERO, _CR_ONE, tv], exact=True) for tv in line_exact)
        numeric_candidates.extend(np.array([0.0, 1.0, tv], dtype=np.complex128)
                                  for tv in line_numeric)

    # remaining point [0:0:1]
    if all((0, 0, c.degree) not in c.terms for c in components):
        points.append(ProjectivePoint([CR_ZERO, CR_ZERO, _CR_ONE], exact=True))

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


def chart_map(f: RationalSurfaceMap, chart_in: int, chart_out: int, z1, z2):
    """Chart expression of a plane map, evaluated in batches.

    Takes source coordinates ``(z1, z2)`` in chart ``chart_in`` to target
    coordinates ``(w1, w2)`` in chart ``chart_out``.  Returns them with the
    2x2 Jacobian entries (``J[l][j] = dw_l / dz_j``) and ``D``, the target
    pivot coordinate of F that both are divided by; a small |D| means the
    point nears the target chart's line at infinity.  The three components
    and their six partials share one power table per coordinate.
    """
    in_vars = [i for i in range(3) if i != chart_in]
    out_vars = [i for i in range(3) if i != chart_out]
    hom = tuple(_PowerTable(v) for v in chart_embed(chart_in, z1, z2))
    comps = f.components
    F = [c.evaluate_numeric(hom) for c in comps]
    D = np.asarray(F[chart_out])
    with np.errstate(divide="ignore", invalid="ignore"):
        w1 = F[out_vars[0]] / D
        w2 = F[out_vars[1]] / D
        dF = [[c.derivative(v).evaluate_numeric(hom) for v in in_vars] for c in comps]
        D2 = D * D
        J = [[None, None], [None, None]]
        for l, out in enumerate(out_vars):
            for j in range(2):
                J[l][j] = (dF[out][j] * D - F[out] * dF[chart_out][j]) / D2
    return w1, w2, J, D
