"""Exact projective geometry over the Gaussian rationals.

Building blocks for dynamics on the complex projective plane: scalars in
Q(i) with exact arithmetic, projective points in exact or floating form,
sparse homogeneous polynomials in three variables, the Fubini-Study
chordal metric, and gcd of polynomial families.

Exact objects use `fractions.Fraction` components, so coefficient growth
is limited only by memory; floating objects use complex128 throughout.
Chordal distances and proportionality between exact points are decided in
Gaussian-integer arithmetic on denominator-free coordinates (Python ints),
and a distance strictly between 0 and 1 is rounded to a float only once.

`HomogeneousPolynomial.evaluate_numeric` is the package's one floating
evaluator of a polynomial: one term loop over cached complex coefficients,
run on three scalars or on three broadcast-compatible arrays.  Partial
derivatives are memoized on the immutable polynomial.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

VARIABLE_NAMES = ("x", "y", "t")


class GeometryError(ValueError):
    """Invalid geometric input (zero vector, inhomogeneous polynomial, ...)."""


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float) and value == int(value):
        return Fraction(int(value))
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


class ComplexRational:
    """Element of Q(i): exact complex number with rational real/imag parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("ComplexRational is immutable")

    @classmethod
    def from_quadruple(cls, re_num: int, re_den: int, im_num: int, im_den: int) -> "ComplexRational":
        return cls(Fraction(re_num, re_den), Fraction(im_num, im_den))

    @property
    def re_num(self) -> int:
        return self.re.numerator

    @property
    def re_den(self) -> int:
        return self.re.denominator

    @property
    def im_num(self) -> int:
        return self.im.numerator

    @property
    def im_den(self) -> int:
        return self.im.denominator

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def conjugate(self) -> "ComplexRational":
        return ComplexRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        """|z|^2 as an exact rational."""
        return self.re * self.re + self.im * self.im

    def __add__(self, other):
        other = _coerce(other)
        return ComplexRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return ComplexRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        return ComplexRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        d = other.abs2()
        if not d:
            raise ZeroDivisionError("division by zero in Q(i)")
        num = self * other.conjugate()
        return ComplexRational(num.re / d, num.im / d)

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __neg__(self):
        return ComplexRational(-self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ComplexRational(other)
        if not isinstance(other, ComplexRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def bit_size(self) -> int:
        """Largest bit length among the four integer components."""
        return max(
            self.re.numerator.bit_length(),
            self.re.denominator.bit_length(),
            self.im.numerator.bit_length(),
            self.im.denominator.bit_length(),
        )

    def __repr__(self):
        if not self.im:
            return f"ComplexRational({self.re})"
        return f"ComplexRational({self.re}, {self.im})"


def _coerce(value) -> ComplexRational:
    if isinstance(value, ComplexRational):
        return value
    if isinstance(value, (int, Fraction)):
        return ComplexRational(value)
    raise TypeError(f"cannot coerce {value!r} to ComplexRational")


CR_ZERO = ComplexRational(0)
CR_ONE = ComplexRational(1)


class ProjectivePoint:
    """Point of P^2, stored as a homogeneous coordinate triple.

    Exact points hold ComplexRational coordinates; numeric points hold a
    complex128 triple normalized to unit Euclidean norm.  Exactness is
    preserved by the exact constructors and dropped explicitly via
    `numeric()`.
    """

    __slots__ = ("coords", "exact", "_integer_cache")

    def __init__(self, coords: Sequence, exact: bool | None = None):
        coords = tuple(coords)
        if len(coords) != 3:
            raise GeometryError("projective point needs exactly 3 coordinates")
        if exact is None:
            exact = all(isinstance(c, (ComplexRational, int, Fraction)) for c in coords)
        if exact:
            cs = tuple(_coerce(c) for c in coords)
            if all(c.is_zero() for c in cs):
                raise GeometryError("zero vector does not define a projective point")
            object.__setattr__(self, "coords", cs)
            object.__setattr__(self, "exact", True)
        else:
            v = np.asarray([complex(c) for c in coords], dtype=np.complex128)
            n = np.linalg.norm(v)
            if not np.isfinite(n) or n < 1e-300:
                raise GeometryError("zero or non-finite vector does not define a projective point")
            object.__setattr__(self, "coords", v / n)
            object.__setattr__(self, "exact", False)
        object.__setattr__(self, "_integer_cache", None)

    def __setattr__(self, name, value):
        raise AttributeError("ProjectivePoint is immutable")

    @classmethod
    def exact_point(cls, a, b, c) -> "ProjectivePoint":
        return cls((a, b, c), exact=True)

    @classmethod
    def numeric_point(cls, a, b, c) -> "ProjectivePoint":
        return cls((a, b, c), exact=False)

    def unit_vector(self) -> np.ndarray:
        """Unit-norm complex128 representative."""
        if not self.exact:
            return self.coords
        v = np.asarray([complex(c) for c in self.coords], dtype=np.complex128)
        n = np.linalg.norm(v)
        if n < 1e-300 or not np.isfinite(n):
            # rescale exactly before converting: huge/tiny exact coords
            scale = max(max(abs(c.re), abs(c.im)) for c in self.coords)
            cs = [c / ComplexRational(scale) for c in self.coords]
            v = np.asarray([complex(c) for c in cs], dtype=np.complex128)
            n = np.linalg.norm(v)
        return v / n

    def numeric(self) -> "ProjectivePoint":
        if not self.exact:
            return self
        v = self.unit_vector()
        return ProjectivePoint(v, exact=False)

    def chart_index(self) -> int:
        """Index of a largest-modulus coordinate (affine chart selector)."""
        v = self.unit_vector()
        return int(np.argmax(np.abs(v)))

    def _integer_form(self) -> tuple[tuple[int, ...], int]:
        """Exact coordinates times their least common denominator, as the
        flat Python-int tuple (re0, im0, re1, im1, re2, im2), together with
        its squared Euclidean norm.  Computed once per exact point."""
        form = self._integer_cache
        if form is None:
            parts = [part for c in self.coords for part in (c.re, c.im)]
            den = math.lcm(*(part.denominator for part in parts))
            ints = tuple(part.numerator * (den // part.denominator) for part in parts)
            form = (ints, sum(v * v for v in ints))
            object.__setattr__(self, "_integer_cache", form)
        return form

    def scaled_integer_coords(self) -> tuple[ComplexRational, ComplexRational, ComplexRational]:
        """Rescale an exact point so all components are Gaussian integers
        with no common integer factor.  Keeps orbit coordinates small."""
        if not self.exact:
            raise GeometryError("scaled_integer_coords needs an exact point")
        ints, _ = self._integer_form()
        g = math.gcd(*ints) or 1
        return tuple(
            ComplexRational(Fraction(ints[k] // g), Fraction(ints[k + 1] // g))
            for k in (0, 2, 4)
        )

    def reduced(self) -> "ProjectivePoint":
        """Content-free Gaussian-integer representative of an exact point."""
        return ProjectivePoint(self.scaled_integer_coords(), exact=True)

    def bit_size(self) -> int:
        if not self.exact:
            return 64
        return max(c.bit_size() for c in self.coords)

    def same_point(self, other: "ProjectivePoint", eps: float = 1e-9) -> bool:
        """Projective equality: exact proportionality when both points are
        exact, chordal distance below eps otherwise."""
        if self.exact and other.exact:
            return _wedge_norm2(self._integer_form()[0], other._integer_form()[0]) == 0
        return proj_distance(self, other) < eps

    def __repr__(self):
        if self.exact:
            inner = " : ".join(repr(c) for c in self.coords)
        else:
            inner = " : ".join(f"{c:.6g}" for c in self.coords)
        return f"[{inner}]"


def _wedge_norm2(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """|a ^ b|^2 = sum over i < j of |a_i b_j - a_j b_i|^2 for Gaussian-integer
    vectors given as flat (re0, im0, re1, im1, re2, im2) int tuples."""
    total = 0
    for i, j in ((0, 2), (0, 4), (2, 4)):
        re = a[i] * b[j] - a[i + 1] * b[j + 1] - a[j] * b[i] + a[j + 1] * b[i + 1]
        im = a[i] * b[j + 1] + a[i + 1] * b[j] - a[j] * b[i + 1] - a[j + 1] * b[i]
        total += re * re + im * im
    return total


def proj_distance(p: ProjectivePoint, q: ProjectivePoint) -> float:
    """Fubini-Study chordal distance on P^2, valued in [0, 1].

    dist(p, q) = |p ^ q| / (|p| |q|) = sqrt(1 - |<p_hat, q_hat>|^2),
    computed through the wedge product, which is stable at both distance
    scales.  For two exact points the squared wedge and the squared norms
    are Python ints on the points' Gaussian-integer forms, so 0 and 1 are
    decided exactly; any other ratio is rounded once by correctly rounded
    int / int division before the square root.
    """
    if p.exact and q.exact:
        (a, na), (b, nb) = p._integer_form(), q._integer_form()
        wedge = _wedge_norm2(a, b)
        n2 = na * nb
        if wedge == 0:
            return 0.0
        if wedge == n2:
            return 1.0
        return math.sqrt(wedge / n2)
    u, v = p.unit_vector(), q.unit_vector()
    w0 = u[0] * v[1] - u[1] * v[0]
    w1 = u[0] * v[2] - u[2] * v[0]
    w2 = u[1] * v[2] - u[2] * v[1]
    d = math.sqrt(abs(w0) ** 2 + abs(w1) ** 2 + abs(w2) ** 2)
    return min(d, 1.0)


class HomogeneousPolynomial:
    """Sparse homogeneous polynomial in (x, y, t) over Q(i).

    Terms live in a dict keyed by exponent triple; every key must sum to
    the declared degree.  The zero polynomial of any degree has an empty
    term dict.
    """

    __slots__ = ("degree", "terms", "_numeric_cache", "_derivatives")

    def __init__(self, degree: int, terms: Mapping[tuple[int, int, int], ComplexRational]):
        if degree < 0:
            raise GeometryError("degree must be nonnegative")
        clean: dict[tuple[int, int, int], ComplexRational] = {}
        for key, coeff in terms.items():
            i, j, k = key
            if i < 0 or j < 0 or k < 0 or i + j + k != degree:
                raise GeometryError(
                    f"term {key} is not homogeneous of degree {degree}"
                )
            c = _coerce(coeff)
            if not c.is_zero():
                clean[(int(i), int(j), int(k))] = c
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_numeric_cache", None)
        object.__setattr__(self, "_derivatives", [None, None, None])

    def __setattr__(self, name, value):
        raise AttributeError("HomogeneousPolynomial is immutable")

    @classmethod
    def monomial(cls, i: int, j: int, k: int, coeff=1) -> "HomogeneousPolynomial":
        return cls(i + j + k, {(i, j, k): _coerce(coeff)})

    @classmethod
    def zero(cls, degree: int) -> "HomogeneousPolynomial":
        return cls(degree, {})

    @classmethod
    def constant(cls, coeff) -> "HomogeneousPolynomial":
        c = _coerce(coeff)
        return cls(0, {(0, 0, 0): c} if not c.is_zero() else {})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "HomogeneousPolynomial") -> "HomogeneousPolynomial":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise GeometryError("cannot add homogeneous polynomials of different degree")
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            s = out.get(key, CR_ZERO) + coeff
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
        return HomogeneousPolynomial(self.degree, out)

    def __sub__(self, other: "HomogeneousPolynomial") -> "HomogeneousPolynomial":
        return self + (-other)

    def __neg__(self) -> "HomogeneousPolynomial":
        return HomogeneousPolynomial(self.degree, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, ComplexRational)):
            c = _coerce(other)
            if c.is_zero():
                return HomogeneousPolynomial.zero(self.degree)
            return HomogeneousPolynomial(self.degree, {k: v * c for k, v in self.terms.items()})
        out: dict[tuple[int, int, int], ComplexRational] = {}
        for (i1, j1, k1), c1 in self.terms.items():
            for (i2, j2, k2), c2 in other.terms.items():
                key = (i1 + i2, j1 + j2, k1 + k2)
                s = out.get(key, CR_ZERO) + c1 * c2
                if s.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = s
        return HomogeneousPolynomial(self.degree + other.degree, out)

    __rmul__ = __mul__

    def pow(self, n: int) -> "HomogeneousPolynomial":
        if n < 0:
            raise GeometryError("negative power")
        result = HomogeneousPolynomial.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def derivative(self, var: int) -> "HomogeneousPolynomial":
        """Partial derivative with respect to variable index 0, 1, or 2,
        computed once per polynomial and variable."""
        cached = self._derivatives[var]
        if cached is not None:
            return cached
        if self.degree == 0:
            cached = HomogeneousPolynomial.zero(0)
        else:
            out: dict[tuple[int, int, int], ComplexRational] = {}
            for key, coeff in self.terms.items():
                e = key[var]
                if e == 0:
                    continue
                new = list(key)
                new[var] = e - 1
                out[tuple(new)] = coeff * e
            cached = HomogeneousPolynomial(self.degree - 1, out)
        self._derivatives[var] = cached
        return cached

    def evaluate_exact(self, coords: Sequence[ComplexRational]) -> ComplexRational:
        total = CR_ZERO
        a, b, c = (_coerce(v) for v in coords)
        # cache powers of each coordinate up to the needed exponent
        pa = _power_table(a, self.degree)
        pb = _power_table(b, self.degree)
        pc = _power_table(c, self.degree)
        for (i, j, k), coeff in self.terms.items():
            total = total + coeff * pa[i] * pb[j] * pc[k]
        return total

    def _numeric_terms(self) -> tuple:
        """Cached (i, j, k, complex coefficient) rows in sorted key order."""
        terms = self._numeric_cache
        if terms is None:
            terms = tuple((i, j, k, complex(c)) for (i, j, k), c in sorted(self.terms.items()))
            object.__setattr__(self, "_numeric_cache", terms)
        return terms

    def evaluate_numeric(self, v):
        """Floating-point value at homogeneous coordinates v = (x, y, t).

        v holds three scalars or three broadcast-compatible arrays; a 1-D
        array is read as three scalars.  The value is the term sum of
        cf * x**i * y**j * t**k with zero exponents skipped, so scalars stay
        Python complex and arrays keep node-sized intermediates.  A term
        involving only scalar coordinates stays scalar: batched callers
        broadcast the result.
        """
        if isinstance(v, np.ndarray) and v.ndim == 1:
            v = v.tolist()
        x, y, t = v
        acc = None
        for i, j, k, cf in self._numeric_terms():
            term = cf
            if i:
                term = term * x**i
            if j:
                term = term * y**j
            if k:
                term = term * t**k
            acc = term if acc is None else acc + term
        return 0j if acc is None else acc

    def leading_key(self) -> tuple[int, int, int]:
        if not self.terms:
            raise GeometryError("zero polynomial has no leading term")
        return max(self.terms.keys())

    def monic(self) -> "HomogeneousPolynomial":
        """Normalize so the lexicographically-leading coefficient is 1."""
        if not self.terms:
            return self
        lead = self.terms[self.leading_key()]
        return HomogeneousPolynomial(self.degree, {k: c / lead for k, c in self.terms.items()})

    def max_coeff_bits(self) -> int:
        if not self.terms:
            return 0
        return max(c.bit_size() for c in self.terms.values())

    def __eq__(self, other):
        if not isinstance(other, HomogeneousPolynomial):
            return NotImplemented
        if self.is_zero() and other.is_zero():
            return True
        return self.degree == other.degree and self.terms == other.terms

    def __hash__(self):
        return hash((self.degree, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for key in sorted(self.terms.keys(), reverse=True):
            c = self.terms[key]
            mono = "*".join(
                f"{VARIABLE_NAMES[v]}^{e}" if e > 1 else VARIABLE_NAMES[v]
                for v, e in enumerate(key)
                if e
            )
            cs = repr(c)[len("ComplexRational("):-1]
            bits.append(f"({cs})*{mono}" if mono else f"({cs})")
        return " + ".join(bits)


def _power_table(base: ComplexRational, n: int) -> list[ComplexRational]:
    table = [CR_ONE]
    for _ in range(n):
        table.append(table[-1] * base)
    return table


# ---------------------------------------------------------------------------
# sympy bridge: gcd, factorization, exact division
# ---------------------------------------------------------------------------

_SYMPY = None


def _sympy():
    global _SYMPY
    if _SYMPY is None:
        import sympy

        gens = sympy.symbols(" ".join(VARIABLE_NAMES))
        _SYMPY = (sympy, gens)
    return _SYMPY


def to_sympy(poly: HomogeneousPolynomial):
    sympy, gens = _sympy()
    terms = []
    for (i, j, k), c in poly.terms.items():
        coeff = sympy.Rational(c.re_num, c.re_den) + sympy.I * sympy.Rational(c.im_num, c.im_den)
        terms.append(coeff * gens[0] ** i * gens[1] ** j * gens[2] ** k)
    # one n-ary Add: repeated `+=` re-flattens the growing sum, quadratic in terms
    return sympy.Add(*terms)


def from_sympy(expr) -> HomogeneousPolynomial:
    sympy, gens = _sympy()
    poly = sympy.Poly(sympy.expand(expr), *gens)
    terms: dict[tuple[int, int, int], ComplexRational] = {}
    degree = None
    for monom, coeff in poly.terms():
        re_part, im_part = coeff.as_real_imag()
        c = ComplexRational(
            Fraction(int(re_part.p), int(re_part.q)),
            Fraction(int(im_part.p), int(im_part.q)),
        )
        d = sum(monom)
        if degree is None:
            degree = d
        elif degree != d:
            raise GeometryError("sympy expression is not homogeneous")
        terms[tuple(int(e) for e in monom)] = c
    if degree is None:
        return HomogeneousPolynomial.zero(0)
    return HomogeneousPolynomial(degree, terms)


def poly_gcd(polys: Iterable[HomogeneousPolynomial]) -> HomogeneousPolynomial:
    """Greatest common divisor of homogeneous polynomials, normalized so the
    lexicographically-leading coefficient is 1.  The gcd of homogeneous
    polynomials is homogeneous; the result divides each input exactly."""
    sympy, gens = _sympy()
    exprs = [to_sympy(p) for p in polys if not p.is_zero()]
    if not exprs:
        raise GeometryError("gcd of all-zero family is undefined")
    g = exprs[0]
    for e in exprs[1:]:
        g = sympy.gcd(g, e)
        if g == 1:
            break
    return from_sympy(g).monic()


def poly_divide_exact(num: HomogeneousPolynomial, den: HomogeneousPolynomial) -> HomogeneousPolynomial:
    """Exact polynomial division; raises GeometryError on nonzero remainder."""
    sympy, gens = _sympy()
    if den.is_zero():
        raise GeometryError("division by zero polynomial")
    q, r = sympy.div(to_sympy(num), to_sympy(den), *gens)
    if sympy.expand(r) != 0:
        raise GeometryError("division is not exact")
    return from_sympy(q)


def poly_factor(poly: HomogeneousPolynomial) -> list[tuple[HomogeneousPolynomial, int]]:
    """Irreducible factorization over Q(i), constants dropped; each factor is
    returned monic with its multiplicity, sorted deterministically."""
    sympy, gens = _sympy()
    if poly.is_zero():
        raise GeometryError("cannot factor the zero polynomial")
    _, factors = sympy.factor_list(to_sympy(poly), *gens, extension=sympy.I)
    out = []
    for expr, mult in factors:
        f = from_sympy(expr)
        if f.degree == 0:
            continue
        out.append((f.monic(), int(mult)))
    out.sort(key=lambda fm: (fm[0].degree, sorted(fm[0].terms.keys()), fm[1]))
    return out
