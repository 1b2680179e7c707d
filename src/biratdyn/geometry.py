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

`_term_sum` is the package's one term loop: exact values, floating values
on three scalars or three broadcast-compatible arrays, 113-bit shadow
balls, line restrictions and compositions all sum their terms through it,
and only the coefficient rows and coordinate types differ.  Partial
derivatives are memoized on the immutable polynomial.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

VARIABLE_NAMES = ("x", "y", "t")
# chordal distance below which two points, one of them numeric, are equal
_SAME_POINT_EPS = 1e-9


class GeometryError(ValueError):
    """Invalid geometric input (zero vector, inhomogeneous polynomial, ...)."""


def _power(base, n: int, one):
    """base**n for an integer n >= 0 by repeated squaring; n = 0 gives one."""
    if n < 0:
        raise GeometryError("negative power")
    result = one
    while n:
        if n & 1:
            result = result * base
        base = base * base if n > 1 else base
        n >>= 1
    return result


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

    def __pow__(self, n: int) -> "ComplexRational":
        return _power(self, n, ComplexRational(1))

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


class ProjectivePoint:
    """Point of P^2, stored as a homogeneous coordinate triple.

    Exact points hold ComplexRational coordinates; numeric points hold a
    complex128 triple normalized to unit Euclidean norm.  Exactness is
    preserved by the exact constructors and dropped explicitly via
    `numeric()`.
    """

    __slots__ = ("coords", "exact", "_integer_cache", "_unit_cache")

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
        object.__setattr__(self, "_unit_cache", None)

    def __setattr__(self, name, value):
        raise AttributeError("ProjectivePoint is immutable")

    @classmethod
    def exact_point(cls, a, b, c) -> "ProjectivePoint":
        return cls((a, b, c), exact=True)

    @classmethod
    def numeric_point(cls, a, b, c) -> "ProjectivePoint":
        return cls((a, b, c), exact=False)

    def unit_vector(self) -> np.ndarray:
        """Unit-norm complex128 representative, read-only; computed once
        per exact point."""
        if not self.exact:
            return self.coords
        if self._unit_cache is not None:
            return self._unit_cache
        try:
            v = np.asarray([complex(c) for c in self.coords], dtype=np.complex128)
            with np.errstate(over="ignore"):
                n = np.linalg.norm(v)
        except OverflowError:  # a coordinate beyond the double range
            n = math.inf
        if n < 1e-300 or not np.isfinite(n):
            # rescale exactly before converting: huge/tiny exact coords
            scale = max(max(abs(c.re), abs(c.im)) for c in self.coords)
            # each part over scale, rounded once by int / int division: the
            # float of the exact quotient without reducing a huge fraction
            v = np.asarray(
                [complex(c.re_num * scale.denominator / (c.re_den * scale.numerator),
                         c.im_num * scale.denominator / (c.im_den * scale.numerator))
                 for c in self.coords], dtype=np.complex128)
            n = np.linalg.norm(v)
        v = v / n
        v.flags.writeable = False
        object.__setattr__(self, "_unit_cache", v)
        return v

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

    def same_point(self, other: "ProjectivePoint") -> bool:
        """Projective equality: exact proportionality when both points are
        exact, chordal distance below _SAME_POINT_EPS otherwise."""
        if self.exact and other.exact:
            return _wedge_norm2(self._integer_form()[0], other._integer_form()[0]) == 0
        return proj_distance(self, other) < _SAME_POINT_EPS

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


def _unit_distances(ps, qs) -> list[list[float]]:
    """Chordal distances between the unit vectors of the points ps and qs,
    by `proj_distance`'s wedge formula for numeric points: a list of rows,
    one per p.  For exact points these are within about 1e-15 of the
    exactly decided distances."""
    if not ps or not qs:
        return [[] for _ in ps]
    u = np.array([p.unit_vector() for p in ps])[:, None, :]
    v = np.array([q.unit_vector() for q in qs])[None, :, :]
    w2 = sum(np.abs(u[..., a] * v[..., b] - u[..., b] * v[..., a]) ** 2
             for a, b in ((0, 1), (0, 2), (1, 2)))
    return np.sqrt(w2).tolist()


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

    def __pow__(self, n: int) -> "HomogeneousPolynomial":
        return _power(self, n, HomogeneousPolynomial.constant(1))

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
        x, y, t = (_coerce(v) for v in coords)
        acc = _term_sum(((*key, c) for key, c in self.terms.items()), x, y, t)
        return CR_ZERO if acc is None else acc

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
        array is read as three scalars.  The value is `_term_sum` over the
        cached complex rows, so scalars stay Python complex and arrays keep
        node-sized intermediates.  A term involving only scalar coordinates
        stays scalar: batched callers broadcast the result.
        """
        if isinstance(v, np.ndarray) and v.ndim == 1:
            v = v.tolist()
        x, y, t = v
        acc = _term_sum(self._numeric_terms(), x, y, t)
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


def _term_sum(rows, x, y, t):
    """Sum of cf * x**i * y**j * t**k over (i, j, k, cf) rows, in row order.

    Zero exponents are skipped and the sum starts from the first term, so
    no multiplication by one or addition to zero enters the result; None
    when there are no rows.  The arithmetic is whatever the coefficients
    and coordinates carry: Gaussian rationals, complex scalars or arrays,
    mpmath numbers, numpy polynomials in a line parameter, or homogeneous
    polynomials.
    """
    acc = None
    for i, j, k, cf in rows:
        term = cf
        if i:
            term = term * x**i
        if j:
            term = term * y**j
        if k:
            term = term * t**k
        acc = term if acc is None else acc + term
    return acc


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


# the coprimality certificate works modulo this prime; it is 1 mod 4, so i
# maps to a square root of -1 in GF(p)
_CERT_PRIME = 10**9 + 9
_CERT_I = pow(next(g for g in range(2, 100)
                   if pow(g, (_CERT_PRIME - 1) // 2, _CERT_PRIME) == _CERT_PRIME - 1),
              (_CERT_PRIME - 1) // 4, _CERT_PRIME)
# the certificate's line s * a + b, through no point of small height
_CERT_LINE = ((1, 2718281, 3141592), (1414213, 1, 1732050))


def _mod_mul(f: list[int], g: list[int]) -> list[int]:
    """Product over GF(p) of two coefficient lists, constant term first."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return [c % _CERT_PRIME for c in out]


def _mod_gcd(f: list[int], g: list[int]) -> list[int]:
    """A gcd over GF(p), up to a unit, of two coefficient lists (constant
    term first, no trailing zeros)."""
    while g:
        inv = pow(g[-1], -1, _CERT_PRIME)
        f = list(f)
        while len(f) >= len(g):
            q = f[-1] * inv
            shift = len(f) - len(g)
            for k, c in enumerate(g):
                f[shift + k] = (f[shift + k] - q * c) % _CERT_PRIME
            while f and not f[-1]:
                f.pop()
        f, g = g, f
    return f


def _mod_restriction(poly: HomogeneousPolynomial) -> list[int] | None:
    """Coefficients mod p of s -> poly(s a + b) on the certificate's line,
    constant term first and padded to poly.degree + 1 entries, with i read
    as a square root of -1 mod p; None when a denominator is divisible by p."""
    a, b = _CERT_LINE
    powers = [[[1]] for _ in range(3)]
    acc = [0] * (poly.degree + 1)
    for key, c in poly.terms.items():
        if c.re_den % _CERT_PRIME == 0 or c.im_den % _CERT_PRIME == 0:
            return None
        term = [(c.re_num * pow(c.re_den, -1, _CERT_PRIME)
                 + _CERT_I * c.im_num * pow(c.im_den, -1, _CERT_PRIME)) % _CERT_PRIME]
        for v, e in enumerate(key):
            while len(powers[v]) <= e:
                powers[v].append(_mod_mul(powers[v][-1], [b[v], a[v]]))
            if e:
                term = _mod_mul(term, powers[v][e])
        for n, t in enumerate(term):
            acc[n] += t
    return [t % _CERT_PRIME for t in acc]


def _coprime_certificate(polys: Sequence[HomogeneousPolynomial]) -> bool:
    """True only when the nonzero polynomials are certainly coprime.

    Each polynomial P is restricted to the fixed line s -> s a + b and
    reduced modulo p, with i -> sqrt(-1) mod p: a polynomial in s whose
    coefficient of s^deg P is P(a) mod p.  Suppose a common factor h of
    positive degree exists over Q(i), content-free over Z[i].  By Gauss's
    lemma each P, times its denominator (a unit mod p), is h times a
    Z[i]-polynomial, and reducing modulo the prime of Z[i] above p is a
    ring map, so the factorization survives.  The reduced restriction of h
    is then either zero, which makes every restriction zero, or a binary
    form of degree deg h >= 1, whose root in P^1 over the algebraic closure
    of GF(p) every restriction shares: at s = infinity, where every P(a)
    vanishes mod p, or at a finite s, which their gcd over GF(p) keeps.
    Restrictions that are not all zero, do not all vanish at a and have a
    constant gcd therefore prove the inputs coprime.  Every other outcome,
    and a denominator divisible by p, leaves the question open (False).
    """
    gcd, at_a = None, False
    for poly in polys:
        r = _mod_restriction(poly)
        if r is None:
            return False
        at_a = at_a or r[-1] != 0
        while r and not r[-1]:
            r.pop()
        if r:
            gcd = r if gcd is None else _mod_gcd(gcd, r)
    return gcd is not None and len(gcd) == 1 and at_a


def poly_gcd(polys: Iterable[HomogeneousPolynomial]) -> HomogeneousPolynomial:
    """Greatest common divisor of homogeneous polynomials, normalized so the
    lexicographically-leading coefficient is 1.  The gcd of homogeneous
    polynomials is homogeneous; the result divides each input exactly.

    Coprime inputs are recognized without sympy by a modular certificate
    (`_coprime_certificate`): restricted to a fixed line and reduced modulo
    the prime 10^9 + 9, their restrictions share no root in P^1, which a
    common factor over Q(i) would force.  The certificate never reports
    coprime inputs that have a common factor, so whenever it cannot decide
    (a real common factor, or a coincidence modulo p) sympy's gcd runs."""
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        raise GeometryError("gcd of all-zero family is undefined")
    if _coprime_certificate(polys):
        return HomogeneousPolynomial.constant(1)
    sympy, gens = _sympy()
    exprs = [to_sympy(p) for p in polys]
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
    # sympy's factoring over Q(i) can stall even on a product of rational
    # linear forms ((y - t)(x - y)(x + t) ran for minutes), so a rational
    # polynomial is split over Q first and only its factors of degree >= 2
    # are split further over Q(i)
    expr = to_sympy(poly)
    if all(not c.im for c in poly.terms.values()):
        _, factors = sympy.factor_list(expr, *gens)
    else:
        factors = [(expr, 1)]
    out = []
    for expr, mult in factors:
        f = from_sympy(expr)
        parts = [(expr, 1)] if f.degree == 1 else sympy.factor_list(expr, *gens, extension=sympy.I)[1]
        for part, k in parts:
            g = from_sympy(part)
            if g.degree > 0:
                out.append((g.monic(), int(k) * int(mult)))
    out.sort(key=lambda fm: (fm[0].degree, sorted(fm[0].terms.keys()), fm[1]))
    return out
