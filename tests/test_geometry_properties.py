"""Property tests: the exact chordal distance and the sympy bridge agree
bit for bit with their straightforward reference formulas.

The references below are the plain `Fraction` formulas: the chordal
distance from ComplexRational cross products rounded through
`float(Fraction)`, proportionality by three cross products, and a sympy
Expr summed one term at a time.
"""

import math
from fractions import Fraction

import sympy
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from biratdyn.geometry import (
    ComplexRational,
    HomogeneousPolynomial,
    ProjectivePoint,
    proj_distance,
    to_sympy,
)

CR = ComplexRational
P = ProjectivePoint.exact_point

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def fraction_distance(p: ProjectivePoint, q: ProjectivePoint) -> float:
    """Reference chordal distance in exact `Fraction` arithmetic."""
    a, b = p.coords, q.coords
    wedge = Fraction(0)
    for i in range(3):
        for j in range(i + 1, 3):
            wedge += (a[i] * b[j] - a[j] * b[i]).abs2()
    n2 = sum(c.abs2() for c in a) * sum(c.abs2() for c in b)
    ratio = wedge / n2
    if ratio == 0:
        return 0.0
    if ratio == 1:
        return 1.0
    return math.sqrt(float(ratio))


def cross_products_vanish(p: ProjectivePoint, q: ProjectivePoint) -> bool:
    a, b = p.coords, q.coords
    return all((a[i] * b[j] - a[j] * b[i]).is_zero()
               for i in range(3) for j in range(i + 1, 3))


def naive_to_sympy(poly: HomogeneousPolynomial):
    x, y, t = sympy.symbols("x y t")
    expr = sympy.Integer(0)
    for (i, j, k), c in poly.terms.items():
        coeff = sympy.Rational(c.re_num, c.re_den) + sympy.I * sympy.Rational(c.im_num, c.im_den)
        expr += coeff * x**i * y**j * t**k
    return expr


def rationals(bits: int, integral: bool = False):
    nums = st.integers(-(2**bits), 2**bits)
    if integral:
        return nums.map(Fraction)
    return st.builds(Fraction, nums, st.integers(1, 2**bits))


def gaussian(bits: int = 40, integral: bool = False):
    return st.builds(CR, rationals(bits, integral), rationals(bits, integral))


def points(bits: int = 40, integral: bool = False):
    return (st.tuples(*[gaussian(bits, integral)] * 3)
            .filter(lambda cs: not all(c.is_zero() for c in cs))
            .map(lambda cs: P(*cs)))


nonzero_scalars = gaussian(64).filter(lambda c: not c.is_zero())


class TestExactDistance:
    @SETTINGS
    @given(points(), points())
    def test_matches_fraction_formula(self, p, q):
        assert proj_distance(p, q) == fraction_distance(p, q)
        assert p.same_point(q) == cross_products_vanish(p, q)

    @SETTINGS
    @given(points(2, integral=True), points(2, integral=True))
    def test_small_integral_points_hit_both_ends(self, p, q):
        # tiny coordinates make coincident and orthogonal pairs common
        assert proj_distance(p, q) == fraction_distance(p, q)
        assert p.same_point(q) == cross_products_vanish(p, q)

    @settings(max_examples=40, deadline=None)
    @given(points(2000), points(2000))
    def test_2000_bit_coordinates(self, p, q):
        assert proj_distance(p, q) == fraction_distance(p, q)

    @SETTINGS
    @given(points(), nonzero_scalars)
    def test_scaled_copy_is_distance_zero(self, p, lam):
        q = P(*(lam * c for c in p.coords))
        assert proj_distance(p, q) == 0.0
        assert proj_distance(q, p) == 0.0
        assert p.same_point(q)
        assert p.reduced().same_point(q.reduced())

    @SETTINGS
    @given(points(), nonzero_scalars)
    def test_orthogonal_pair_is_distance_one(self, p, lam):
        a, b, c = p.coords
        if a.is_zero() and b.is_zero():
            q = P(lam, 0, 0)
        else:
            # sum_i p_i * conj(q_i) = a b - b a = 0
            q = P(lam * b.conjugate(), -lam * a.conjugate(), 0)
        assert proj_distance(p, q) == 1.0
        assert fraction_distance(p, q) == 1.0
        assert not p.same_point(q)


@st.composite
def polynomials(draw, max_degree: int = 6, max_terms: int = 25):
    d = draw(st.integers(0, max_degree))
    keys = [(i, j, d - i - j) for i in range(d + 1) for j in range(d - i + 1)]
    chosen = draw(st.lists(st.sampled_from(keys), max_size=max_terms, unique=True))
    return HomogeneousPolynomial(d, {key: draw(gaussian(30)) for key in chosen})


class TestToSympy:
    @settings(max_examples=60, deadline=None)
    @given(polynomials())
    def test_matches_termwise_sum(self, poly):
        assert to_sympy(poly) == naive_to_sympy(poly)
