"""Property tests: the exact chordal distance, exact evaluation and the
sympy bridge agree bit for bit with their straightforward reference
formulas, the numeric polynomial evaluator agrees with exact evaluation and
with itself across scalar and batched calls, and a line restriction agrees
with evaluation along the line.

The references below are the plain `Fraction` formulas: the chordal
distance from ComplexRational cross products rounded through
`float(Fraction)`, proportionality by three cross products, exact values
from per-coordinate power tables, and a sympy Expr summed one term at a
time.
"""

import math
from fractions import Fraction

import numpy as np
import sympy
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from biratdyn.geometry import (
    ComplexRational,
    HomogeneousPolynomial,
    ProjectivePoint,
    _unit_distances,
    proj_distance,
    to_sympy,
)
from biratdyn.maps import _line_restriction

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


class TestUnitVector:
    @settings(max_examples=40, deadline=None)
    @given(points(3000, integral=True), st.integers(1, 2**64))
    def test_beyond_double_range_rounds_the_exact_quotient(self, p, den):
        """Past the double range each part is divided by the largest part
        and rounded once, as the float of the exact Fraction quotient."""
        p = P(*(c / den for c in p.coords))
        assume(max(max(abs(c.re), abs(c.im)) for c in p.coords) > 2**1100)
        scale = max(max(abs(c.re), abs(c.im)) for c in p.coords)
        want = np.array([complex(float(c.re / scale), float(c.im / scale)) for c in p.coords])
        assert np.array_equal(p.unit_vector(), want / np.linalg.norm(want))

    @SETTINGS
    @given(points(), points())
    def test_unit_distances_near_exact_ones(self, p, q):
        got = _unit_distances([p.unit_vector()], [q.unit_vector()])
        assert got.shape == (1, 1)
        assert abs(got[0, 0] - proj_distance(p, q)) < 1e-12


@st.composite
def polynomials(draw, max_degree: int = 6, max_terms: int = 25):
    d = draw(st.integers(0, max_degree))
    keys = [(i, j, d - i - j) for i in range(d + 1) for j in range(d - i + 1)]
    chosen = draw(st.lists(st.sampled_from(keys), max_size=max_terms, unique=True))
    return HomogeneousPolynomial(d, {key: draw(gaussian(30)) for key in chosen})


def power_table_value(poly: HomogeneousPolynomial, coords) -> ComplexRational:
    """Reference exact value: every power of each coordinate up to the
    degree tabulated once, then one product per term."""
    tables = []
    for c in coords:
        table = [CR(1)]
        for _ in range(poly.degree):
            table.append(table[-1] * c)
        tables.append(table)
    total = CR(0)
    for (i, j, k), coeff in poly.terms.items():
        total = total + coeff * tables[0][i] * tables[1][j] * tables[2][k]
    return total


class TestExactEvaluation:
    @SETTINGS
    @given(polynomials(), points(40))
    def test_matches_power_table(self, poly, p):
        assert poly.evaluate_exact(p.coords) == power_table_value(poly, p.coords)

    @SETTINGS
    @given(gaussian(40))
    def test_power_matches_repeated_product(self, z):
        product = CR(1)
        for n in range(7):
            assert z**n == product
            product = product * z


class TestToSympy:
    @settings(max_examples=60, deadline=None)
    @given(polynomials())
    def test_matches_termwise_sum(self, poly):
        assert to_sympy(poly) == naive_to_sympy(poly)


def abs_term_sum(poly: HomogeneousPolynomial, v) -> float:
    """Sum of the moduli of the terms at v: the scale of the rounding error
    of a term-by-term floating evaluation."""
    x, y, t = (abs(complex(c)) for c in v)
    return sum(abs(complex(c)) * x**i * y**j * t**k for (i, j, k), c in poly.terms.items())


class TestNumericEvaluation:
    @SETTINGS
    @given(polynomials(), points(20))
    def test_scalar_matches_exact(self, poly, p):
        v = np.array([complex(c) for c in p.coords])
        value = poly.evaluate_numeric(v)
        assert isinstance(value, complex)
        exact = complex(poly.evaluate_exact(p.coords))
        assert abs(value - exact) <= 1e-12 * abs_term_sum(poly, p.coords)

    @SETTINGS
    @given(polynomials(), st.integers(0, 2**32 - 1), st.integers(1, 9))
    def test_batched_matches_scalar_rows(self, poly, seed, m):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(m, 3)) + 1j * rng.normal(size=(m, 3))
        batched = np.broadcast_to(poly.evaluate_numeric(pts.T), (m,))
        for row, val in zip(pts, batched):
            scale = max(abs_term_sum(poly, row), 1e-300)
            assert abs(poly.evaluate_numeric(row) - val) <= 1e-13 * scale
        # a chart-style call mixes a scalar coordinate with arrays
        z1, z2 = pts[:, 0], pts[:, 1]
        mixed = np.broadcast_to(poly.evaluate_numeric((z1, 1.0, z2)), (m,))
        for a, b, val in zip(z1, z2, mixed):
            scale = max(abs_term_sum(poly, (a, 1.0, b)), 1e-300)
            assert abs(poly.evaluate_numeric((complex(a), 1.0, complex(b))) - val) <= 1e-13 * scale


class TestLineRestriction:
    @SETTINGS
    @given(polynomials(), st.integers(0, 2**32 - 1))
    def test_matches_evaluation_along_the_line(self, poly, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        coeffs = _line_restriction(poly, a, b)
        assert coeffs.shape == (poly.degree + 1,)
        for s in rng.normal(size=4) + 1j * rng.normal(size=4):
            value = np.polynomial.polynomial.polyval(s, coeffs)
            # expanding (a + s b)**e termwise sums moduli up to this scale
            scale = abs_term_sum(poly, np.abs(a) + abs(s) * np.abs(b))
            assert abs(value - poly.evaluate_numeric(a + s * b)) <= 1e-12 * max(scale, 1e-300)
