"""Exact scalars, projective points, homogeneous polynomials, chordal metric."""

import math
from fractions import Fraction

import numpy as np
import pytest

from biratdyn.geometry import (
    ComplexRational,
    GeometryError,
    HomogeneousPolynomial,
    ProjectivePoint,
    poly_divide_exact,
    poly_factor,
    poly_gcd,
    proj_distance,
)

CR = ComplexRational
P = ProjectivePoint.exact_point


def mono(i, j, k, c=1):
    return HomogeneousPolynomial.monomial(i, j, k, c)


def rand_cr(rng, size=6):
    return CR(
        Fraction(int(rng.integers(-size, size + 1)), int(rng.integers(1, size))),
        Fraction(int(rng.integers(-size, size + 1)), int(rng.integers(1, size))),
    )


class TestComplexRational:
    def test_field_arithmetic(self):
        a = CR(Fraction(1, 2), Fraction(-3, 4))
        b = CR(Fraction(2, 3), Fraction(5, 7))
        assert (a + b) - b == a
        assert (a * b) / b == a
        assert a * b == b * a
        assert a + (-a) == CR(0)
        assert complex(CR(1, 2)) == 1 + 2j

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            CR(1) / CR(0)

    def test_abs2_and_conj(self):
        z = CR(Fraction(3, 5), Fraction(4, 5))
        assert z.abs2() == Fraction(1)
        assert (z * z.conjugate()).re == z.abs2()
        assert (z * z.conjugate()).im == 0

    def test_quadruple_roundtrip(self):
        z = CR.from_quadruple(3, 6, -2, 4)
        assert (z.re_num, z.re_den, z.im_num, z.im_den) == (1, 2, -1, 2)

    def test_random_field_axioms(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a, b, c = (rand_cr(rng) for _ in range(3))
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)
            if not b.is_zero():
                assert (a / b) * b == a


class TestProjectivePoint:
    def test_zero_vector_rejected(self):
        with pytest.raises(GeometryError):
            P(0, 0, 0)
        with pytest.raises(GeometryError):
            ProjectivePoint.numeric_point(0.0, 0.0, 0.0)

    def test_same_point_exact_scaling(self):
        p = P(1, 2, 3)
        q = ProjectivePoint([CR(5) * CR(1), CR(5) * CR(2), CR(5) * CR(3)])
        assert p.same_point(q)
        assert not p.same_point(P(1, 2, 4))

    def test_unit_vector_norm(self):
        v = P(3, 4, 12).unit_vector()
        assert abs(np.linalg.norm(v) - 1.0) < 1e-14

    def test_unit_vector_beyond_double_range(self):
        # float(2**2000) overflows, so the coordinates are rescaled exactly
        v = P(2**2000, 3 * 2**1998, 1).unit_vector()
        assert np.allclose(v, [0.8, 0.6, 0.0], rtol=0, atol=1e-15)
        assert P(2**600, 1, 0).unit_vector()[0] == 1.0

    def test_unit_vector_converted_once(self):
        # the all-pairs separation scan asks for it once per pair
        p = P(2**2000, ComplexRational(0, 3 * 2**1998), 1)
        v = p.unit_vector()
        assert p.unit_vector() is v and not v.flags.writeable
        assert v.tolist() == [0.8, 0.6000000000000001j, 0j]

    def test_reduced_representative(self):
        p = ProjectivePoint([CR(Fraction(2, 3)), CR(Fraction(4, 3)), CR(2)])
        r = p.reduced()
        assert p.same_point(r)
        assert all(c.re_den == 1 and c.im_den == 1 for c in r.coords)
        # content removed: gcd of integer parts is 1
        g = 0
        for c in r.coords:
            g = math.gcd(g, abs(c.re_num))
            g = math.gcd(g, abs(c.im_num))
        assert g == 1


class TestProjDistance:
    def test_orthogonal_points(self):
        assert proj_distance(P(1, 0, 0), P(0, 1, 0)) == 1.0

    def test_45_degrees(self):
        d = proj_distance(P(1, 0, 0), P(1, 1, 0))
        assert abs(d - 1.0 / math.sqrt(2.0)) < 1e-15

    def test_equal_points_exact_zero(self):
        assert proj_distance(P(2, -3, 7), P(2, -3, 7)) == 0.0
        assert proj_distance(P(2, -3, 7), P(-4, 6, -14)) == 0.0

    def test_scaling_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            coords = [rand_cr(rng) for _ in range(3)]
            if all(c.is_zero() for c in coords):
                continue
            lam = rand_cr(rng)
            if lam.is_zero():
                lam = CR(1, 1)
            p = ProjectivePoint(coords)
            q = ProjectivePoint([lam * c for c in coords])
            r = ProjectivePoint([rand_cr(rng) for _ in range(3)])
            assert abs(proj_distance(p, r) - proj_distance(q, r)) < 1e-12

    def test_numeric_matches_exact(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            a = [rand_cr(rng) for _ in range(3)]
            b = [rand_cr(rng) for _ in range(3)]
            try:
                p, q = ProjectivePoint(a), ProjectivePoint(b)
            except GeometryError:
                continue
            d_exact = proj_distance(p, q)
            d_num = proj_distance(p.numeric(), q.numeric())
            assert abs(d_exact - d_num) < 1e-12

    def test_range_and_symmetry(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            u = rng.normal(size=3) + 1j * rng.normal(size=3)
            v = rng.normal(size=3) + 1j * rng.normal(size=3)
            p = ProjectivePoint.numeric_point(*u)
            q = ProjectivePoint.numeric_point(*v)
            d = proj_distance(p, q)
            assert 0.0 <= d <= 1.0
            assert abs(d - proj_distance(q, p)) < 1e-15

    def test_triangle_inequality(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            pts = [
                ProjectivePoint.numeric_point(*(rng.normal(size=3) + 1j * rng.normal(size=3)))
                for _ in range(3)
            ]
            d01 = proj_distance(pts[0], pts[1])
            d12 = proj_distance(pts[1], pts[2])
            d02 = proj_distance(pts[0], pts[2])
            assert d02 <= d01 + d12 + 1e-12


class TestHomogeneousPolynomial:
    def test_inhomogeneous_rejected(self):
        with pytest.raises(GeometryError):
            HomogeneousPolynomial(2, {(1, 0, 0): CR(1)})

    def test_addition_degree_mismatch(self):
        with pytest.raises(GeometryError):
            mono(1, 0, 0) + mono(2, 0, 0)

    def test_arithmetic(self):
        x, y, t = mono(1, 0, 0), mono(0, 1, 0), mono(0, 0, 1)
        p = (x + y) * (x - y)
        assert p == x * x - y * y
        assert (p * t).degree == 3
        assert (x + y) - (x + y) == HomogeneousPolynomial.zero(1)

    def test_derivative(self):
        # d/dx (x^2 y + 3 x t^2) = 2 x y + 3 t^2
        p = mono(2, 1, 0) + mono(1, 0, 2, 3)
        dp = p.derivative(0)
        assert dp == mono(1, 1, 0, 2) + mono(0, 0, 2, 3)

    def test_euler_identity(self):
        # x p_x + y p_y + t p_t = deg(p) * p for homogeneous p
        rng = np.random.default_rng(23)
        for _ in range(20):
            d = int(rng.integers(1, 5))
            terms = {}
            for _ in range(6):
                i = int(rng.integers(0, d + 1))
                j = int(rng.integers(0, d - i + 1))
                terms[(i, j, d - i - j)] = rand_cr(rng)
            p = HomogeneousPolynomial(d, terms)
            lhs = (
                mono(1, 0, 0) * p.derivative(0)
                + mono(0, 1, 0) * p.derivative(1)
                + mono(0, 0, 1) * p.derivative(2)
            )
            assert lhs == p * d

    def test_evaluate_exact_vs_numeric(self):
        p = mono(2, 0, 0) + mono(0, 1, 1, CR(0, 1)) + mono(1, 1, 0, -3)
        pt = P(2, -1, 3)
        exact = p.evaluate_exact(pt.coords)
        numeric = p.evaluate_numeric(np.array([2, -1, 3], dtype=np.complex128))
        # x^2 + i y t - 3 x y at (2, -1, 3) = 4 - 3i + 6 = 10 - 3i
        assert exact == CR(10, -3)
        assert abs(numeric - complex(10, -3)) < 1e-12

    def test_evaluate_homogeneity_scaling(self):
        p = mono(2, 1, 0) + mono(0, 0, 3, 5)
        v = np.array([0.3 - 0.2j, 1.1 + 0.7j, -0.5 + 0.9j])
        lam = 1.7 - 0.4j
        a = p.evaluate_numeric(lam * v)
        b = (lam**3) * p.evaluate_numeric(v)
        assert abs(a - b) < 1e-12 * max(1.0, abs(b))


class TestPolyGcd:
    def test_monomial_gcd(self):
        g = poly_gcd([mono(1, 1, 0), mono(1, 0, 1)])
        assert g == mono(1, 0, 0)

    def test_coprime_gcd_is_one(self):
        g = poly_gcd([mono(2, 0, 0) + mono(0, 2, 0), mono(0, 0, 1)])
        assert g.degree == 0 and not g.is_zero()

    def test_reconstruct_common_factor(self):
        x, y, t = mono(1, 0, 0), mono(0, 1, 0), mono(0, 0, 1)
        g = x + y * CR(2, 1)
        a = x * x + t * t * 3
        b = y * t
        gg = poly_gcd([g * a, g * b])
        assert gg == g.monic()

    def test_gcd_divides_exactly(self):
        rng = np.random.default_rng(31)
        x, y, t = mono(1, 0, 0), mono(0, 1, 0), mono(0, 0, 1)
        for _ in range(10):
            g = x * rand_cr(rng) + y * rand_cr(rng) + t * rand_cr(rng)
            if g.is_zero():
                continue
            a = x * x + y * t * rand_cr(rng)
            b = y * y - x * t * rand_cr(rng)
            fam = [g * a, g * b]
            gg = poly_gcd(fam)
            for f in fam:
                q = poly_divide_exact(f, gg)
                assert q * gg == f

    def test_gcd_of_zero_family_rejected(self):
        with pytest.raises(GeometryError):
            poly_gcd([HomogeneousPolynomial.zero(2)])

    def test_factor_squarefree_structure(self):
        x, y, t = mono(1, 0, 0), mono(0, 1, 0), mono(0, 0, 1)
        p = x * x * y * (x + t) * (x + t) * (x + t)
        factors = poly_factor(p)
        as_dict = {repr(f): m for f, m in factors}
        assert as_dict[repr(x.monic())] == 2
        assert as_dict[repr(y.monic())] == 1
        assert as_dict[repr((x + t).monic())] == 3

    def test_factor_product_of_rational_lines(self):
        # sympy's factoring over Q(i) alone ran for minutes on this product,
        # the Jacobian determinant of sigma o L^-1 for the generated map
        # L o sigma with L = [[-1, 1, 1], [1, 1, 1], [1, 1, -1]]
        x, y, t = mono(1, 0, 0), mono(0, 1, 0), mono(0, 0, 1)
        factors = poly_factor((y - t) * (x - y) * (x + t) * 256)
        assert [m for _, m in factors] == [1, 1, 1]
        assert {repr(f) for f, _ in factors} == {repr(g.monic()) for g in (y - t, x - y, x + t)}

    def test_factor_over_gaussian_rationals(self):
        # x^2 + y^2 = (x + i y)(x - i y) splits over Q(i)
        p = mono(2, 0, 0) + mono(0, 2, 0)
        factors = poly_factor(p)
        assert len(factors) == 2
        assert all(f.degree == 1 and m == 1 for f, m in factors)
        prod = factors[0][0] * factors[1][0]
        assert prod.monic() == p.monic()
