"""Exceptional loci and coprimality without sympy, against sympy oracles.

`RationalSurfaceMap.indeterminacy_set` finds common zeros by resultants
and certified root isolation over Q(i), and `poly_gcd` certifies coprime
inputs modulo a prime before it falls back to sympy.  The oracles here are
the routes they replaced: a lex Groebner basis over Q(i) in each affine
chart with sympy's Gaussian factoring of the eliminants
(`groebner_common_zeros`, through `_solve_affine_pairs`, `_univar_roots`
and `_cr_from_sympy_number`), and sympy's gcd.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from biratdyn.geometry import (
    ComplexRational,
    HomogeneousPolynomial,
    ProjectivePoint,
    _coprime_certificate,
    _sympy,
    from_sympy,
    poly_gcd,
    proj_distance,
    to_sympy,
)
from biratdyn.mapfile import corpus_path, load_map
from biratdyn.maps import (
    _RESULTANT_COMBINATIONS,
    MapError,
    PositiveDimensionalLocus,
    RationalSurfaceMap,
    _combination,
    _gaussian_roots,
    _line_restriction,
    _resultant_in_y,
    compose,
)
from biratdyn.standard_maps import cremona_involution, henon_map, linear_map

SETTINGS = settings(max_examples=15, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------------------
# the Groebner oracle
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


def groebner_common_zeros(components, coeff_scale: float) -> list[ProjectivePoint]:
    """Common zeros of the components by Groebner bases, chart by chart."""
    sympy, (X, Y, T) = _sympy()
    F = [to_sympy(c) for c in components]
    points: list[ProjectivePoint] = []
    numeric_candidates: list[np.ndarray] = []

    # chart x = 1
    exact_pairs, numeric_v = _solve_affine_pairs([f.subs(X, 1) for f in F], Y, T)
    for yv, tv in exact_pairs:
        points.append(ProjectivePoint([ComplexRational(1), yv, tv], exact=True))
    for tv in numeric_v:
        for comp in components:
            coeffs = _line_restriction(comp, (1.0, 0.0, tv), (0.0, 1.0, 0.0))
            if np.abs(coeffs).max() > 1e-12 * max(coeff_scale, 1.0):
                for yv in np.roots(coeffs[::-1]):
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

    for p in points:
        if not all(c.evaluate_exact(p.coords).is_zero() for c in components):
            raise MapError("internal error: exact indeterminacy candidate fails to vanish")

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
# the resultant solver against the oracle
# ---------------------------------------------------------------------------


def exact_key(p: ProjectivePoint):
    return tuple((c.re, c.im) for c in p.reduced().coords)


def assert_same_loci(f: RationalSurfaceMap, ordered: bool):
    """The solver's I(f) against the oracle's: the same exact points (in
    the same order when ``ordered``), and numeric points pairwise within
    1e-9 chordally."""
    got = f.indeterminacy_set()
    want = groebner_common_zeros(f.components, f.coeff_scale())
    got_exact = [exact_key(p) for p in got if p.exact]
    want_exact = [exact_key(p) for p in want if p.exact]
    if ordered:
        assert [p.exact for p in got] == [p.exact for p in want]
        assert got_exact == want_exact
    else:
        assert sorted(got_exact) == sorted(want_exact)
    got_num = [p for p in got if not p.exact]
    want_num = [p for p in want if not p.exact]
    assert len(got_num) == len(want_num)
    for p in got_num:
        assert min(proj_distance(p, q) for q in want_num) < 1e-9
    return got


@pytest.mark.parametrize("name", ["cremona", "henon", "linear", "lsigma"])
def test_corpus_loci_equal_oracle_lists(name):
    f = load_map(corpus_path(name))
    assert_same_loci(f, ordered=True)
    assert_same_loci(f.inverse, ordered=True)


matrices = st.lists(st.lists(st.sampled_from([-1, 0, 1, 2]), min_size=3, max_size=3),
                    min_size=3, max_size=3)
rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def lsigma(m) -> RationalSurfaceMap:
    """L o sigma with its inverse sigma o L^-1."""
    sig = cremona_involution()
    L = linear_map(m, name="L")
    f = compose(L, sig)
    f.inverse = compose(sig, L.inverse)
    f.inverse.inverse = f
    return f


@SETTINGS
@given(matrices)
def test_generated_lsigma_loci_equal_oracle(m):
    # the integer determinant exactly: a float one can miss a singular matrix
    assume(round(np.linalg.det(np.array(m, dtype=float))) != 0)
    f = lsigma(m)
    assert_same_loci(f, ordered=False)
    assert_same_loci(f.inverse, ordered=False)


@SETTINGS
@given(rationals, rationals.filter(bool))
def test_generated_henon_loci_equal_oracle(c, delta):
    f = henon_map(c, delta)
    assert_same_loci(f, ordered=False)
    assert_same_loci(f.inverse, ordered=False)


@settings(SETTINGS, max_examples=12)
@given(matrices)
@example([[1, 1, 0], [1, -1, -1], [-1, 2, -1]])
def test_degree_four_square_loci_equal_oracle(m):
    """g = f o f for f = L o sigma, with f^-1 o f^-1 as its inverse.  In
    the example the eliminants of I(g^-1) have coefficients above 2**53,
    which once lost digits before root isolation and ended every command
    on g in exit 2."""
    assume(round(np.linalg.det(np.array(m, dtype=float))) != 0)
    f = lsigma(m)
    g = compose(f, f)
    g.inverse = compose(f.inverse, f.inverse)
    g.inverse.inverse = g
    assert_same_loci(g, ordered=False)
    assert_same_loci(g.inverse, ordered=False)


def test_roots_of_coefficients_above_double_precision():
    """-11682510375976562500 (t - 2) (99 t - 161) (t - 1) (t + 1), whose
    integer coefficients lie beyond 2**53, as those of I(g^-1) above do:
    rounded to doubles, its roots never isolate."""
    scale = 11682510375976562500
    exact, numeric = _gaussian_roots([ComplexRational(scale * c)
                                      for c in (322, -359, -223, 359, -99)])
    assert exact == [ComplexRational(2), ComplexRational(Fraction(161, 99)),
                     ComplexRational(1), ComplexRational(-1)]
    assert numeric == []


def is_rational_square(q: Fraction) -> bool:
    def square(n: int) -> bool:
        return math.isqrt(n) ** 2 == n
    return square(abs(q.numerator)) and square(q.denominator)


@SETTINGS
@given(st.fractions(min_value=-20, max_value=20, max_denominator=9))
def test_irrational_family_loci_equal_oracle(a):
    """[y^2 - a x^2 : x t : y t]: I(f) is [0 : 0 : 1] and [1 : +-sqrt(a) : 0],
    numeric unless a or -a is a rational square."""
    assume(a and not is_rational_square(a))
    x, y, t = (HomogeneousPolynomial.monomial(*e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    f = RationalSurfaceMap([y * y - x * x * a, x * t, y * t])
    pts = assert_same_loci(f, ordered=False)
    assert [p.exact for p in pts] == [True, False, False]
    for p in pts[1:]:
        u = p.unit_vector()
        assert abs((u[1] / u[0]) ** 2 - float(a)) < 1e-9 * max(1.0, abs(float(a)))


def test_resultant_pair_sharing_a_factor_is_skipped():
    """The first pair of combinations of these components is 5 (x y, y t),
    whose resultant in y vanishes identically; the next pair decides."""
    x, y, t = (HomogeneousPolynomial.monomial(*e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    f = RationalSurfaceMap([y * t * 2 - x * x - x * y, x * y * 3 - x * x * 7 - y * t, x * x * 5])
    chart = [{(j, k): c for (_, j, k), c in comp.terms.items()} for comp in f.components]
    first = [_combination(chart, w) for w in _RESULTANT_COMBINATIONS[0]]
    assert _resultant_in_y(*first, 2) == []
    assert_same_loci(f, ordered=True)


# ---------------------------------------------------------------------------
# the coprimality certificate against sympy's gcd
# ---------------------------------------------------------------------------


def sympy_gcd(polys) -> HomogeneousPolynomial:
    sympy, _ = _sympy()
    g = to_sympy(polys[0])
    for p in polys[1:]:
        g = sympy.gcd(g, to_sympy(p))
    return from_sympy(g).monic()


@st.composite
def forms(draw, degree: int):
    """A nonzero form of the given degree with small Gaussian coefficients."""
    keys = [(i, j, degree - i - j) for i in range(degree + 1) for j in range(degree + 1 - i)]
    chosen = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=4, unique=True))
    coeffs = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-2, 2)).filter(any),
                           min_size=len(chosen), max_size=len(chosen)))
    return HomogeneousPolynomial(degree, {k: ComplexRational(*c) for k, c in zip(chosen, coeffs)})


@settings(SETTINGS, max_examples=40)
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(forms(d), forms(d), forms(d))))
def test_certificate_never_contradicts_sympy(triple):
    """Drawn triples: certified exactly when sympy's gcd is 1, and poly_gcd
    equals sympy's gcd either way.  (Soundness is the one direction; the
    other holds unless the fixed line meets a common zero mod p, which
    these small forms do not.)"""
    want = sympy_gcd(list(triple))
    assert _coprime_certificate(list(triple)) == (want == HomogeneousPolynomial.constant(1))
    assert poly_gcd(triple) == want


@settings(SETTINGS, max_examples=25)
@given(st.integers(1, 2).flatmap(forms), st.tuples(forms(2), forms(2), forms(2)))
def test_certificate_rejects_common_factor(h, triple):
    """h (G1, G2, G3) with deg h = 1 or 2 is never certified coprime, and
    its gcd is h times the gcd of the G."""
    family = [h * g for g in triple]
    assert not _coprime_certificate(family)
    assert poly_gcd(family) == (h * sympy_gcd(list(triple))).monic()


def test_certificate_decides_corpus_constructors():
    """Loading the corpus certifies every component triple, so no sympy gcd
    runs."""
    for name in ["cremona", "henon", "linear", "lsigma"]:
        f = load_map(corpus_path(name))
        assert _coprime_certificate(f.components)
        assert _coprime_certificate(f.inverse.components)
