"""The exact kernel on Python ints against the Gaussian-rational oracle.

Exact values, images, substitutions and resultants run over Z[i]: integer
coefficient rows over one denominator, Gaussian-integer points, and
fraction-free determinants.  The oracles below are the same computations
in `ComplexRational` arithmetic, whose parts are `Fraction`s: `_term_sum`
over the polynomials' own coefficients, and Gaussian elimination over
Q(i) with divided differences.  Results are exact and canonical, so the
two routes must agree exactly, on drawn degree-2 maps f = L o sigma (L
with Gaussian-integer entries) and on their degree-4 squares f o f.

A guard then makes `ComplexRational` products and sums raise and checks
that the exceptional-orbit walk, the inverse check and the orbit tables
still finish on the corpus, so none of them can quietly fall back to
`Fraction` arithmetic.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from biratdyn.geometry import (
    CR_ZERO,
    ComplexRational,
    HomogeneousPolynomial,
    ProjectivePoint,
    _GaussianInteger,
    _term_sum,
)
from biratdyn.mapfile import corpus_path, load_map
from biratdyn.maps import (
    DEFAULT_COEFF_BIT_CAP,
    _RESULTANT_COMBINATIONS,
    _bareiss_determinant,
    _combination,
    _resultant_in_y,
    _substitute,
    chart_embed,
    chart_map,
    compose,
    orbit_walk,
    verify_inverse,
)
from biratdyn.stability import exceptional_orbits
from biratdyn.standard_maps import cremona_involution, linear_map

SETTINGS = settings(max_examples=10, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
CORPUS = ["cremona", "henon", "linear", "lsigma"]

entries = st.sampled_from([-1, 0, 1, 2, ComplexRational(0, 1), ComplexRational(1, -1)])
matrices = st.lists(st.lists(entries, min_size=3, max_size=3), min_size=3, max_size=3)
gaussian_integers = st.builds(ComplexRational, st.integers(-9, 9), st.integers(-9, 9))


def det3(m) -> ComplexRational:
    m = [[ComplexRational(0) + v for v in row] for row in m]
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def twisted(m):
    """f = L o sigma and f o f, each with its inverse linked both ways."""
    sig = cremona_involution()
    L = linear_map(m, name="L")
    f = compose(L, sig)
    f.inverse = compose(sig, L.inverse)
    f.inverse.inverse = f
    g = compose(f, f)
    g.inverse = compose(f.inverse, f.inverse)
    g.inverse.inverse = g
    return f, g


# ---------------------------------------------------------------------------
# the Gaussian-rational oracles
# ---------------------------------------------------------------------------


def oracle_image(f, p: ProjectivePoint):
    """f(p) summed in Q(i) and scaled to coprime Gaussian integers, or None
    where every component vanishes."""
    vals = [_term_sum([(*key, c) for key, c in comp.terms.items()], *p.coords) or CR_ZERO
            for comp in f.components]
    if all(v.is_zero() for v in vals):
        return None
    parts = [part for v in vals for part in (v.re, v.im)]
    den = math.lcm(*(part.denominator for part in parts))
    ints = [int(part * den) for part in parts]
    g = math.gcd(*ints)
    return tuple(ComplexRational(ints[k] // g, ints[k + 1] // g) for k in (0, 2, 4))


def oracle_substitute(f, g):
    """f's components with g's substituted, in HomogeneousPolynomial
    arithmetic over Q(i)."""
    out = []
    for comp in f.components:
        rows = [(*key, HomogeneousPolynomial.constant(c)) for key, c in comp.terms.items()]
        out.append(_term_sum(rows, *g.components) or HomogeneousPolynomial.zero(comp.degree * g.degree))
    return out


def oracle_determinant(m) -> ComplexRational:
    """Determinant over Q(i) by Gaussian elimination."""
    m = [list(row) for row in m]
    det = ComplexRational(1)
    for col in range(len(m)):
        pivot = next((r for r in range(col, len(m)) if not m[r][col].is_zero()), None)
        if pivot is None:
            return CR_ZERO
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det = det * m[col][col]
        for r in range(col + 1, len(m)):
            q = m[r][col] / m[col][col]
            m[r] = [u - q * v for u, v in zip(m[r], m[col])]
    return det


def oracle_resultant(f: dict, g: dict, degree: int) -> list:
    """Res_y(f, g) by Sylvester determinants over Q(i) at t = 0, ...,
    degree^2 and divided differences."""
    def in_y(h, t0, size):
        out = [CR_ZERO] * size
        for (j, k), c in h.items():
            out[size - 1 - j] = out[size - 1 - j] + c * ComplexRational(t0) ** k
        return out

    m = max(j for j, _ in f)
    n = max(j for j, _ in g)
    nodes = range(degree * degree + 1)
    dd = []
    for t0 in nodes:
        a, b = in_y(f, t0, m + 1), in_y(g, t0, n + 1)
        rows = [[CR_ZERO] * r + a + [CR_ZERO] * (n - 1 - r) for r in range(n)]
        rows += [[CR_ZERO] * r + b + [CR_ZERO] * (m - 1 - r) for r in range(m)]
        dd.append(oracle_determinant(rows))
    for level in range(1, len(dd)):
        for i in range(len(dd) - 1, level - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / level
    out: list = []
    for i in range(len(dd) - 1, -1, -1):
        out = [CR_ZERO] + out
        for k in range(len(out) - 1):
            out[k] = out[k] - out[k + 1] * nodes[i]
        out[0] = out[0] + dd[i]
    while out and out[-1].is_zero():
        out.pop()
    return out


# ---------------------------------------------------------------------------
# integer routes against the oracles
# ---------------------------------------------------------------------------


def assert_walks_equal_oracle(f, steps):
    for source in f.inverse.indeterminacy_set():
        assume(source.exact)
        points, end = orbit_walk(f, source, steps, DEFAULT_COEFF_BIT_CAP)
        assert end != "cap"
        for p, q in zip(points, points[1:]):
            assert q.coords == oracle_image(f, p)
            assert q._integer_form()[0] == tuple(part for c in q.coords for part in (c.re, c.im))
        if end == "indeterminate":
            assert oracle_image(f, points[-1]) is None


def assert_substitutions_equal_oracle(f, g):
    got = _substitute(f, g, DEFAULT_COEFF_BIT_CAP)
    want = oracle_substitute(f, g)
    assert [c.degree for c in got] == [f.degree * g.degree] * 3
    assert got == want


def assert_resultants_equal_oracle(f):
    chart = [{(j, k): c for (_, j, k), c in comp.terms.items()} for comp in f.components]
    for weights in _RESULTANT_COMBINATIONS:
        g1, g2 = (_combination(chart, w) for w in weights)
        if g1 and g2 and max(j for j, _ in [*g1, *g2]) > 0:
            assert _resultant_in_y(g1, g2, f.degree) == oracle_resultant(g1, g2, f.degree)


@SETTINGS
@given(matrices)
def test_degree_two_integer_routes_equal_oracle(m):
    assume(not det3(m).is_zero())
    f, _ = twisted(m)
    for h in (f, f.inverse):
        assert_walks_equal_oracle(h, 8)
        assert_resultants_equal_oracle(h)
    assert_substitutions_equal_oracle(f, f.inverse)
    assert_substitutions_equal_oracle(f.inverse, f)
    assert_substitutions_equal_oracle(f, f)


@settings(SETTINGS, max_examples=4)
@given(matrices)
def test_degree_four_integer_routes_equal_oracle(m):
    assume(not det3(m).is_zero())
    f, g = twisted(m)
    for h in (g, g.inverse):
        assert_walks_equal_oracle(h, 3)
        assert_resultants_equal_oracle(h)
    assert_substitutions_equal_oracle(g, f)
    assert_substitutions_equal_oracle(f.inverse, g)


@SETTINGS
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(gaussian_integers, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_bareiss_determinant_equals_elimination_over_q_i(m):
    det = _bareiss_determinant([[_GaussianInteger(c.re_num, c.im_num) for c in row] for row in m])
    assert ComplexRational(det.re, det.im) == oracle_determinant(m)


def test_bareiss_determinant_with_row_swaps_and_singular_matrices():
    def det(rows):
        d = _bareiss_determinant([[_GaussianInteger(v, 0) for v in row] for row in rows])
        return d.re, d.im

    assert det([[0, 1], [1, 0]]) == (-1, 0)
    assert det([[0, 0, 1], [0, 2, 0], [3, 0, 0]]) == (-6, 0)
    assert det([[1, 2], [2, 4]]) == (0, 0)
    assert det([[0, 1], [0, 1]]) == (0, 0)


def test_evaluate_exact_on_rational_coordinates():
    x, y, t = (HomogeneousPolynomial.monomial(*e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    poly = x * x * Fraction(1, 3) + y * t * ComplexRational(0, Fraction(-2, 5))
    value = poly.evaluate_exact([Fraction(1, 2), ComplexRational(1, 1), Fraction(3, 7)])
    assert value == ComplexRational(Fraction(1, 12) + Fraction(6, 35), Fraction(-6, 35))
    assert HomogeneousPolynomial.zero(2).evaluate_exact([1, 2, 3]) == CR_ZERO


# ---------------------------------------------------------------------------
# the hot paths never compute in ComplexRational
# ---------------------------------------------------------------------------


def test_orbits_and_inverse_check_finish_without_complex_rational_arithmetic(monkeypatch):
    maps = [load_map(corpus_path(name)) for name in CORPUS]
    for f in maps:
        f.indeterminacy_set()
        f.inverse.indeterminacy_set()

    def forbidden(self, other):
        raise AssertionError("ComplexRational arithmetic on an exact hot path")

    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        monkeypatch.setattr(ComplexRational, name, forbidden)
    for f in maps:
        for p in f.inverse.indeterminacy_set():
            orbit_walk(f, p, 12, DEFAULT_COEFF_BIT_CAP)
        assert verify_inverse(f)
        assert len(exceptional_orbits(f, 12).orbits) == len(f.inverse.indeterminacy_set())


# ---------------------------------------------------------------------------
# the chart kernel's shared power tables change no float
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["henon", "lsigma", "square"])
def test_chart_map_is_bitwise_the_per_polynomial_evaluation(name):
    if name == "square":
        f = twisted([[2, 0, 1], [2, 2, 2], [0, 1, 1]])[1]
    else:
        f = load_map(corpus_path(name))
    rng = np.random.default_rng(5)
    z1, z2 = (rng.normal(size=64) + 1j * rng.normal(size=64) for _ in range(2))
    for chart_in, chart_out in ((2, 2), (0, 1), (1, 0)):
        w1, w2, J, D = chart_map(f, chart_in, chart_out, z1, z2)
        hom = chart_embed(chart_in, z1, z2)
        F = [c.evaluate_numeric(hom) for c in f.components]
        out_vars = [i for i in range(3) if i != chart_out]
        in_vars = [i for i in range(3) if i != chart_in]
        np.testing.assert_array_equal(D, F[chart_out])
        with np.errstate(divide="ignore", invalid="ignore"):
            np.testing.assert_array_equal(w1, F[out_vars[0]] / D)
            np.testing.assert_array_equal(w2, F[out_vars[1]] / D)
            for l, out in enumerate(out_vars):
                for j, v in enumerate(in_vars):
                    dF = f.components[out].derivative(v).evaluate_numeric(hom)
                    dD = f.components[chart_out].derivative(v).evaluate_numeric(hom)
                    np.testing.assert_array_equal(J[l][j], (dF * D - F[out] * dD) / (D * D))
