"""Map algebra: images, composition, loci, degree growth, derivatives.

Expected values for the reference maps were frozen from independent
symbolic computations (3x3 Jacobian determinants, polynomial composition
with gcd removal, and elimination for common zeros, all done in sympy
directly on the defining triples).
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from biratdyn.geometry import (
    ComplexRational,
    HomogeneousPolynomial,
    ProjectivePoint,
    proj_distance,
)
from biratdyn.lyapunov import LyapunovError, cocycle_exponents
from biratdyn.mapfile import corpus_path, load_map
from biratdyn.maps import (
    DEFAULT_COEFF_BIT_CAP,
    CoefficientOverflow,
    MapError,
    RationalSurfaceMap,
    _blowup_image,
    _substitute,
    chart_coords,
    chart_embed,
    chart_map,
    compose,
    degree_sequence,
    derivative_norm,
    image_point,
    is_identity,
    verify_inverse,
)
from biratdyn.measure import MeasureError, WeightedPointCloud, mixing_correlations
from biratdyn.stability import exceptional_orbits
from biratdyn.standard_maps import (
    cremona_involution,
    diagonal_scaling_map,
    henon_map,
    lsigma_map,
    rational_rotation_map,
)

P = ProjectivePoint.exact_point
CR = ComplexRational


def mono(i, j, k, c=1):
    return HomogeneousPolynomial.monomial(i, j, k, c)


X, Y, T = mono(1, 0, 0), mono(0, 1, 0), mono(0, 0, 1)


def points_equal(p, q, eps=1e-12):
    return proj_distance(p if p.exact else p, q) < eps if not (p.exact and q.exact) else p.same_point(q)


def second_derivative_norm(f, p):
    """Frobenius norm of the second derivative tensor of the chart
    expression of f at p (source chart from p, target chart from f(p)).

    An oracle for the log-singularity envelope: the package needs only
    first derivatives."""
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


class TestConstruction:
    def test_mixed_degrees_rejected(self):
        with pytest.raises(MapError):
            RationalSurfaceMap([mono(1, 0, 0), mono(0, 1, 0), mono(0, 0, 2)])

    def test_non_dominant_rejected(self):
        # [x : y : 0] maps the plane onto a line
        with pytest.raises(MapError):
            RationalSurfaceMap([mono(1, 0, 0), mono(0, 1, 0), HomogeneousPolynomial.zero(1)])

    def test_nearly_parallel_rows_are_certified_without_the_symbolic_determinant(self):
        # det J = 1e-12 exactly: below every numeric try's threshold, so the
        # exact value at a Gaussian-integer point is the certificate
        f = RationalSurfaceMap([mono(1, 0, 0), mono(1, 0, 0) + mono(0, 1, 0, Fraction(1, 10**12)),
                                mono(0, 0, 1)])
        assert f._jacobian_det is None
        assert f.jacobian_determinant() == HomogeneousPolynomial.constant(Fraction(1, 10**12))

    def test_identically_vanishing_determinant_rejected_after_the_exact_points(self):
        # [x : x + y : x + y]: det J is 0 at every point and as a polynomial
        with pytest.raises(MapError, match="not dominant"):
            RationalSurfaceMap([mono(1, 0, 0), mono(1, 0, 0) + mono(0, 1, 0),
                                mono(1, 0, 0) + mono(0, 1, 0)])

    def test_common_factor_divided_out(self):
        # [x^2 : xy : xt] is the identity in disguise
        f = RationalSurfaceMap([mono(2, 0, 0), mono(1, 1, 0), mono(1, 0, 1)])
        assert f.degree == 1
        assert is_identity(f)

    def test_all_zero_rejected(self):
        with pytest.raises(MapError):
            RationalSurfaceMap([HomogeneousPolynomial.zero(1)] * 3)


class TestApply:
    """A map applied at a point: `image_point`, which is None on I(f), and
    there `_blowup_image`, the total image curve."""

    def test_sigma_generic_point(self):
        assert image_point(cremona_involution(), P(1, 2, 3)).same_point(P(6, 3, 2))

    def test_sigma_blowup_with_curve(self):
        sigma = cremona_involution()
        assert image_point(sigma, P(1, 0, 0)) is None
        assert _blowup_image(sigma, P(1, 0, 0)) == mono(1, 0, 0)  # the line x = 0

    def test_sigma_collapsed_line(self):
        # [0:1:1] lies on the contracted line x = 0, which goes to [1:0:0]
        assert image_point(cremona_involution(), P(0, 1, 1)).same_point(P(1, 0, 0))

    def test_henon_fixed_point_at_infinity(self):
        # [0:1:0] sits on the contracted line t = 0 and maps to itself
        assert image_point(henon_map(), P(0, 1, 0)).same_point(P(0, 1, 0))

    def test_henon_blowup_curve(self):
        h = henon_map()
        assert image_point(h, P(1, 0, 0)) is None
        assert _blowup_image(h, P(1, 0, 0)) == mono(0, 0, 1)  # the line t = 0

    def test_numeric_blowup_flagged_without_curve(self):
        h, q = henon_map(), ProjectivePoint.numeric_point(1.0, 1e-12, 1e-12)
        assert image_point(h, q) is None
        assert _blowup_image(h, q) is None

    def test_apply_matches_compose(self):
        sigma, h = cremona_involution(), henon_map()
        fg = compose(sigma, h)
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 10:
            coords = [int(rng.integers(-9, 10)) for _ in range(3)]
            if not any(coords):
                continue
            p = P(*coords)
            a = image_point(h, p)
            if a is None:
                continue
            b, c = image_point(sigma, a), image_point(fg, p)
            if b is None or c is None:
                continue
            assert b.same_point(c)
            checked += 1


class TestCompose:
    def test_sigma_squared_is_identity(self):
        sigma = cremona_involution()
        assert is_identity(compose(sigma, sigma))

    def test_compose_with_identity(self):
        h = henon_map()
        left = compose(RationalSurfaceMap([X, Y, T]), h)
        right = compose(h, RationalSurfaceMap([X, Y, T]))
        assert left.components == h.components
        assert right.components == h.components

    def test_henon_square_degree(self):
        h = henon_map()
        assert compose(h, h).degree == 4

    def test_coefficient_overflow(self):
        ls = lsigma_map()
        with pytest.raises(CoefficientOverflow):
            g = ls
            for _ in range(40):
                g = compose(ls, g, bit_cap=64)


class TestInverse:
    def test_verify_inverse_corpus(self):
        assert verify_inverse(cremona_involution())
        assert verify_inverse(henon_map())
        assert verify_inverse(lsigma_map())
        assert verify_inverse(diagonal_scaling_map())

    def test_wrong_inverse_detected(self):
        h = henon_map()
        wrong = henon_map(c=Fraction(-1, 2))
        h.inverse = wrong.inverse
        assert not verify_inverse(h)

    def test_is_identity_on_component_triples(self):
        h = mono(2, 0, 0) + mono(0, 1, 1, ComplexRational(3, -1))
        assert is_identity([h * mono(1, 0, 0), h * mono(0, 1, 0), h * mono(0, 0, 1)])
        assert not is_identity([HomogeneousPolynomial.zero(1)] * 3)
        f = henon_map()
        assert is_identity(_substitute(f, f.inverse, DEFAULT_COEFF_BIT_CAP))
        wrong = henon_map(c=Fraction(-1, 2)).inverse
        assert not is_identity(_substitute(f, wrong, DEFAULT_COEFF_BIT_CAP))

    def test_missing_inverse(self):
        f = RationalSurfaceMap([mono(1, 0, 0), mono(0, 1, 0), mono(0, 0, 1)])
        with pytest.raises(MapError):
            verify_inverse(f)

    @pytest.mark.parametrize("factory", [
        henon_map, lsigma_map, diagonal_scaling_map, rational_rotation_map,
        cremona_involution,
    ])
    def test_factory_inverse_links_back(self, factory):
        f = factory()
        assert f.inverse.inverse is f

    @pytest.mark.parametrize("name", ["cremona", "henon", "linear", "lsigma"])
    def test_loaded_inverse_links_back(self, name):
        f = load_map(corpus_path(name))
        assert f.inverse is not None
        assert f.inverse.inverse is f


class TestIndeterminacy:
    def test_sigma_three_coordinate_points(self):
        pts = cremona_involution().indeterminacy_set()
        expected = [P(1, 0, 0), P(0, 1, 0), P(0, 0, 1)]
        assert len(pts) == 3
        for e in expected:
            assert any(p.exact and p.same_point(e) for p in pts)

    def test_henon_single_point(self):
        pts = henon_map().indeterminacy_set()
        assert len(pts) == 1
        assert pts[0].exact and pts[0].same_point(P(1, 0, 0))
        inv_pts = henon_map().inverse.indeterminacy_set()
        assert len(inv_pts) == 1
        assert inv_pts[0].same_point(P(0, 1, 0))

    def test_linear_map_empty(self):
        assert diagonal_scaling_map().indeterminacy_set() == []

    def test_exact_points_certified_by_substitution(self):
        ls = lsigma_map()
        for p in ls.indeterminacy_set():
            assert p.exact
            assert all(c.evaluate_exact(p.coords).is_zero() for c in ls.components)

    def test_irrational_points_returned_numerically(self):
        # components vanish simultaneously at [±sqrt(2) : 0 : 1] among others
        f = RationalSurfaceMap(
            [
                mono(2, 0, 0) - mono(0, 0, 2, 2),
                mono(1, 1, 0),
                mono(0, 1, 1) + mono(2, 0, 0) - mono(0, 0, 2, 2),
            ]
        )
        pts = f.indeterminacy_set()
        numeric = [p for p in pts if not p.exact]
        assert len(numeric) == 2
        targets = [
            ProjectivePoint.numeric_point(math.sqrt(2), 0, 1),
            ProjectivePoint.numeric_point(-math.sqrt(2), 0, 1),
        ]
        for tgt in targets:
            assert any(proj_distance(p, tgt) < 1e-9 for p in numeric)


class TestCriticalSet:
    def test_sigma_three_lines(self):
        crit = cremona_involution().critical_set()
        factors = {repr(f): m for f, m in crit}
        assert factors == {"(1)*x": 1, "(1)*y": 1, "(1)*t": 1}

    def test_henon_line_at_infinity_cubed(self):
        crit = henon_map().critical_set()
        assert len(crit) == 1
        factor, mult = crit[0]
        assert factor == mono(0, 0, 1)
        assert mult == 3

    def test_linear_map_empty(self):
        assert diagonal_scaling_map().critical_set() == []

    def test_total_degree_identity(self):
        for f in (cremona_involution(), henon_map(), lsigma_map()):
            total = sum(factor.degree * mult for factor, mult in f.critical_set())
            assert total == 3 * (f.degree - 1)


class TestDegreeSequence:
    def test_henon_multiplicative(self):
        seq = degree_sequence(henon_map(), 5)
        assert seq.degrees == [2, 4, 8, 16, 32]
        assert seq.is_multiplicative
        assert seq.first_drop is None

    def test_sigma_drops_immediately(self):
        seq = degree_sequence(cremona_involution(), 4)
        assert seq.degrees == [2, 1, 2, 1]
        assert not seq.is_multiplicative
        assert seq.first_drop == 2

    def test_identity_sequence(self):
        seq = degree_sequence(RationalSurfaceMap([X, Y, T]), 3)
        assert seq.degrees == [1, 1, 1]
        assert seq.is_multiplicative

    def test_lsigma_multiplicative(self):
        seq = degree_sequence(lsigma_map(), 5)
        assert seq.degrees == [2, 4, 8, 16, 32]
        assert seq.is_multiplicative

    def test_composition_stops_above_degree_64(self):
        # a dominant cubic with no inverse is composed; substituting into
        # its degree-27 iterate (degree 81, 2407 terms per component) once
        # took 34 s on its own
        x, y, t = (HomogeneousPolynomial.monomial(*e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        f = RationalSurfaceMap([x * x * t + y * y * y, y * t * t + x * x * y,
                                t * t * t + x * y * t * 3])
        seq = degree_sequence(f, 5)
        assert seq.degrees == [3, 9, 27]
        assert seq.truncated_at == 4
        assert not seq.is_multiplicative


class TestDerivatives:
    def test_unitary_norm_one(self):
        rot = rational_rotation_map()
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = ProjectivePoint.numeric_point(*(rng.normal(size=3) + 1j * rng.normal(size=3)))
            assert abs(derivative_norm(rot, p) - 1.0) < 1e-12

    def test_diagonal_norms(self):
        diag = diagonal_scaling_map()  # diag(4, 2, 1)
        assert abs(derivative_norm(diag, P(0, 1, 0)) - 2.0) < 1e-12
        assert abs(derivative_norm(diag, P(1, 0, 0)) - 0.5) < 1e-12
        assert abs(derivative_norm(diag, P(0, 0, 1)) - 4.0) < 1e-12

    def test_infinite_on_indeterminacy(self):
        assert derivative_norm(henon_map(), P(1, 0, 0)) == math.inf

    def test_log_singularity_envelope(self):
        # log ||Df|| <= A + B |log dist(x, I(f))| with moderate fitted constants
        h = henon_map()
        I_pts = [p.numeric() for p in h.indeterminacy_set()]
        base = I_pts[0].unit_vector()
        rng = np.random.default_rng(42)
        pts = [
            ProjectivePoint.numeric_point(*(rng.normal(size=3) + 1j * rng.normal(size=3)))
            for _ in range(600)
        ]
        for k in range(1, 11):
            for _ in range(40):
                v = rng.normal(size=3) + 1j * rng.normal(size=3)
                v -= np.vdot(base, v) * base
                v /= np.linalg.norm(v)
                r = 10.0**-k
                pts.append(ProjectivePoint.numeric_point(*(math.sqrt(1 - r * r) * base + r * v)))
        for norm_fn, a_cap, b_cap in (
            (derivative_norm, 10.0, 3.0),
            (second_derivative_norm, 20.0, 5.0),
        ):
            logs, dists = [], []
            for p in pts:
                d = min(proj_distance(p, q) for q in I_pts)
                n = norm_fn(h, p)
                if d < 1e-14 or not np.isfinite(n) or n <= 0:
                    continue
                logs.append(math.log(n))
                dists.append(abs(math.log(d)))
            logs, dists = np.array(logs), np.array(dists)
            assert len(logs) >= 1000
            design = np.vstack([np.ones_like(dists), dists]).T
            (a_fit, b_fit), *_ = np.linalg.lstsq(design, logs, rcond=None)
            b = max(b_fit, 0.0)
            a = float(np.max(logs - b * dists))
            assert np.all(logs <= a + b * dists + 1e-9)
            assert a < a_cap and b < b_cap

    def test_chart_jacobian_matches_finite_differences(self):
        h = henon_map()
        rng = np.random.default_rng(5)
        for _ in range(5):
            z = rng.normal(size=2) + 1j * rng.normal(size=2)
            Fv = h.evaluate_numeric(np.array(chart_embed(2, *z)))
            cout = int(np.argmax(np.abs(Fv)))
            w1, w2, J, _ = chart_map(h, 2, cout, z[:1], z[1:])
            assert np.allclose([w1[0], w2[0]], chart_coords(cout, Fv), rtol=1e-14, atol=0)
            J = np.array([[J[0][0][0], J[0][1][0]], [J[1][0][0], J[1][1][0]]])
            eps = 1e-6

            def cmap(uv):
                return chart_coords(cout, h.evaluate_numeric(np.array(chart_embed(2, *uv))))

            for col in range(2):
                dz = np.zeros(2, dtype=complex)
                dz[col] = eps
                fd = (cmap(z + dz) - cmap(z - dz)) / (2 * eps)
                assert np.abs(J[:, col] - fd).max() < 1e-6 * max(1.0, np.abs(J).max())

    @pytest.mark.parametrize("name", ["cremona", "henon", "linear", "lsigma"])
    def test_chart_jacobians_on_corpus(self, name):
        # every chart pair, for the corpus map and its inverse, against
        # central differences of the scalar chart expression
        f = load_map(corpus_path(name))
        rng = np.random.default_rng(11)
        z1 = rng.normal(size=6) + 1j * rng.normal(size=6)
        z2 = rng.normal(size=6) + 1j * rng.normal(size=6)
        eps = 1e-6
        for g in (f, f.inverse):
            for cin in range(3):
                for cout in range(3):
                    w1, w2, J, D = chart_map(g, cin, cout, z1, z2)

                    def cmap(a, b):
                        hom = np.array(chart_embed(cin, a, b))
                        return chart_coords(cout, g.evaluate_numeric(hom))

                    checked = 0
                    for k in range(z1.size):
                        F = g.evaluate_numeric(np.array(chart_embed(cin, z1[k], z2[k])))
                        if abs(F[cout]) < 0.1 * np.linalg.norm(F):
                            continue  # near the target chart's line at infinity
                        checked += 1
                        w = chart_coords(cout, F)
                        assert np.allclose([w1[k], w2[k]], w, rtol=1e-13, atol=0)
                        # a constant pivot component comes back as one scalar
                        assert np.isclose(np.broadcast_to(D, z1.shape)[k], F[cout],
                                          rtol=1e-13, atol=0)
                        Jk = np.array([[J[r][c][k] for c in range(2)] for r in range(2)])
                        for col, (d1, d2) in enumerate(((eps, 0), (0, eps))):
                            up = cmap(z1[k] + d1, z2[k] + d2)
                            fd = (up - cmap(z1[k] - d1, z2[k] - d2)) / (2 * eps)
                            assert np.abs(Jk[:, col] - fd).max() < 1e-6 * max(1.0, np.abs(Jk).max())
                    assert checked >= 1

    def test_chart_map_empty_batch(self):
        empty = np.empty(0, dtype=complex)
        w1, w2, J, _ = chart_map(henon_map(), 2, 2, empty, empty)
        assert w1.shape == w2.shape == (0,)
        assert all(np.shape(entry) == (0,) for row in J for entry in row)

    def test_second_derivative_identity_zero(self):
        rng = np.random.default_rng(7)
        p = ProjectivePoint.numeric_point(*(rng.normal(size=3) + 1j * rng.normal(size=3)))
        assert second_derivative_norm(RationalSurfaceMap([X, Y, T]), p) == 0.0


def one_point_cloud():
    return WeightedPointCloud((P(1, 2, 3),), (Fraction(1),), "Manual")


def unit_observable(p):
    return 1.0


@pytest.mark.parametrize("call,error", [
    (lambda f: degree_sequence(f, True), MapError),
    (lambda f: exceptional_orbits(f, True), ValueError),
    (lambda f: mixing_correlations(f, one_point_cloud(), unit_observable, unit_observable, True), MeasureError),
    (lambda f: cocycle_exponents(f, one_point_cloud(), True), LyapunovError),
], ids=["degree_sequence", "exceptional_orbits", "mixing_correlations", "cocycle_exponents"])
def test_boolean_count_rejected(call, error):
    """A count of `True` is not the count 1: each public count rejects a
    bool with the error it raises for a count below its minimum."""
    with pytest.raises(error):
        call(henon_map())
