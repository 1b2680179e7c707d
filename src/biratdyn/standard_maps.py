"""Reference maps used throughout the test corpus and the bundled map files.

All coefficients are Gaussian rationals, so every map here supports exact
iteration, exact loci, and exact inverse verification.
"""

from __future__ import annotations

from fractions import Fraction

from .geometry import ComplexRational, HomogeneousPolynomial
from .maps import RationalSurfaceMap, compose, _det3

X = HomogeneousPolynomial.monomial(1, 0, 0)
Y = HomogeneousPolynomial.monomial(0, 1, 0)
T = HomogeneousPolynomial.monomial(0, 0, 1)


def cremona_involution() -> RationalSurfaceMap:
    """The standard quadratic involution [x:y:t] -> [yt : xt : xy].

    Blows up the three coordinate points and contracts the three
    coordinate lines; it is its own inverse."""
    f = RationalSurfaceMap([Y * T, X * T, X * Y], name="cremona")
    f.inverse = f
    return f


def henon_map(c=Fraction(-3, 2), delta=Fraction(1, 4)) -> RationalSurfaceMap:
    """Quadratic Henon-type map: (X, Y) -> (Y, Y^2 + c - delta X) in the
    affine chart t = 1, extended to P^2.

    The affine Jacobian determinant is the constant delta.  The single
    indeterminacy point is [1:0:0]; the inverse's is [0:1:0], which is a
    fixed point of the forward map."""
    c = ComplexRational(c) if not isinstance(c, ComplexRational) else c
    delta = ComplexRational(delta) if not isinstance(delta, ComplexRational) else delta
    forward = [
        Y * T,
        Y * Y + (T * T) * c - (X * T) * delta,
        T * T,
    ]
    backward = [
        X * X + (T * T) * c - Y * T,
        (X * T) * delta,
        (T * T) * delta,
    ]
    inv = RationalSurfaceMap(backward, name="henon-inverse")
    return RationalSurfaceMap(forward, inverse=inv, name="henon")


def linear_map(matrix, name: str = "linear") -> RationalSurfaceMap:
    """Linear automorphism of P^2 from an invertible 3x3 matrix over Q(i);
    the exact inverse is attached automatically."""
    m = [[_cr(e) for e in row] for row in matrix]
    if _det3(m).is_zero():
        raise ValueError("matrix is singular")
    adj = [
        [
            m[1][1] * m[2][2] - m[1][2] * m[2][1],
            m[0][2] * m[2][1] - m[0][1] * m[2][2],
            m[0][1] * m[1][2] - m[0][2] * m[1][1],
        ],
        [
            m[1][2] * m[2][0] - m[1][0] * m[2][2],
            m[0][0] * m[2][2] - m[0][2] * m[2][0],
            m[0][2] * m[1][0] - m[0][0] * m[1][2],
        ],
        [
            m[1][0] * m[2][1] - m[1][1] * m[2][0],
            m[0][1] * m[2][0] - m[0][0] * m[2][1],
            m[0][0] * m[1][1] - m[0][1] * m[1][0],
        ],
    ]
    vars3 = (X, Y, T)

    def rows_to_comps(rows):
        return [
            vars3[0] * row[0] + vars3[1] * row[1] + vars3[2] * row[2] for row in rows
        ]

    inv = RationalSurfaceMap(rows_to_comps(adj), name=f"{name}-inverse")
    return RationalSurfaceMap(rows_to_comps(m), inverse=inv, name=name)


def diagonal_scaling_map() -> RationalSurfaceMap:
    """diag(4, 2, 1): in the chart y = 1 this acts as (u, w) -> (2u, w/2)
    around the fixed point [0:1:0], a constant hyperbolic cocycle."""
    return linear_map([[4, 0, 0], [0, 2, 0], [0, 0, 1]], name="linear")


def rational_rotation_map() -> RationalSurfaceMap:
    """Exact unitary automorphism (a rational rotation): all derivative
    norms are 1 and both Lyapunov exponents vanish."""
    return linear_map(
        [
            [Fraction(3, 5), Fraction(-4, 5), 0],
            [Fraction(4, 5), Fraction(3, 5), 0],
            [0, 0, 1],
        ],
        name="rotation",
    )


def lsigma_map() -> RationalSurfaceMap:
    """Generic linear map composed with the quadratic involution; its
    iterates stay degree-multiplicative while orbit coordinates grow, so it
    exercises the exact-to-floating switchover in orbit code."""
    L = linear_map([[1, 1, 0], [0, 1, 1], [1, 0, 1]], name="L")
    sigma = cremona_involution()
    fwd = compose(L, sigma, name="lsigma")
    bwd = compose(sigma.inverse, L.inverse, name="lsigma-inverse")
    fwd.inverse = bwd
    bwd.inverse = fwd
    return fwd


def _cr(value) -> ComplexRational:
    if isinstance(value, ComplexRational):
        return value
    if isinstance(value, complex):
        raise TypeError("linear_map needs exact entries")
    return ComplexRational(value)


STANDARD_MAPS = {
    "cremona": cremona_involution,
    "henon": henon_map,
    "linear": diagonal_scaling_map,
    "lsigma": lsigma_map,
}
