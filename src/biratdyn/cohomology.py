"""Linear algebra of the induced action on a Neron-Severi-type lattice.

A map of the plane (or of a blown-up surface) acts on a lattice carrying a
symmetric intersection form of hyperbolic signature.  This module computes
the spectral radius of that action, the expanding and contracting
eigenclasses with their joint normalization against a Kaehler class, the
positivity cone cut out by the contracted-curve classes, and the spectral
splitting of an arbitrary class into its expanding component and remainder.

The lattice data is user-supplied.  For the projective plane itself the
lattice has rank one, both actions are multiplication by the algebraic
degree, and `plane_expansion_rate` certifies that rate without building
it: the degrees must multiply, which the exceptional orbits decide.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .maps import DEGREE_CHECK_ITERATES, RationalSurfaceMap, _degree_drop

__all__ = [
    "CohomologyLattice",
    "SpectralData",
    "SpectralError",
    "NoExpansion",
    "DegenerateNormalization",
    "spectral_data",
    "check_adjoint",
    "cone_K_test",
    "class_decomposition",
    "remainder_growth_constant",
    "plane_expansion_rate",
]


class SpectralError(Exception):
    """Spectral computation failed or violated a structural assumption."""


class NoExpansion(SpectralError):
    """The action has spectral radius <= 1; no expanding class exists."""


class DegenerateNormalization(SpectralError):
    """The pairing of the expanding and contracting classes vanishes."""


def _as_int_matrix(m, name):
    a = np.asarray(m, dtype=object)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square matrix")
    out = np.empty(a.shape, dtype=np.int64)
    for idx, v in np.ndenumerate(a):
        iv = int(v)
        if iv != v:
            raise ValueError(f"{name} must have integer entries")
        out[idx] = iv
    return out


@dataclass(frozen=True)
class CohomologyLattice:
    """Integer lattice with intersection form and the induced map actions.

    ``Q`` is the symmetric intersection form, required to have hyperbolic
    signature (one positive eigenvalue, ``rank - 1`` negative ones).
    ``Mf`` and ``Mfinv`` are the matrices of the pullback actions of the
    map and of its inverse.  ``curve_classes`` are the classes of the
    irreducible curves contracted by the inverse map; they cut out the
    positivity cone used by :func:`cone_K_test`.  ``beta_class`` is a
    fixed Kaehler class with positive self-intersection.

    Adjointness (``Mf^T Q == Q Mfinv``) is an expected invariant but is
    deliberately not enforced here so that :func:`check_adjoint` can be
    used to audit untrusted data.
    """

    rank: int
    Q: np.ndarray
    Mf: np.ndarray
    Mfinv: np.ndarray
    curve_classes: tuple
    beta_class: np.ndarray

    def __init__(self, rank, Q, Mf, Mfinv, curve_classes=(), beta_class=None):
        rank = int(rank)
        if rank < 1:
            raise ValueError("rank must be a positive integer")
        Q = _as_int_matrix(Q, "Q")
        Mf = _as_int_matrix(Mf, "Mf")
        Mfinv = _as_int_matrix(Mfinv, "Mfinv")
        for name, m in (("Q", Q), ("Mf", Mf), ("Mfinv", Mfinv)):
            if m.shape != (rank, rank):
                raise ValueError(f"{name} must be {rank}x{rank}")
        if not np.array_equal(Q, Q.T):
            raise ValueError("intersection form must be symmetric")
        eigs = np.linalg.eigvalsh(Q.astype(float))
        n_pos = int(np.sum(eigs > 1e-9))
        n_neg = int(np.sum(eigs < -1e-9))
        if n_pos != 1 or n_neg != rank - 1:
            raise ValueError(
                "intersection form must have signature (1, rank-1); "
                f"got ({n_pos}, {n_neg})"
            )
        if beta_class is None:
            raise ValueError("beta_class is required")
        beta = np.asarray([int(v) for v in beta_class], dtype=np.int64)
        if beta.shape != (rank,):
            raise ValueError("beta_class must be a rank-length integer vector")
        if int(beta @ Q @ beta) <= 0:
            raise ValueError("beta_class must have positive self-intersection")
        curves = tuple(
            np.asarray([int(v) for v in c], dtype=np.int64) for c in curve_classes
        )
        for c in curves:
            if c.shape != (rank,):
                raise ValueError("curve classes must be rank-length integer vectors")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "Mf", Mf)
        object.__setattr__(self, "Mfinv", Mfinv)
        object.__setattr__(self, "curve_classes", curves)
        object.__setattr__(self, "beta_class", beta)

    def pairing(self, a, b) -> float:
        """Intersection pairing of two lattice vectors (floats allowed)."""
        return float(np.asarray(a, dtype=float) @ self.Q.astype(float) @ np.asarray(b, dtype=float))


@dataclass(frozen=True)
class SpectralData:
    """Dominant spectral data of the lattice action.

    ``theta_plus`` and ``theta_minus`` are the expanding eigenclass of the
    forward action and the contracting counterpart (the expanding class of
    the inverse action), scaled jointly with ``beta_scaled`` so that all
    three mutual pairings equal one.  ``residual_spectrum_bound`` is the
    largest modulus among the remaining eigenvalues.
    """

    rho: float
    theta_plus: np.ndarray
    theta_minus: np.ndarray
    residual_spectrum_bound: float
    beta_scaled: np.ndarray


def _dominant_eigenpair(M: np.ndarray, label: str):
    """Return (rho, unit real eigenvector, second-largest modulus)."""
    vals, vecs = np.linalg.eig(M.astype(float))
    order = np.argsort(-np.abs(vals))
    vals, vecs = vals[order], vecs[:, order]
    rho = abs(vals[0])
    second = abs(vals[1]) if len(vals) > 1 else 0.0
    if second >= rho - 1e-9:
        raise SpectralError(
            f"dominant eigenvalue of {label} is not numerically simple: "
            f"|lambda_1| = {rho!r}, |lambda_2| = {second!r}"
        )
    # A simple dominant eigenvalue of a real matrix is real (a complex one
    # would bring its conjugate at the same modulus).
    vec = vecs[:, 0]
    pivot = vec[int(np.argmax(np.abs(vec)))]
    vec = np.real(vec / pivot)
    vec /= np.linalg.norm(vec)
    resid = np.linalg.norm(M.astype(float) @ vec - float(np.real(vals[0])) * vec)
    if resid > 1e-10 * np.linalg.norm(vec):
        raise SpectralError(f"eigenvector residual {resid!r} exceeds certification bound")
    return float(np.real(vals[0])), vec, second


def spectral_data(L: CohomologyLattice) -> SpectralData:
    """Dominant eigendata of the forward action, jointly normalized.

    Raises :class:`NoExpansion` when the spectral radius is not above one,
    and :class:`DegenerateNormalization` when the expanding and
    contracting classes pair to zero (so no scaling can normalize them).
    The spectral radii of the forward and inverse actions are required to
    agree to 1e-8.
    """
    rho, theta_p, second = _dominant_eigenpair(L.Mf, "Mf")
    if rho <= 1 + 1e-12:
        raise NoExpansion(f"spectral radius {rho!r} is not above 1")
    rho_inv, theta_m, _ = _dominant_eigenpair(L.Mfinv, "Mfinv")
    if abs(rho - rho_inv) > 1e-8 * rho:
        raise SpectralError(
            f"forward and inverse spectral radii disagree: {rho!r} vs {rho_inv!r}"
        )
    beta = L.beta_class.astype(float)
    # Orient so pairings against the Kaehler class are positive.
    q2 = L.pairing(theta_p, beta)
    if q2 < 0:
        theta_p = -theta_p
        q2 = -q2
    q3 = L.pairing(theta_m, beta)
    if q3 < 0:
        theta_m = -theta_m
        q3 = -q3
    q1 = L.pairing(theta_p, theta_m)
    scale = np.linalg.norm(theta_p) * np.linalg.norm(theta_m)
    if abs(q1) <= 1e-12 * max(scale, 1.0) or min(q1, q2, q3) <= 0:
        raise DegenerateNormalization(
            f"cannot normalize pairings (theta+.theta- = {q1!r}, "
            f"theta+.beta = {q2!r}, theta-.beta = {q3!r})"
        )
    a = np.sqrt(q3 / (q1 * q2))
    b = np.sqrt(q2 / (q1 * q3))
    c = np.sqrt(q1 / (q2 * q3))
    return SpectralData(
        rho=rho,
        theta_plus=a * theta_p,
        theta_minus=b * theta_m,
        residual_spectrum_bound=float(second),
        beta_scaled=c * beta,
    )


def check_adjoint(L: CohomologyLattice) -> bool:
    """Exact integer test that the two actions are adjoint under the form."""
    return np.array_equal(L.Mf.T @ L.Q, L.Q @ L.Mfinv)


def cone_K_test(L: CohomologyLattice, eta) -> bool:
    """Whether a class pairs nonnegatively with every contracted-curve class.

    Vacuously true when no curve classes are stored.
    """
    eta = np.asarray(eta, dtype=float)
    return all(L.pairing(eta, v) >= -1e-12 for v in L.curve_classes)


def class_decomposition(L: CohomologyLattice, eta, sd: SpectralData | None = None):
    """Split a class as ``eta = eta_perp + c * theta_plus``.

    The coefficient is ``c = <eta, theta_minus>``; by the joint
    normalization the remainder pairs to zero with ``theta_minus`` and is
    therefore uniformly transverse to the expanding direction.  Returns
    ``(eta_perp, c)``.
    """
    if sd is None:
        sd = spectral_data(L)
    eta = np.asarray(eta, dtype=float)
    c = L.pairing(eta, sd.theta_minus)
    return eta - c * sd.theta_plus, float(c)


def remainder_growth_constant(L: CohomologyLattice, vec, t: float, n_max: int = 20) -> float:
    """Smallest C with ``norm(Mf^n vec) <= C * t^n`` for ``n <= n_max``.

    Used to confirm that the non-expanding remainder of a class grows at a
    strictly slower exponential rate than the spectral radius.
    """
    if t <= 0:
        raise ValueError("growth rate t must be positive")
    M = L.Mf.astype(float)
    v = np.asarray(vec, dtype=float)
    best = np.linalg.norm(v)
    for n in range(1, n_max + 1):
        v = M @ v
        best = max(best, np.linalg.norm(v) / t**n)
    return float(best)


def plane_expansion_rate(f: RationalSurfaceMap) -> float:
    """Spectral radius of the plane map's action on the hyperplane class.

    That action is multiplication by the algebraic degree, which is the
    spectral radius when f has an inverse and its degrees multiply through
    ``DEGREE_CHECK_ITERATES`` iterates (`maps._degree_drop`, which composes
    only when the exceptional orbits cannot decide).  Raises
    :class:`NoExpansion` for degree one and :class:`SpectralError` when the
    rate is uncertifiable.
    """
    if f.inverse is None:
        raise SpectralError("the rate certificate needs the inverse map")
    first_drop, composed = _degree_drop(f, DEGREE_CHECK_ITERATES)
    if first_drop is not None:
        raise SpectralError(f"the degrees drop at iterate {first_drop}; "
                            "the algebraic degree does not represent the spectral radius")
    if composed is not None and composed.truncated_at is not None:
        raise SpectralError(f"degree sequence {composed.degrees} stopped at iterate "
                            f"{composed.truncated_at} before any drop; the rate is uncertified")
    rho = float(f.degree)
    if rho <= 1:
        raise NoExpansion(f"spectral radius {rho!r} is not above 1")
    return rho
