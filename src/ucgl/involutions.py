"""The twisting matrices F_sigma, F_theta and the two involutions on pairs.

A point of the centralizer space is a pair (B, A) with A on the section and
B commuting with A, det B = 1.  The involutions act by

    sigma(B, A) = (F B^{-T} F^{-1}, F A^{-T} F^{-1})        with F = F_sigma(s)
    theta(B, A) = (G conj(B) G^{-1}, G conj(A)^{-1} G^{-1})  with G = F_theta(s)

where s is always read off the base of the *input* point.  Their joint fixed
set is the monodromy-data locus; slocal_membership tests it by the
inverse-free identities B F B^T = F, A F A^T = F, G conj(B) = B G and
A G conj(A) = G.

sigma_differential and theta_differential push stacked tangents forward
exactly, by d(F Z F^{-1}) = F dZ F^{-1} + [dF F^{-1}, F Z F^{-1}].  The
twist moves with s in two cases only: F_sigma = S_1(s)^T at even rank and
F_theta = Ctilde conj(Q_n(s)) at odd rank; everywhere else dF = 0.
"""

from dataclasses import dataclass

import numpy as np

from .core import determinant, inverse, structural_matrices
from .errors import PreconditionError
from .stokes import build_Q, build_S, factor_product_derivative, section_membership

#: default tolerance for the point invariants (commutation, det, section)
POINT_TOL = 1e-9


@dataclass(frozen=True)
class GroupoidPoint:
    """A pair (B, A) with A on the section and B in its centralizer, det B = 1.

    s caches the section parameters of A.
    """

    B: np.ndarray
    A: np.ndarray
    s: np.ndarray


def make_point(rs, B, A, tol=POINT_TOL):
    """Validate the pair invariants and build a GroupoidPoint."""
    B = np.asarray(B, dtype=complex)
    A = np.asarray(A, dtype=complex)
    if np.max(np.abs(B @ A - A @ B)) > tol:
        raise PreconditionError("B and A do not commute within tolerance")
    if abs(determinant(B) - 1.0) > tol:
        raise PreconditionError("det B differs from 1 beyond tolerance")
    mem = section_membership(rs, A, tol)
    if not mem["in_section"]:
        raise PreconditionError("A is not on the section within tolerance")
    return GroupoidPoint(B=B, A=A, s=mem["s"])


def F_sigma(rs, s):
    """Twist for the parameter-reversing involution.

    Constant for odd rank (a half-turn power of the signed cyclic matrix);
    for even rank it is the transpose of the first full-turn factor product,
    so it depends on s.
    """
    st = structural_matrices(rs.n)
    if rs.n % 2 == 1:
        return np.linalg.matrix_power(st.PiHat, (rs.n + 1) // 2)
    return build_S(rs, 1, s).T


def F_theta(rs, s):
    """Twist for the conjugate-reversing involution.

    For odd rank: the signed flip times the conjugated Stokes factor at
    sector numerator n; constant equal to the index-fixing flip C for even
    rank.
    """
    st = structural_matrices(rs.n)
    if rs.n % 2 == 1:
        return st.Ctilde @ np.conj(build_Q(rs, rs.n, s))
    return st.C


def apply_sigma(rs, p, tol=POINT_TOL):
    """The involution (B, A) -> (F B^{-T} F^{-1}, F A^{-T} F^{-1})."""
    F = F_sigma(rs, p.s)
    Fi = inverse(F)
    B2 = F @ inverse(p.B).T @ Fi
    A2 = F @ inverse(p.A).T @ Fi
    return make_point(rs, B2, A2, tol)


def apply_theta(rs, p, tol=POINT_TOL):
    """The involution (B, A) -> (G conj(B) G^{-1}, G conj(A)^{-1} G^{-1})."""
    G = F_theta(rs, p.s)
    Gi = inverse(G)
    B2 = G @ np.conj(p.B) @ Gi
    A2 = G @ inverse(np.conj(p.A)) @ Gi
    return make_point(rs, B2, A2, tol)


def _twisted_differential(F, dF, W, dW):
    """d(F W F^{-1}) = F dW F^{-1} + [dF F^{-1}, F W F^{-1}] over stacked dW and dF."""
    Fi = inverse(F)
    K, Z = (dF @ Fi)[:, None], F @ W @ Fi
    return F @ dW @ Fi + K @ Z - Z @ K


def sigma_differential(rs, p, U, sdot):
    """Image tangents at apply_sigma(p) of tangents U at p with base velocities sdot.

    U is stacked (m, 2, N, N), U[i] = (dB, dA), sdot is (m, n); d(Z^{-T}) =
    -Z^{-T} dZ^T Z^{-T}, and F = S_1(s)^T moves with s at even rank only.
    """
    N = rs.n + 1
    W = np.stack([inverse(p.B), inverse(p.A)]).transpose(0, 2, 1)
    dF = np.zeros_like(U[:, 0])
    if rs.n % 2 == 0:
        dF = factor_product_derivative(rs, range(N, 2 * N), p.s, sdot).transpose(0, 2, 1)
    return _twisted_differential(F_sigma(rs, p.s), dF, W, -W @ U.transpose(0, 1, 3, 2) @ W)


def theta_differential(rs, p, U, sdot):
    """As sigma_differential, for apply_theta; G = Ctilde conj(Q_n(s)) moves at odd rank only."""
    Ai = inverse(np.conj(p.A))
    dW = np.conj(U)
    dW[:, 1] = -Ai @ dW[:, 1] @ Ai
    dF = np.zeros_like(U[:, 0])
    if rs.n % 2 == 1:
        dQ = factor_product_derivative(rs, (rs.n,), p.s, sdot)
        dF = structural_matrices(rs.n).Ctilde @ np.conj(dQ)
    return _twisted_differential(F_theta(rs, p.s), dF, np.stack([np.conj(p.B), Ai]), dW)


def point_distance(p, q):
    """Max-abs entrywise distance over both components."""
    return float(
        max(np.max(np.abs(p.B - q.B)), np.max(np.abs(p.A - q.A)))
    )


def slocal_membership(rs, p, tol=POINT_TOL):
    """Membership of the joint fixed set of sigma and theta, without inverses.

    With F = F_sigma(s) and G = F_theta(s) at p.s, sigma(p) = p exactly when
    B F B^T = F and A F A^T = F, and theta(p) = p exactly when
    G conj(B) = B G and A G conj(A) = G.  p is a member when the largest of

        max|B F B^T - F| / max|F|,      max|A F A^T - F| / max|F|,
        max|G conj(B) - B G| / max|G|,  max|A G conj(A) - G| / max|G|

    is below tol (a NaN residual is not).  Building sigma(p) and theta(p)
    instead costs four inverses, and conjugating by an ill-conditioned F
    amplifies round-off.  Over 200 fixed-locus points per rank (rng 900 + n)
    at n = 1..6 the largest member residual is 5.4e-14 / 5.1e-14 / 2.0e-14 /
    6.9e-14 / 1.5e-14 / 3.7e-12 here, against 4.5e-13 / 5.9e-12 / 1.6e-13 /
    1.8e-11 / 4.9e-14 / 4.5e-9 for max|sigma(p) - p| and max|theta(p) - p|.
    Over 200 generic points per rank the smallest residual is 0.076 / 0.67 /
    0.72 / 1.2 / 1.3 / 1.5 here, and 0.076 / 0.67 / 0.72 / 1.1 / 1.4 / 1.5
    through sigma(p) and theta(p).

    The one flag is returned under both fixed_route and direct_route, for
    callers that read either key.  c_reality reports whether B conj(B) = I
    holds; it is a diagnostic, never a membership requirement.
    """
    F, G = F_sigma(rs, p.s), F_theta(rs, p.s)
    BA = np.stack([p.B, p.A])
    residuals = (
        np.max(np.abs(BA @ F @ BA.transpose(0, 2, 1) - F)) / np.max(np.abs(F)),
        np.max(np.abs(G @ np.conj(p.B) - p.B @ G)) / np.max(np.abs(G)),
        np.max(np.abs(p.A @ G @ np.conj(p.A) - G)) / np.max(np.abs(G)),
    )
    member = bool(np.max(residuals) < tol)
    c_reality = np.max(np.abs(p.B @ np.conj(p.B) - np.eye(p.B.shape[0]))) < tol
    return {"fixed_route": member, "direct_route": member, "c_reality": bool(c_reality)}
