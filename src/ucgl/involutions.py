"""The twisting matrices F_sigma, F_theta and the two involutions on pairs.

A point of the centralizer space is a pair (B, A) with A on the section and
B commuting with A, det B = 1.  The involutions act by

    sigma(B, A) = (F B^{-T} F^{-1}, F A^{-T} F^{-1})        with F = F_sigma(s)
    theta(B, A) = (G conj(B) G^{-1}, G conj(A)^{-1} G^{-1})  with G = F_theta(s)

where s is always read off the base of the *input* point.  At even rank
apply_sigma builds no F: F = S_1(s)^T is ill-conditioned there, and
sigma_by_polynomial gives the same point from the section identity and B's
polynomial in A; sigma_route_gap compares the two routes.  The joint
fixed set of sigma and theta is the monodromy-data locus; slocal_membership
tests it, inverting neither B nor A, by the identities B F B^T = F,
A F A^T = F, G conj(B) = B G and A G conj(A) = G.

sigma_differential and theta_differential push stacked tangents forward
exactly, by d(F Z F^{-1}) = F dZ F^{-1} + [dF F^{-1}, F Z F^{-1}].  The
twist moves with s in two cases only: F_sigma = S_1(s)^T at even rank and
F_theta = Ctilde conj(Q_n(s)) at odd rank; everywhere else dF = 0.

Every caller takes F, G and their inverses from twists(rs, s), which
memoises the twist that moves with s by value and builds the constant one
once per rank, so a fixed-locus sample and its membership test build each
twist once.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .core import (
    determinant,
    identity,
    inverse,
    max_abs,
    modulus,
    polynomial_coefficients,
    structural_matrices,
)
from .errors import PreconditionError
from .stokes import build_M, build_Q, build_S, factor_product_derivative, section_membership

#: default tolerance for the point invariants (commutation, det, section)
POINT_TOL = 1e-9


@dataclass(frozen=True)
class GroupoidPoint:
    """A pair (B, A) with A on the section and B in its centralizer, det B = 1.

    s caches the section parameters of A.  A point may hold a stack: B and A
    of shape (..., N, N) and s of shape (..., n), one point per leading
    index.  make_point, the involutions, point_distance and the groupoid
    maps take a stack as they take one point and act on each independently.
    """

    B: np.ndarray
    A: np.ndarray
    s: np.ndarray

    def __getitem__(self, index):
        """The point, or the sub-stack, at index of a stack; a single point
        is no stack and raises TypeError."""
        if self.B.ndim < 3:
            raise TypeError("a single GroupoidPoint is not a stack")
        return GroupoidPoint(B=self.B[index], A=self.A[index], s=self.s[index])


def make_point(rs, B, A, tol=POINT_TOL):
    """Validate the pair invariants and build a GroupoidPoint.

    On stacks each invariant is checked at every point before the next, so
    a stack raises the error that a single call on a point breaking it
    raises.  A NaN residual of commutation or det B passes, as it does for
    one point.
    """
    B = np.asarray(B, dtype=complex)
    A = np.asarray(A, dtype=complex)
    if np.count_nonzero(max_abs(B @ A - A @ B) > tol):
        raise PreconditionError("B and A do not commute within tolerance")
    if np.count_nonzero(modulus(determinant(B) - 1.0) > tol):
        raise PreconditionError("det B differs from 1 beyond tolerance")
    mem = section_membership(rs, A, tol)
    if np.count_nonzero(~mem["in_section"]):
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
    return np.swapaxes(build_S(rs, 1, s), -1, -2)


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


def twists(rs, s):
    """(F, F^{-1}, G, G^{-1}) with F = F_sigma(rs, s) and G = F_theta(rs, s), read-only.

    The twist that moves with s (F at even rank, G at odd rank) and its
    inverse are memoised by value in _moving_twist: one entry per root set
    and the shape and bytes of s, 8 entries, as many as _section_fit and
    core.powers_qr's shared factorization of a base keep (a verify round
    looks up none older than the last 7).  The constant one depends on
    the rank alone; it and its inverse are built once per rank.  Each array
    has the bytes of the builder, or of inverse of it, called on s.
    """
    s = np.asarray(s, dtype=complex)
    moving = _moving_twist(rs, s.shape, s.tobytes())
    constant = _constant_twist(rs)
    return moving + constant if rs.n % 2 == 0 else constant + moving


def _with_inverse(F):
    """F and inverse(F), both read-only."""
    F.flags.writeable = False
    Fi = inverse(F)
    Fi.flags.writeable = False
    return F, Fi


@functools.lru_cache(maxsize=8)
def _moving_twist(rs, shape, data):
    """F_sigma at even rank, F_theta at odd rank, and its inverse, at s from its shape and bytes."""
    s = np.frombuffer(data, dtype=complex).reshape(shape)
    return _with_inverse((F_sigma if rs.n % 2 == 0 else F_theta)(rs, s))


_constant_twists = {}


def _constant_twist(rs):
    """F_sigma at odd rank, F_theta at even rank, and its inverse, kept per rank."""
    if rs.n not in _constant_twists:
        _constant_twists[rs.n] = _with_inverse((F_sigma if rs.n % 2 == 1 else F_theta)(rs, None))
    return _constant_twists[rs.n]


def apply_sigma(rs, p, tol=POINT_TOL):
    """The involution (B, A) -> (F B^{-T} F^{-1}, F A^{-T} F^{-1}).

    At odd rank F is a signed permutation and sigma conjugates by it
    (sigma_by_twist).  At even rank F = S_1(s)^T has cond 1e2 to 1e3, and
    sigma applied twice amplified round-off past make_point's 1e-9 (up to
    5.5e-9 at n = 4, 1.7e-7 at n = 6); there sigma takes
    sigma_by_polynomial, which builds no F.
    """
    B2, A2 = (sigma_by_twist if rs.n % 2 == 1 else sigma_by_polynomial)(rs, p)
    return make_point(rs, B2, A2, tol)


def sigma_by_twist(rs, p):
    """sigma's B- and A-slots by conjugation: F B^{-T} F^{-1} and F A^{-T} F^{-1}."""
    F, Fi, _, _ = twists(rs, p.s)
    B2 = F @ np.swapaxes(inverse(p.B), -1, -2) @ Fi
    A2 = F @ np.swapaxes(inverse(p.A), -1, -2) @ Fi
    return B2, A2


def sigma_by_polynomial(rs, p):
    """sigma's B- and A-slots through B's polynomial in A, with no twist.

    sigma(A) = M(s reversed) by the section identity.  On the section A is
    regular, so B = q(A) (polynomial_coefficients), and F A^T F^{-1} =
    sigma(A)^{-1} gives sigma(B) = (F q(A)^T F^{-1})^{-1} = q(sigma(A)^{-1})^{-1},
    q evaluated by Horner's rule.
    """
    A2 = build_M(rs, p.s[..., ::-1])
    c = polynomial_coefficients(p.A, p.B)
    X = inverse(A2)
    N = rs.n + 1
    Q = c[..., N - 1, None, None] * identity(N)
    for k in range(N - 2, -1, -1):
        Q = c[..., k, None, None] * identity(N) + X @ Q
    return inverse(Q), A2


def sigma_route_gap(rs, p, sp):
    """max|sigma_by_twist B - sigma_by_polynomial B| / max|sigma_by_polynomial B|,
    one value per point of a stack, with sp = apply_sigma(rs, p): the two
    routes to sigma(B) agree, which tests F_sigma where sigma itself no longer
    conjugates by it.  sp.B is the route that apply_sigma takes
    (sigma_by_twist's at odd rank, sigma_by_polynomial's at even rank), so
    only the other one is computed."""
    if rs.n % 2 == 1:
        Bt, Bq = sp.B, sigma_by_polynomial(rs, p)[0]
    else:
        Bt, Bq = sigma_by_twist(rs, p)[0], sp.B
    return max_abs(Bt - Bq) / max_abs(Bq)


def apply_theta(rs, p, tol=POINT_TOL):
    """The involution (B, A) -> (G conj(B) G^{-1}, G conj(A)^{-1} G^{-1})."""
    _, _, G, Gi = twists(rs, p.s)
    B2 = G @ np.conj(p.B) @ Gi
    A2 = G @ inverse(np.conj(p.A)) @ Gi
    return make_point(rs, B2, A2, tol)


def _twisted_differential(F, Fi, dF, W, dW):
    """d(F W F^{-1}) = F dW F^{-1} + [dF F^{-1}, F W F^{-1}] over stacked dW and dF,
    with Fi = F^{-1}; W, the pair at each point, has a unit axis against the
    m variations."""
    F, Fi = F[..., None, None, :, :], Fi[..., None, None, :, :]  # against the (m, 2) axes
    K, Z = dF[..., None, :, :] @ Fi, F @ W @ Fi
    return F @ dW @ Fi + K @ Z - Z @ K


def sigma_differential(rs, p, U, sdot):
    """Image tangents at apply_sigma(p) of tangents U at p with base velocities sdot.

    U is stacked (..., m, 2, N, N), U[i] = (dB, dA), sdot is (..., m, n), with
    a leading axis per point of a stack; d(Z^{-T}) = -Z^{-T} dZ^T Z^{-T}, and
    F = S_1(s)^T moves with s at even rank only.
    """
    N = rs.n + 1
    W = np.swapaxes(np.stack([inverse(p.B), inverse(p.A)], axis=-3), -1, -2)[..., None, :, :, :]
    dF = np.zeros_like(U[..., 0, :, :])
    if rs.n % 2 == 0:
        dF = np.swapaxes(factor_product_derivative(rs, range(N, 2 * N), p.s, sdot), -1, -2)
    F, Fi, _, _ = twists(rs, p.s)
    return _twisted_differential(F, Fi, dF, W, -W @ np.swapaxes(U, -1, -2) @ W)


def theta_differential(rs, p, U, sdot):
    """As sigma_differential, for apply_theta; G = Ctilde conj(Q_n(s)) moves at odd rank only."""
    Ai = inverse(np.conj(p.A))[..., None, :, :]  # against the tangent axis
    dW = np.conj(U)
    dW[..., 1, :, :] = -Ai @ dW[..., 1, :, :] @ Ai
    dF = np.zeros_like(U[..., 0, :, :])
    if rs.n % 2 == 1:
        dQ = factor_product_derivative(rs, (rs.n,), p.s, sdot)
        dF = structural_matrices(rs.n).Ctilde @ np.conj(dQ)
    W = np.stack([np.conj(p.B)[..., None, :, :], Ai], axis=-3)
    _, _, G, Gi = twists(rs, p.s)
    return _twisted_differential(G, Gi, dF, W, dW)


def point_distance(p, q):
    """Max-abs entrywise distance over both components, one per point of a stack."""
    return np.maximum(max_abs(p.B - q.B), max_abs(p.A - q.A))


def slocal_membership(rs, p, tol=POINT_TOL):
    """Membership of the joint fixed set of sigma and theta; inverts neither B nor A.

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
    callers that read either key.  It is a Python bool for one point and an
    array of flags, one per point, for a stack.
    """
    F, _, G, _ = twists(rs, p.s)
    BA = np.stack([p.B, p.A])
    residuals = (
        max_abs(BA @ F @ np.swapaxes(BA, -1, -2) - F).max(axis=0) / max_abs(F),
        max_abs(G @ np.conj(p.B) - p.B @ G) / max_abs(G),
        max_abs(p.A @ G @ np.conj(p.A) - G) / max_abs(G),
    )
    member = np.max(residuals, axis=0) < tol
    member = member if member.ndim else bool(member)
    return {"fixed_route": member, "direct_route": member}
