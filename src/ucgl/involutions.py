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

Every structure map reads F, G and their inverses off the point's Base,
which builds them once (twists), with the section fit, the factorization
of A's powers and the bases of the two images.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .core import (determinant, identity, inverse, max_abs, modulus, powers_qr, solve_powers,
                   structural_matrices)
from .errors import PreconditionError
from .stokes import (RootSetData, build_M, build_Q, build_S, factor_product_derivative,
                     section_fit, section_verdicts)

#: default tolerance for the point invariants (commutation, det, section)
POINT_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Base:
    """A section element A of the root set rs, or a stack of them, with what
    is derived from A alone, each built on first use and kept: the section
    fit (stokes.section_fit) and s, the factorization of A's powers
    (core.powers_qr), the twists at s and the bases of sigma's and theta's
    images.  The groupoid is a bundle of groups, so every structure map
    keeps its base, and the points over one base share its Base."""

    rs: RootSetData
    A: np.ndarray
    fit = functools.cached_property(lambda self: section_fit(self.rs, self.A))
    s = property(lambda self: self.fit[0])
    qr = functools.cached_property(lambda self: powers_qr(self.A))
    twists = functools.cached_property(lambda self: twists(self.rs, self.s))

    @functools.cached_property
    def sigma(self):
        """The base of sigma's image: F A^{-T} F^{-1} at odd rank, and at even
        rank M(s reversed), by the section identity (see apply_sigma)."""
        if self.rs.n % 2 == 0:
            return Base(self.rs, build_M(self.rs, self.s[..., ::-1]))
        F, Fi, _, _ = self.twists
        return Base(self.rs, F @ np.swapaxes(inverse(self.A), -1, -2) @ Fi)

    @functools.cached_property
    def theta(self):
        """The base of theta's image, G conj(A)^{-1} G^{-1}."""
        _, _, G, Gi = self.twists
        return Base(self.rs, G @ inverse(np.conj(self.A)) @ Gi)

    def __getitem__(self, index):
        """The base, or the sub-stack, at index of a stack, with the slice of
        its fit if it has one; the rest is built again when read."""
        sub = Base(self.rs, self.A[index])
        if "fit" in vars(self):
            vars(sub)["fit"] = tuple(x[index] for x in self.fit)
        return sub


def as_base(rs, A):
    """A Base as it is, or an array as a new Base of rs."""
    return A if isinstance(A, Base) else Base(rs, np.asarray(A, dtype=complex))


@dataclass(frozen=True)
class GroupoidPoint:
    """A pair (B, A) with A on the section and B in its centralizer, det B = 1.

    A and s are read off its Base.  A point may hold a stack: B and A of
    shape (..., N, N) and s of shape (..., n), one point per leading index.
    make_point, the involutions, point_distance and the groupoid maps take a
    stack as they take one point and act on each independently.
    """

    B: np.ndarray
    base: Base
    A = property(lambda self: self.base.A)
    s = property(lambda self: self.base.s)

    def __getitem__(self, index):
        """The point, or the sub-stack, at index of a stack; a single point
        is no stack and raises TypeError."""
        if self.B.ndim < 3:
            raise TypeError("a single GroupoidPoint is not a stack")
        return GroupoidPoint(B=self.B[index], base=self.base[index])


def make_point(rs, B, A, tol=POINT_TOL):
    """Validate the pair invariants and build a GroupoidPoint; A is an array
    or a Base, whose section fit is compared with tol and not redone.

    On stacks each invariant is checked at every point before the next, so
    a stack raises the error that a single call on a point breaking it
    raises.  A NaN residual of commutation or det B passes, as it does for
    one point.
    """
    base = as_base(rs, A)
    B, A = np.asarray(B, dtype=complex), base.A
    if np.count_nonzero(max_abs(B @ A - A @ B) > tol):
        raise PreconditionError("B and A do not commute within tolerance")
    if np.count_nonzero(modulus(determinant(B) - 1.0) > tol):
        raise PreconditionError("det B differs from 1 beyond tolerance")
    if np.count_nonzero(~section_verdicts(base.fit, tol)["in_section"]):
        raise PreconditionError("A is not on the section within tolerance")
    return GroupoidPoint(B=B, base=base)


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


_constant_twists = {}


def twists(rs, s):
    """(F, F^{-1}, G, G^{-1}) with F = F_sigma(rs, s) and G = F_theta(rs, s), read-only.

    The twist that moves with s (F at even rank, G at odd rank) and its
    inverse are built for the call; the constant one depends on the rank
    alone, and it and its inverse are built once per rank and kept in
    _constant_twists.  Each array has the bytes of the builder, or of
    inverse of it, called on s.
    """
    even = rs.n % 2 == 0
    moving = _with_inverse((F_sigma if even else F_theta)(rs, s))
    if rs.n not in _constant_twists:
        _constant_twists[rs.n] = _with_inverse((F_theta if even else F_sigma)(rs, None))
    constant = _constant_twists[rs.n]
    return moving + constant if even else constant + moving


def _with_inverse(F):
    """F and inverse(F), both read-only: a Base shares them, and a rank its constant pair."""
    Fi = inverse(F)
    F.flags.writeable = Fi.flags.writeable = False
    return F, Fi


def apply_sigma(rs, p, tol=POINT_TOL):
    """The involution (B, A) -> (F B^{-T} F^{-1}, F A^{-T} F^{-1}).

    At odd rank F is a signed permutation and sigma conjugates by it
    (sigma_by_twist).  At even rank F = S_1(s)^T has cond 1e2 to 1e3, and
    sigma applied twice amplified round-off past make_point's 1e-9 (up to
    5.5e-9 at n = 4, 1.7e-7 at n = 6); there sigma takes
    sigma_by_polynomial, which builds no F.  The image's base is p's
    Base.sigma, which takes the same route for A.
    """
    B2 = (sigma_by_twist if rs.n % 2 == 1 else sigma_by_polynomial)(rs, p)
    A2 = p.base.sigma
    return make_point(rs, B2, A2, tol)


def sigma_by_twist(rs, p):
    """sigma's B-slot by conjugation: F B^{-T} F^{-1}."""
    F, Fi, _, _ = p.base.twists
    return F @ np.swapaxes(inverse(p.B), -1, -2) @ Fi


def sigma_by_polynomial(rs, p):
    """sigma's B-slot through B's polynomial in A, with no twist.

    sigma(A) = M(s reversed) by the section identity.  On the section A is
    regular, so B = q(A) (polynomial_coefficients), and F A^T F^{-1} =
    sigma(A)^{-1} gives sigma(B) = (F q(A)^T F^{-1})^{-1} = q(sigma(A)^{-1})^{-1},
    q evaluated by Horner's rule.
    """
    c = solve_powers(p.base.qr, p.B)
    X = inverse(build_M(rs, p.s[..., ::-1]))
    N = rs.n + 1
    Q = c[..., N - 1, None, None] * identity(N)
    for k in range(N - 2, -1, -1):
        Q = c[..., k, None, None] * identity(N) + X @ Q
    return inverse(Q)


def sigma_route_gap(rs, p, sp):
    """max|sigma_by_twist B - sigma_by_polynomial B| / max|sigma_by_polynomial B|,
    one value per point of a stack, with sp = apply_sigma(rs, p): the two
    routes to sigma(B) agree, which tests F_sigma where sigma itself no longer
    conjugates by it.  sp.B is the route that apply_sigma takes
    (sigma_by_twist's at odd rank, sigma_by_polynomial's at even rank), so
    only the other one is computed."""
    if rs.n % 2 == 1:
        Bt, Bq = sp.B, sigma_by_polynomial(rs, p)
    else:
        Bt, Bq = sigma_by_twist(rs, p), sp.B
    return max_abs(Bt - Bq) / max_abs(Bq)


def apply_theta(rs, p, tol=POINT_TOL):
    """The involution (B, A) -> (G conj(B) G^{-1}, G conj(A)^{-1} G^{-1}); the
    image's base is p's Base.theta."""
    _, _, G, Gi = p.base.twists
    B2 = G @ np.conj(p.B) @ Gi
    return make_point(rs, B2, p.base.theta, tol)


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
    F, Fi, _, _ = p.base.twists
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
    _, _, G, Gi = p.base.twists
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
    F, _, G, _ = p.base.twists
    BA = np.stack([p.B, p.A])
    residuals = (
        max_abs(BA @ F @ np.swapaxes(BA, -1, -2) - F).max(axis=0) / max_abs(F),
        max_abs(G @ np.conj(p.B) - p.B @ G) / max_abs(G),
        max_abs(p.A @ G @ np.conj(p.A) - G) / max_abs(G),
    )
    member = np.max(residuals, axis=0) < tol
    member = member if member.ndim else bool(member)
    return {"fixed_route": member, "direct_route": member}
