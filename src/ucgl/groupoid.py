"""The centralizer space as a groupoid: structure maps, sampling, tangents.

Because every base lies on the section, which meets each regular conjugacy
class exactly once, two elements are composable iff their bases are equal:
source and target coincide, s = t = A, so the groupoid is a bundle of groups
over the section and needs no maps for them.  Composition multiplies the
B-slots.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .core import identity, inverse, kernel, max_abs, powers, spans_powers
from .errors import (
    DegenerateTangentError,
    NotComposableError,
    NotRegularError,
    PreconditionError,
)
from .involutions import POINT_TOL, GroupoidPoint, make_point, twists
from .stokes import build_M, dM_ds, rand_palindromic_s, rand_s, section_membership

#: base-equality tolerance for composability
BASE_TOL = 1e-10

#: relative singular-value cutoff of the tangent kernels
KERNEL_CUTOFF = 1e-8


@dataclass(frozen=True)
class ComposablePair:
    """Two points with (numerically) identical base."""

    p: GroupoidPoint
    q: GroupoidPoint


def make_pair(p, q):
    if (max_abs(p.A - q.A) > BASE_TOL).any():
        raise NotComposableError("bases differ beyond tolerance")
    return ComposablePair(p=p, q=q)


def z_membership(rs, B, A, tol=POINT_TOL):
    """Whether (B, A) is a point: whether make_point accepts it at tol."""
    if np.shape(B) != np.shape(A):
        raise PreconditionError("shape mismatch")
    try:
        make_point(rs, B, A, tol)
    except PreconditionError:
        return False
    return True


def unit(rs, A):
    """The identity arrow over a section element A, or over each of a stack."""
    A = np.asarray(A, dtype=complex)
    B = np.empty_like(A)
    B[...] = identity(A.shape[-1])
    return make_point(rs, B, A)


def groupoid_inverse(rs, p):
    return make_point(rs, inverse(p.B), p.A)


def groupoid_compose(rs, pair):
    """Multiply the B-slots over the common base."""
    return make_point(rs, pair.p.B @ pair.q.B, pair.p.A, tol=1e-7)


def centralizer_basis(A):
    """Frobenius-orthonormal basis E, shape (n, N, N), of the traceless commutant of a regular A.

    For regular A the commutant is the polynomials in A (Kostant, Amer. J.
    Math. 85, 1963), so its traceless part is spanned by the traceless
    powers A^j - (Tr A^j / N) I, j = 1..n; E is the QR of these, vectorised.
    A stack of A, shape (..., N, N), gives a stack of bases (..., n, N, N).

    E is memoised by the shape and bytes of A (32 entries) and is
    read-only; a non-regular A, or a stack holding one, raises
    NotRegularError on every call.
    """
    A = np.asarray(A, dtype=complex)
    return _centralizer_basis(A.shape, A.tobytes())


@functools.lru_cache(maxsize=32)
def _centralizer_basis(shape, data):
    A = np.frombuffer(data, dtype=complex).reshape(shape)
    N = A.shape[-1]
    P = powers(A, N)  # I, A, ..., A^n: is_regular's test, then the QR's input
    if not spans_powers(P).all():
        raise NotRegularError("centralizer basis needs a regular element")
    P = np.moveaxis(P[1:], 0, -3)
    P = P - P.trace(axis1=-2, axis2=-1)[..., None, None] / N * identity(N)
    Q, _ = np.linalg.qr(np.swapaxes(P.reshape(P.shape[:-2] + (-1,)), -1, -2))
    E = np.swapaxes(Q, -1, -2).reshape(P.shape)
    E.flags.writeable = False
    return E


def expm(X):
    """scipy.linalg.expm, imported at the first call, so that a process that
    samples nothing never loads scipy."""
    import scipy.linalg

    return scipy.linalg.expm(X)


def combine(c, E):
    """sum_k c_k E_k for coefficients c of shape (..., n), or (..., m, n) for m
    combinations at once, and a basis E of shape (..., n, N, N), one point at
    a time as np.tensordot(c, E, axes=1) computes it: a (1, n) or (m, n) by
    (n, N^2) np.dot.  A batched product sums in another order and moves the
    result at round-off."""
    n, N = E.shape[-3], E.shape[-1]
    E2 = E.reshape((-1, n, N * N))
    c2 = np.reshape(c, (len(E2), -1, n))
    xi = np.empty(c2.shape[:2] + (N * N,), dtype=complex)
    for k in range(len(E2)):
        np.dot(c2[k], E2[k], out=xi[k])
    return xi.reshape(np.shape(c)[:-1] + (N, N))


def _commutant_element(A, seed):
    """xi = sum_k c_k E_k over centralizer_basis(A), c complex standard normal from
    seed; a stack of A takes a list of seeds, one per matrix."""
    E = centralizer_basis(A)
    c = [rand_s(np.random.default_rng(int(t)), E.shape[-3]) for t in np.ravel(seed)]
    return combine(np.array(c).reshape(E.shape[:-2]), E)


def sample_commuting(A, seed):
    """Deterministic det-1 element expm(xi) of the centralizer of a regular A, xi from
    _commutant_element: it commutes with A, and det = exp(Tr xi) = 1.  A stack
    of A with a list of seeds gives the stack of the single calls."""
    return expm(_commutant_element(A, seed))


def sample_slocal_fiber(rs, A, seed):
    """Deterministic sample B = expm(eta) of the joint fixed set in the fiber over A.

    A must lie on the real palindromic slice of the section.  With xi from
    _commutant_element, eta = (1/2)(1 + theta_*)(1 + beta_*) xi, where
    beta_* xi = -F xi^T F^{-1} and theta_* xi = G conj(xi) G^{-1}, F =
    F_sigma(s), G = F_theta(s), are the differentials of the B-slot maps
    beta(X) = F X^{-T} F^{-1} and thetahat(X) = G conj(X) G^{-1} of sigma
    and theta.  A is fixed, so both preserve its commutant and commute there.

    eta is the double norm of C = expm(xi / 2): the commutant of a regular
    element is abelian, so exponents add, D = C beta(C) = expm((1 + beta_*)
    xi / 2) and D thetahat(D) = expm(eta).  As beta_* (1 + beta_*) =
    1 + beta_*, likewise for theta_*, beta_* and theta_* fix eta, so sigma
    and theta fix B; beta_* negates traces and theta_* conjugates them, so
    Tr eta = 0 and det B = 1.

    A stack of A with a list of seeds gives the stack of the single calls; a
    base off the slice, anywhere in the stack, raises the single call's error.
    """
    A = np.asarray(A, dtype=complex)
    mem = section_membership(rs, A)
    if np.count_nonzero(~mem["in_local"]):
        raise PreconditionError("base must be on the real palindromic slice")
    F, Fi, G, Gi = twists(rs, mem["s"])
    xi = _commutant_element(A, seed)
    xi = xi - F @ np.swapaxes(xi, -1, -2) @ Fi
    eta = 0.5 * (xi + G @ np.conj(xi) @ Gi)
    return make_point(rs, expm(eta), A)


def draw_seed(rng):
    """A sampler seed drawn from rng, as random_points and random_slocal_points draw it."""
    return int(rng.integers(0, 2 ** 31))


def commuting_point(rs, A, seed):
    """The point (sample_commuting(A, seed), A), validated at tolerance 1e-7;
    a stack of A takes a list of seeds."""
    return make_point(rs, sample_commuting(A, seed), A, tol=1e-7)


def random_points(rs, rng, count):
    """count random points, stacked: per point, the s of build_M from rand_s,
    then the sample_commuting seed, drawn from rng in that order."""
    s, seeds = zip(*[(rand_s(rng, rs.n), draw_seed(rng)) for _ in range(count)])
    return commuting_point(rs, build_M(rs, np.array(s)), seeds)


def random_slocal_points(rs, rng, count):
    """count random fixed-locus points, stacked: per point, the s of build_M
    from rand_palindromic_s, then the sample_slocal_fiber seed."""
    s, seeds = zip(*[(rand_palindromic_s(rng, rs.n), draw_seed(rng)) for _ in range(count)])
    return sample_slocal_fiber(rs, build_M(rs, np.array(s)), seeds)


def _tangent_kernel(rs, points, dM):
    """Kernel rows (X_1, ..., X_k, sdot) of the linearized constraints of k = 1
    or 2 points over one base, whose section derivatives are dM.

    On row-major flattened matrices point i gives the block kron(I, A^T) -
    kron(A, I) of X_i -> [X_i, A], filled in place through a (N, N, N, N)
    view, the block of sdot -> [B_i, Y(sdot)], Y(sdot) = sum_d sdot_d dM[d],
    and the row of X_i -> Tr(B_i^{-1} X_i).  The kernel, by SVD with cutoff
    KERNEL_CUTOFF times the largest singular value, has complex dimension
    (k + 1) n at regular points; any other raises DegenerateTangentError.
    Over a stack of points the kernels are taken one point at a time, so
    that only one SVD's factors are held at once, and a point of another
    dimension, anywhere in the stack, raises the single call's error.
    """
    n, k = rs.n, len(points)
    N = n + 1
    NN = N * N
    I = identity(N)
    lead = points[0].B.shape[:-2]
    L = np.zeros(lead + (k * NN + k, k * NN + n), dtype=complex)
    for i, x in enumerate(points):
        rows = np.s_[i * NN : (i + 1) * NN]
        kron = L[..., rows, rows].reshape(lead + (N, N, N, N))  # a view: only axes are split
        np.multiply(I[:, None, :, None], np.swapaxes(x.A, -1, -2)[..., None, :, None, :], out=kron)
        kron -= x.A[..., :, None, :, None] * I[None, :, None, :]
        C = x.B[..., None, :, :] @ dM - dM @ x.B[..., None, :, :]
        L[..., rows, k * NN :] = np.swapaxes(C.reshape(C.shape[:-2] + (NN,)), -1, -2)
        L[..., k * NN + i, rows] = np.swapaxes(inverse(x.B), -1, -2).reshape(lead + (NN,))
    W = [kernel(M, KERNEL_CUTOFF) for M in L.reshape((-1,) + L.shape[-2:])]
    del L
    found = [len(w) for w in W if len(w) != (k + 1) * n]
    if found:
        raise DegenerateTangentError(f"kernel dimension {found[0]}, expected {(k + 1) * n}")
    return np.reshape(W, lead + ((k + 1) * n, k * NN + n))


def tangent_space(rs, p):
    """Numerical-kernel basis U of the tangent space at p and its base velocities sdot.

    U has shape (2n, 2, N, N): row i is the tangent (X_i, Y_i), X varying B
    and Y varying A.  The constraints linearize to ([X, A] + [B, Y(sdot)],
    Tr(B^{-1} X)) = 0 where Y(sdot) is the analytic derivative of the section
    element, so the kernel's unknowns are (X, sdot) and sdot, shape (2n, n),
    is the velocity of s along each U_i; see _tangent_kernel.  A stack of
    points gives stacks, shapes (..., 2n, 2, N, N) and (..., 2n, n).
    """
    N = rs.n + 1
    dM = dM_ds(rs, p.s)
    kern = _tangent_kernel(rs, (p,), dM)
    X = kern[..., : N * N].reshape(kern.shape[:-1] + (N, N))
    sdot = kern[..., N * N :]
    # one (1, n) product per vector: a batched one sums in another order (round-off)
    each = np.broadcast_to(dM[..., None, :, :, :], X.shape[:-2] + dM.shape[-3:])
    Y = combine(sdot[..., None, :], each)[..., 0, :, :]
    return np.stack([X, Y], axis=-3), sdot


def fiber_vector(p, xi):
    """The tangent (X, Y) = (B xi, 0) of the curve t -> (B e^{t xi}, A), for xi in the
    algebra; over a stack of points, shape (..., 2, N, N)."""
    return np.stack([p.B @ xi, np.zeros_like(p.B)], axis=-3)


def horizontal_vector_at_unit(rs, p, sdot):
    """At a unit, the tangent (0, Y) of the base curve s + t*sdot; over a stack of
    units sdot has shape (..., n)."""
    dM = dM_ds(rs, p.s)
    Y = sum(sdot[..., d, None, None] * dM[..., d, :, :] for d in range(rs.n))
    return np.stack([np.zeros_like(p.B), Y], axis=-3)
