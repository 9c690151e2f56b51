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

from .core import inverse, is_regular, kernel
from .errors import (
    DegenerateTangentError,
    NotComposableError,
    NotRegularError,
    PreconditionError,
)
from .involutions import POINT_TOL, F_sigma, F_theta, GroupoidPoint, make_point
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
    if np.max(np.abs(p.A - q.A)) > BASE_TOL:
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
    """The identity arrow over a section element A."""
    A = np.asarray(A, dtype=complex)
    return make_point(rs, np.eye(A.shape[0], dtype=complex), A)


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

    E is memoised by the shape and bytes of A (32 entries) and is
    read-only; a non-regular A raises NotRegularError on every call.
    """
    A = np.asarray(A, dtype=complex)
    return _centralizer_basis(A.shape, A.tobytes())


@functools.lru_cache(maxsize=32)
def _centralizer_basis(shape, data):
    A = np.frombuffer(data, dtype=complex).reshape(shape)
    if not is_regular(A):
        raise NotRegularError("centralizer basis needs a regular element")
    N = A.shape[0]
    powers = [A]
    for _ in range(2, N):
        powers.append(powers[-1] @ A)
    P = np.array(powers)
    P -= np.trace(P, axis1=1, axis2=2)[:, None, None] / N * np.eye(N)
    Q, _ = np.linalg.qr(P.reshape(N - 1, -1).T)
    E = Q.T.reshape(N - 1, N, N)
    E.flags.writeable = False
    return E


def expm(X):
    """scipy.linalg.expm, imported at the first call, so that a process that
    samples nothing never loads scipy."""
    import scipy.linalg

    return scipy.linalg.expm(X)


def _commutant_element(A, seed):
    """xi = sum_k c_k E_k over centralizer_basis(A), c complex standard normal from seed."""
    E = centralizer_basis(A)
    return np.tensordot(rand_s(np.random.default_rng(seed), len(E)), E, axes=1)


def sample_commuting(A, seed):
    """Deterministic det-1 element expm(xi) of the centralizer of a regular A, xi from
    _commutant_element: it commutes with A, and det = exp(Tr xi) = 1."""
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
    """
    A = np.asarray(A, dtype=complex)
    mem = section_membership(rs, A)
    if not mem["in_local"]:
        raise PreconditionError("base must be on the real palindromic slice")
    F, G = F_sigma(rs, mem["s"]), F_theta(rs, mem["s"])
    xi = _commutant_element(A, seed)
    xi = xi - F @ xi.T @ inverse(F)
    eta = 0.5 * (xi + G @ np.conj(xi) @ inverse(G))
    return make_point(rs, expm(eta), A)


def random_point(rs, rng, A=None):
    """A random point over A, by default over build_M of random complex s.

    Draws s (when A is None), then the sample_commuting seed, from rng.
    """
    if A is None:
        A = build_M(rs, rand_s(rng, rs.n))
    return make_point(rs, sample_commuting(A, int(rng.integers(0, 2 ** 31))), A, tol=1e-7)


def random_slocal_point(rs, rng, A=None):
    """A random fixed-locus point over A, by default over build_M of random
    real palindromic s; draws from rng as random_point does."""
    if A is None:
        A = build_M(rs, rand_palindromic_s(rng, rs.n))
    return sample_slocal_fiber(rs, A, int(rng.integers(0, 2 ** 31)))


def _tangent_constraints(p, dM):
    """The linearized point constraints at p, on row-major flattened matrices.

    Returns (LX, LY, tr): the (N^2, N^2) matrix of X -> [X, A], the (N^2, n)
    matrix of sdot -> [B, Y(sdot)] with Y(sdot) = sum_d sdot_d dM[d], and the
    (1, N^2) row of X -> Tr(B^{-1} X).
    """
    I = np.eye(p.A.shape[0])
    LX = np.kron(I, p.A.T) - np.kron(p.A, I)
    LY = np.stack([(p.B @ Y - Y @ p.B).ravel() for Y in dM], axis=1)
    return LX, LY, inverse(p.B).T.reshape(1, -1)


def tangent_space(rs, p):
    """Numerical-kernel basis U of the tangent space at p and its base velocities sdot.

    U has shape (2n, 2, N, N): row i is the tangent (X_i, Y_i), X varying B
    and Y varying A.  The constraints linearize to ([X, A] + [B, Y(sdot)],
    Tr(B^{-1} X)) = 0 where Y(sdot) is the analytic derivative of the section
    element, so the kernel's unknowns are (X, sdot) and sdot, shape (2n, n),
    is the velocity of s along each U_i.  The kernel is computed by SVD with
    cutoff KERNEL_CUTOFF times the largest singular value and has complex
    dimension 2n at regular points; a different dimension raises
    DegenerateTangentError.  Returns (U, sdot).
    """
    n = rs.n
    N = n + 1
    dM = dM_ds(rs, p.s)
    LX, LY, tr = _tangent_constraints(p, dM)
    kern = kernel(np.block([[LX, LY], [tr, np.zeros((1, n))]]), KERNEL_CUTOFF)
    if len(kern) != 2 * n:
        raise DegenerateTangentError(f"kernel dimension {len(kern)}, expected {2 * n}")
    X = kern[:, : N * N].reshape(-1, N, N)
    # one product per vector: a batched one sums in another order (round-off)
    sdot = kern[:, N * N :]
    Y = [np.tensordot(v, dM, axes=1) for v in sdot]
    return np.stack([X, Y], axis=1), sdot


def fiber_vector(p, xi):
    """The tangent (X, Y) = (B xi, 0) of the curve t -> (B e^{t xi}, A), for xi in the algebra."""
    return np.array([p.B @ xi, np.zeros_like(p.B)], dtype=complex)


def horizontal_vector_at_unit(rs, p, sdot):
    """At a unit, the tangent (0, Y) of the base curve s + t*sdot."""
    dM = dM_ds(rs, p.s)
    Y = sum(sdot[d] * dM[d] for d in range(rs.n))
    return np.array([np.zeros_like(p.B), Y], dtype=complex)
