"""The centralizer space as a groupoid: structure maps, sampling, tangents.

Because every base lies on the section, which meets each regular conjugacy
class exactly once, two elements are composable iff their bases are equal;
source and target coincide.  Composition multiplies the B-slots.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import null_space

from .core import inverse, is_regular
from .errors import (
    DegenerateSampleError,
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


def source(p):
    return p.A


def target(p):
    return p.A


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
    """Bases of the commutant of a regular A.

    Returns (powers, traceless): the group-level basis {I, A, ..., A^n} and
    the traceless algebra basis {A^j - (Tr A^j/(n+1)) I, j = 1..n}.
    """
    A = np.asarray(A, dtype=complex)
    if not is_regular(A):
        raise NotRegularError("centralizer basis needs a regular element")
    N = A.shape[0]
    I = np.eye(N, dtype=complex)
    powers = [np.linalg.matrix_power(A, j) for j in range(N)]
    traceless = [powers[j] - (np.trace(powers[j]) / N) * I for j in range(1, N)]
    return powers, traceless


def commuting_combination(A, c):
    """Det-normalized combination sum_j c_j A^j (principal root branch)."""
    A = np.asarray(A, dtype=complex)
    c = np.asarray(c, dtype=complex)
    N = A.shape[0]
    B0 = sum(c[j] * np.linalg.matrix_power(A, j) for j in range(N))
    det = np.linalg.det(B0)
    if abs(det) < 1e-8:
        raise DegenerateSampleError("combination is numerically singular")
    lam = np.exp(-np.log(det) / N)  # principal branch of det^{-1/(n+1)}
    return lam * B0


def sample_commuting(A, seed):
    """Draw a det-1 element of the centralizer of a regular A, deterministically.

    Up to 20 coefficient draws; each singular combination is drawn again.
    """
    A = np.asarray(A, dtype=complex)
    if not is_regular(A):
        raise NotRegularError("sampling needs a regular base")
    rng = np.random.default_rng(seed)
    N = A.shape[0]
    for _ in range(20):
        c = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        try:
            return commuting_combination(A, c)
        except DegenerateSampleError:
            continue
    raise DegenerateSampleError("retries exhausted")


def sample_slocal_fiber(rs, A, seed):
    """Deterministic sample of the joint fixed set in the fiber over A.

    A must lie on the real palindromic slice of the section.  A random
    centralizer element C is symmetrized twice: D = C * beta(C) with
    beta(X) = F X^{-T} F^{-1}, then B = D * thetahat(D) with
    thetahat(X) = G conj(X) G^{-1}.  The commutant of a regular element is
    abelian and the two maps are commuting involutions on it, so the double
    norm construction lands in the joint fixed set with det B = 1.
    """
    A = np.asarray(A, dtype=complex)
    mem = section_membership(rs, A)
    if not mem["in_local"]:
        raise PreconditionError("base must be on the real palindromic slice")
    s = mem["s"]
    F = F_sigma(rs, s)
    G = F_theta(rs, s)
    Fi, Gi = inverse(F), inverse(G)
    C = sample_commuting(A, seed)
    D = C @ (F @ inverse(C).T @ Fi)
    B = D @ (G @ np.conj(D) @ Gi)
    return make_point(rs, B, A)


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
    """Numerical-kernel basis of the tangent space at p, shape (2n, 2, N, N).

    Row i is the tangent (X_i, Y_i): X varies B, Y varies A.  The constraints
    linearize to ([X, A] + [B, Y(sdot)], Tr(B^{-1} X)) = 0 where Y(sdot) is
    the analytic derivative of the section element.  The kernel is computed
    by SVD with cutoff KERNEL_CUTOFF times the largest singular value and has
    complex dimension 2n at regular points; a different dimension raises
    DegenerateTangentError.
    """
    n = rs.n
    N = n + 1
    dM = dM_ds(rs, p.s)
    LX, LY, tr = _tangent_constraints(p, dM)
    kern = null_space(np.block([[LX, LY], [tr, np.zeros((1, n))]]), rcond=KERNEL_CUTOFF).T
    if len(kern) != 2 * n:
        raise DegenerateTangentError(f"kernel dimension {len(kern)}, expected {2 * n}")
    X = kern[:, : N * N].reshape(-1, N, N)
    # one product per vector: a batched one sums in another order (round-off)
    Y = [np.tensordot(sdot, dM, axes=1) for sdot in kern[:, N * N :]]
    return np.stack([X, Y], axis=1)


def fiber_vector(p, xi):
    """The tangent (X, Y) = (B xi, 0) of the curve t -> (B e^{t xi}, A), for xi in the algebra."""
    return np.array([p.B @ xi, np.zeros_like(p.B)], dtype=complex)


def horizontal_vector_at_unit(rs, p, sdot):
    """At a unit, the tangent (0, Y) of the base curve s + t*sdot."""
    dM = dM_ds(rs, p.s)
    Y = sum(sdot[d] * dM[d] for d in range(rs.n))
    return np.array([np.zeros_like(p.B), Y], dtype=complex)
