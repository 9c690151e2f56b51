"""Dense complex linear algebra at size (n+1) and the structural constant matrices.

Everything here is plain numpy on small square complex arrays.  The
structural matrices (cyclic shifts, roots of unity, flips) are the fixed
scaffolding that the Stokes-factor and involution modules build on; they are
built once per rank and shared read-only.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimensionError, SingularMatrixError

#: threshold below which a determinant counts as zero
DET_EPS = 1e-12


def _as_matrix(M):
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidDimensionError(f"expected a square matrix, got shape {A.shape}")
    return A


@dataclass(frozen=True)
class StructuralSet:
    """The constant matrices attached to rank n (matrix size n+1).

    Pi is the cyclic shift with ones on the superdiagonal and a one in the
    lower-left corner; PiHat flips the sign of its last row.  cyclic is the
    section's cyclic factor: PiHat at odd n, Pi at even n (the same array).
    d is the diagonal of powers of the primitive (n+1)-th root of unity
    omega_root.  Delta is the anti-diagonal flip, C fixes index 0 and
    reverses the rest, Ctilde twists C by diag(1,-1,...,-1).
    """

    n: int
    omega_root: complex
    Pi: np.ndarray
    PiHat: np.ndarray
    cyclic: np.ndarray
    d: np.ndarray
    Delta: np.ndarray
    C: np.ndarray
    Ctilde: np.ndarray


def structural_matrices(n):
    """The StructuralSet for rank n >= 1.

    Built once per rank and cached; every array in it is read-only, so a
    caller that needs to modify one must copy it first.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidDimensionError(f"rank must be an integer >= 1, got {n!r}")
    return _structural_set(int(n))


@functools.lru_cache(maxsize=None)
def _structural_set(n):
    N = n + 1
    om = np.exp(2j * np.pi / N)
    Pi = np.zeros((N, N), dtype=complex)
    for i in range(n):
        Pi[i, i + 1] = 1.0
    Pi[n, 0] = 1.0
    PiHat = np.diag([1.0] * n + [-1.0]).astype(complex) @ Pi
    d = np.diag(om ** np.arange(N))
    Delta = np.fliplr(np.eye(N)).astype(complex)
    C = np.zeros((N, N), dtype=complex)
    C[0, 0] = 1.0
    for i in range(1, N):
        C[i, N - i] = 1.0
    Ctilde = np.diag([1.0] + [-1.0] * n).astype(complex) @ C
    for arr in (Pi, PiHat, d, Delta, C, Ctilde):
        arr.flags.writeable = False
    return StructuralSet(
        n=n,
        omega_root=om,
        Pi=Pi,
        PiHat=PiHat,
        cyclic=PiHat if n % 2 == 1 else Pi,
        d=d,
        Delta=Delta,
        C=C,
        Ctilde=Ctilde,
    )


def determinant(M):
    """Determinant of a square complex matrix."""
    return complex(np.linalg.det(_as_matrix(M)))


def inverse(M):
    """Matrix inverse by np.linalg.inv (LU factorization) at every size.

    Raises SingularMatrixError when |det| falls below DET_EPS.
    """
    A = _as_matrix(M)
    det = np.linalg.det(A)
    if abs(det) < DET_EPS:
        raise SingularMatrixError(f"|det| = {abs(det):.3e} below {DET_EPS:.1e}")
    return np.linalg.inv(A)


def kernel(M, rcond):
    """Numerical null space of M, one basis vector a row.

    The rows of vh in the full SVD M = u diag(sv) vh whose singular values
    are at most rcond times the largest, conjugated: the columns of
    scipy.linalg.null_space(M, rcond), as rows.
    """
    _, sv, vh = np.linalg.svd(M, full_matrices=True)
    return vh[np.sum(sv > np.max(sv, initial=0.0) * rcond) :].conj()


def trace_form(X, Y):
    """The invariant pairing Tr(XY)."""
    X = _as_matrix(X)
    Y = _as_matrix(Y)
    if X.shape != Y.shape:
        raise InvalidDimensionError("trace form needs matching shapes")
    return complex(np.trace(X @ Y))


def char_poly(M):
    """Characteristic polynomial of M, ascending coefficients, monic.

    Uses the trace recursion (no eigenvalue solve): with B_0 = 0,
    B_k = M (B_{k-1} + a_{k-1} I), a_k = -Tr(B_k)/k, the descending
    coefficients are 1, a_1, ..., a_N.
    """
    A = _as_matrix(M)
    N = A.shape[0]
    coeffs_desc = np.zeros(N + 1, dtype=complex)
    coeffs_desc[0] = 1.0
    B = np.zeros((N, N), dtype=complex)
    I = np.eye(N, dtype=complex)
    for k in range(1, N + 1):
        B = A @ (B + coeffs_desc[k - 1] * I)
        coeffs_desc[k] = -np.trace(B) / k
    return coeffs_desc[::-1].copy()


def is_regular(M):
    """Whether M is regular: {I, M, ..., M^n} spans an (n+1)-dimensional space.

    Numerical rank of the flattened power stack with singular-value cutoff
    1e-8 times the largest singular value.
    """
    A = _as_matrix(M)
    N = A.shape[0]
    P = np.eye(N, dtype=complex)
    rows = []
    for _ in range(N):
        rows.append(P.ravel())
        P = P @ A
    sv = np.linalg.svd(np.array(rows), compute_uv=False)
    rank = int(np.sum(sv > 1e-8 * sv[0]))
    return rank == N


def encode_matrix(M):
    """Row-major nested list with [re, im] entry pairs, for JSON output."""
    A = _as_matrix(M)
    return [[[float(z.real), float(z.imag)] for z in row] for row in A]


def decode_matrix(data):
    """Inverse of encode_matrix."""
    return np.array([[complex(re, im) for re, im in row] for row in data])
