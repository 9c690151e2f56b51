"""Dense complex linear algebra at size (n+1) and the structural constant matrices.

Everything here is plain numpy on small square complex arrays.  The
matrix functions broadcast over leading axes: a stack of shape (..., N, N)
is a stack of independent matrices, and a single matrix is a stack with no
leading axes, so one code path serves both.  expm takes one Pade degree,
13, at every norm.  The structural matrices (cyclic shifts, roots of
unity, flips) are the fixed scaffolding that the Stokes-factor and
involution modules build on; they are built once per rank and shared
read-only.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimensionError, SingularMatrixError

#: threshold below which a determinant counts as zero
DET_EPS = 1e-12


def _as_matrix(M):
    A = np.asarray(M, dtype=complex)
    if A.ndim < 2 or A.shape[-2] != A.shape[-1]:
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
    """Determinant of a square complex matrix, or of each in a stack."""
    return np.linalg.det(_as_matrix(M))


def inverse(M):
    """Matrix inverse by np.linalg.inv (LU factorization) at every size.

    Raises SingularMatrixError when |det| falls below DET_EPS, naming the
    first such matrix of a stack; a NaN determinant does not raise.
    """
    A = _as_matrix(M)
    det = modulus(np.linalg.det(A))
    small = det < DET_EPS
    if np.count_nonzero(small):
        raise SingularMatrixError(f"|det| = {det[small][0]:.3e} below {DET_EPS:.1e}")
    return np.linalg.inv(A)


def matrix_axes_first(X, k):
    """A view of X with its last k axes moved to the front.

    For a stack it indexes the entries of every matrix at once; for a single
    matrix it is X itself, and indexing gives numpy scalars, so one loop
    over entries serves both without fancy indexing.
    """
    lead = X.ndim - k
    return X.transpose(tuple(range(lead, X.ndim)) + tuple(range(lead)))


def modulus(z):
    """|z| elementwise, as abs() of one complex number computes it (C hypot).

    numpy's abs of a complex array takes another route and differs from it
    in the last bit for about a third of the values, so a residual read off
    a stack would not equal the one read off a single call.
    """
    return np.hypot(z.real, z.imag)


def max_abs(M):
    """Largest |entry| of a matrix, or of each matrix in a stack; NaN propagates."""
    return np.abs(M).max(axis=(-2, -1))


def char_poly(M):
    """Characteristic polynomial of M, ascending coefficients, monic.

    Uses the trace recursion (no eigenvalue solve): with B_0 = 0,
    B_k = M (B_{k-1} + a_{k-1} I), a_k = -Tr(B_k)/k, the descending
    coefficients are 1, a_1, ..., a_N.
    """
    A = _as_matrix(M)
    N = A.shape[-1]
    coeffs = np.empty(A.shape[:-2] + (N + 1,), dtype=complex)
    a = matrix_axes_first(coeffs, 1)  # a[N - k] is a_k
    a[N] = 1.0
    B = np.zeros_like(A)
    I = identity(N)
    for k in range(1, N + 1):
        B = A @ (B + a[N - k + 1][..., None, None] * I)
        a[N - k] = -B.trace(axis1=-2, axis2=-1) / k
    return coeffs


def identity(N):
    """The complex identity of size N, built once per size and read-only."""
    return _identity(int(N))


@functools.lru_cache(maxsize=None)
def _identity(N):
    I = np.eye(N, dtype=complex)
    I.flags.writeable = False
    return I


def powers(M, k):
    """I, M, M^2, ..., M^(k-1) stacked on a new first axis, for a matrix or
    each matrix of a stack; M^1 is M itself, not I M."""
    A = _as_matrix(M)
    P = np.empty((k,) + A.shape, dtype=complex)
    P[0] = identity(A.shape[-1])
    for j in range(1, k):
        P[j] = A if j == 1 else P[j - 1] @ A
    return P


#: theta_13, the largest 1-norm at which the [13/13] Pade approximant of exp
#: has backward error below the unit roundoff of double precision (Higham,
#: SIAM J. Matrix Anal. Appl. 26, 2005, Table 2.3)
THETA_13 = 5.371920351148152

#: b_0, ..., b_13 of the [13/13] Pade approximant of exp, scaled to b_0 = 1:
#: b_j = C(13, j) (26 - j)! / 26!, each rounded once (int / int is correctly
#: rounded), so that exp(0) is I exactly
_PADE_B = [math.comb(13, j) / math.perm(26, j) for j in range(14)]


def _pade(A):
    """The [13/13] Pade approximant (V - U)^{-1} (V + U) of exp over a stack A,
    U and V the odd and even parts of its numerator, evaluated as in Higham
    (2005), section 2: in powers of A^2, with A^6 factored out."""
    b = _PADE_B
    I = identity(A.shape[-1])
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2) + b[7] * A6 + b[5] * A4 + b[3] * A2
             + b[1] * I)
    V = A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2) + b[6] * A6 + b[4] * A4 + b[2] * A2 + I
    return np.linalg.solve(V - U, V + U)


def expm(X):
    """exp of a square complex matrix, or of each matrix of a stack, by scaling
    and squaring with the [13/13] Pade approximant (Higham, SIAM J. Matrix
    Anal. Appl. 26, 2005).

    A matrix whose 1-norm exceeds THETA_13 is scaled by 2^-s, s the least
    with 2^-s times its 1-norm at most THETA_13, and its approximant is
    squared s times; any other matrix has s = 0.  The k-th squaring
    multiplies only the matrices with s >= k (the whole stack when every s
    is equal), so each matrix of a stack gets the bytes of a single call.
    """
    X = _as_matrix(X)
    N = X.shape[-1]
    A = X.reshape((-1, N, N))
    norm = modulus(A).sum(axis=-2).max(axis=-1)
    s = np.zeros(len(A), dtype=int)
    big = norm > THETA_13
    if big.any():
        s[big] = np.ceil(np.log2(norm[big] / THETA_13))
        A = A * np.ldexp(1.0, -s)[:, None, None]  # exact: a power of two
    R = _pade(A)
    for k in range(s.max()):
        i = s > k
        if i.all():
            R = R @ R
        else:
            R[i] = R[i] @ R[i]
    return R.reshape(X.shape)


def polynomial_coefficients(A, B):
    """c, shape (..., N), with B = sum_k c_k A^k for B in the commutant of a
    regular A (Kostant: the commutant is the polynomials in A): least squares
    on the vectorised powers I, A, ..., A^n, by their QR."""
    N = A.shape[-1]
    P = np.moveaxis(powers(A, N), 0, -1).reshape(A.shape[:-2] + (N * N, N))
    Q, R = np.linalg.qr(P)
    b = np.swapaxes(Q, -1, -2).conj() @ B.reshape(B.shape[:-2] + (N * N, 1))
    return np.linalg.solve(R, b)[..., 0]


def spans_powers(P):
    """Whether the N powers P = powers(M, N) span an N-dimensional space, for
    each matrix of a stack: the numerical rank of the flattened powers, with
    singular-value cutoff 1e-8 times the largest singular value, is N."""
    N = len(P)
    rows = np.moveaxis(P.reshape(P.shape[:-2] + (N * N,)), 0, -2)
    sv = np.linalg.svd(rows, compute_uv=False)
    rank = np.sum(sv > 1e-8 * sv[..., :1], axis=-1)
    return rank == N


def is_regular(M):
    """Whether M is regular: {I, M, ..., M^n} spans an (n+1)-dimensional space
    (spans_powers); one flag per matrix of a stack."""
    A = _as_matrix(M)
    return spans_powers(powers(A, A.shape[-1]))


def encode_matrix(M):
    """Row-major nested list with [re, im] entry pairs, for JSON output."""
    A = _as_matrix(M)
    return [[[float(z.real), float(z.imag)] for z in row] for row in A]
