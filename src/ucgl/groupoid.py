"""The centralizer space as a groupoid: structure maps, sampling, tangents.

Because every base lies on the section, which meets each regular conjugacy
class exactly once, two elements are composable iff their bases are equal:
source and target coincide, s = t = A, so the groupoid is a bundle of groups
over the section and needs no maps for them.  Composition multiplies the
B-slots.  The samplers exponentiate elements of A's commutant with
core.expm, which needs numpy alone.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .core import (
    expm,
    identity,
    inverse,
    max_abs,
    modulus,
    polynomial_coefficients,
    powers,
    spans_powers,
)
from .errors import NotComposableError, NotRegularError, PreconditionError
from .involutions import POINT_TOL, GroupoidPoint, make_point, twists
from .stokes import build_M, dM_ds, rand_palindromic_s, rand_s, section_membership

#: base-equality tolerance for composability
BASE_TOL = 1e-10

#: SplitMix64's increment gamma and the multipliers of its finaliser; they
#: only ever meet arrays, whose uint64 arithmetic wraps modulo 2^64 silently
_GAMMA, _MIX1, _MIX2 = (np.uint64(v) for v in (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9,
                                               0x94D049BB133111EB))


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


def combine(c, E):
    """sum_k c_k E_k for coefficients c of shape (..., n), or (..., m, n) for m
    combinations at once, and a basis E of shape (..., n, N, N): one batched
    (1, n) or (m, n) by (n, N^2) product, one per point, so a stack gets the
    bytes of its single calls."""
    n, N = E.shape[-3], E.shape[-1]
    E2 = E.reshape((-1, n, N * N))
    c2 = np.reshape(c, (len(E2), -1, n))
    return (c2 @ E2).reshape(np.shape(c)[:-1] + (N, N))


@functools.cache
def _counter_states(n):
    """(2n gamma, (gamma, 2 gamma, ..., 2n gamma)) mod 2^64, read-only: the
    SplitMix64 states k gamma of seed t's counters k = 2n t + 1, ..., 2n t +
    2n are t (2n gamma) + (1, ..., 2n) gamma."""
    k = np.arange(2 * n + 1, dtype=np.uint64) * _GAMMA
    k.flags.writeable = False
    return k[2 * n :], k[1:]


def _seeded_normals(seed, n):
    """n complex numbers per seed with independent standard normal real and
    imaginary parts, the law of rand_s: shape np.shape(seed) + (n,).

    Seed t owns the counters 2n t + 1, ..., 2n t + 2n.  Counter k gives the
    k-th output of SplitMix64 seeded at 0: its finaliser (two xor-shift-
    multiply rounds and a last xor-shift; Steele, Lea and Flood, OOPSLA 2014)
    applied to k gamma mod 2^64.  The top 53 bits of that output, plus one,
    times 2^-53 give a uniform u_k in (0, 1], and Box-Muller maps the first n
    of a seed's uniforms to radii and the last n to angles: c_j =
    sqrt(-2 ln u_j) e^(2 pi i u_(n+j)).  So a draw is a function of its own
    seed alone (Salmon et al., SC 2011), and a stack of seeds gets the bytes
    of the single calls, with no Generator.

    A seed is an integer at least 0, or a list or array of them; a negative
    one raises OverflowError, as a signed array would otherwise wrap to a
    large seed.  The counters wrap modulo 2^64, so the streams are distinct
    for seeds below 2^64 / 2n.
    """
    seed = np.asarray(seed)
    if (seed < 0).any():
        raise OverflowError("a sampler seed must be at least 0")
    step, first = _counter_states(n)
    z = seed.astype(np.uint64)[..., None] * step + first
    z = (z ^ z >> 30) * _MIX1
    z = (z ^ z >> 27) * _MIX2
    u = (((z ^ z >> 31) >> 11) + 1) * 2.0 ** -53
    r = np.sqrt(-2.0 * np.log(u[..., :n]))
    angle = 2 * np.pi * u[..., n:]
    return r * np.cos(angle) + 1j * (r * np.sin(angle))


def _commutant_element(A, seed):
    """xi = sum_k c_k E_k over E = centralizer_basis(A), with c =
    _seeded_normals(seed, n); a stack of A takes a list or array of seeds,
    one per matrix, and draws them in one pass."""
    E = centralizer_basis(A)
    return combine(_seeded_normals(seed, E.shape[-3]).reshape(E.shape[:-2]), E)


def sample_commuting(A, seed):
    """Deterministic det-1 element expm(xi) of the centralizer of a regular A:
    xi = sum_k c_k E_k over the traceless orthonormal basis E of A's commutant,
    and the seed becomes the n coefficients c through _seeded_normals (counters
    hashed by SplitMix64, then Box-Muller).  expm(xi) commutes with A, and
    det = exp(Tr xi) = 1.  A stack of A with a list or array of seeds gives
    the stack of the single calls, as core.expm gives each matrix of a stack
    the bytes of a single call."""
    return expm(_commutant_element(A, seed))


def sample_slocal_fiber(rs, A, seed):
    """Deterministic sample B = expm(eta) of the joint fixed set in the fiber over A.

    A must lie on the real palindromic slice of the section.  With xi from
    _commutant_element, the seed's n coefficients from _seeded_normals as in
    sample_commuting, eta = (1/2)(1 + theta_*)(1 + beta_*) xi, where
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

    A stack of A with a list or array of seeds gives the stack of the single
    calls; a base off the slice, anywhere in the stack, raises the single
    call's error.
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


def draw_seed(rng, size=None):
    """Sampler seeds drawn from rng in one call: one seed, or an array of the
    given size, as random_points and random_slocal_points draw them."""
    return rng.integers(0, 2 ** 31, size)


def commuting_point(rs, A, seed):
    """The point (sample_commuting(A, seed), A), validated at tolerance 1e-7;
    a stack of A takes a list or array of seeds."""
    return make_point(rs, sample_commuting(A, seed), A, tol=1e-7)


def random_points(rs, rng, count):
    """count random points, stacked: the count s of build_M in one rand_s
    call, then the count sample_commuting seeds in one draw_seed call."""
    s = rand_s(rng, (count, rs.n))
    return commuting_point(rs, build_M(rs, s), draw_seed(rng, count))


def random_slocal_points(rs, rng, count):
    """count random fixed-locus points, stacked: the count s of build_M in one
    rand_palindromic_s call, then the count sample_slocal_fiber seeds in one
    draw_seed call."""
    s = rand_palindromic_s(rng, (count, rs.n))
    return sample_slocal_fiber(rs, build_M(rs, s), draw_seed(rng, count))


def _horizontal_lifts(x, dM):
    """The lifts X_d = X'_d - (Tr(B^{-1} X'_d) / N) B, shape (..., n, N, N), at
    the point x, X'_d the derivative of B = q(A) along dM_d by Horner's rule (q
    from polynomial_coefficients): q(A) commutes with A for every A, so
    [X_d, A] + [B, dM_d] = 0, and Tr(B^{-1} X_d) = 0."""
    c = polynomial_coefficients(x.A, x.B)
    N = c.shape[-1]
    A, B = x.A[..., None, :, :], x.B[..., None, :, :]  # against the direction axis of dM
    H = c[..., N - 1, None, None] * identity(N)
    X = dM @ H[..., None, :, :]
    for k in range(N - 2, 0, -1):
        H = c[..., k, None, None] * identity(N) + x.A @ H
        X = dM @ H[..., None, :, :] + A @ X
    return X - (inverse(B) @ X).trace(axis1=-2, axis2=-1)[..., None, None] / N * B


def _tangent_frame(rs, points, dM):
    """Rows (X_1, ..., X_k, sdot), orthonormal as flat vectors, spanning the
    solutions of the linearized constraints [X_i, A] + [B_i, sum_d sdot_d
    dM[d]] = 0 and Tr(B_i^{-1} X_i) = 0 of k = 1 or 2 points over one base:
    one QR of the n fiber rows (B_i E_j, sdot = 0) of each point, E =
    centralizer_basis(A), and the n rows (X_1d, ..., X_kd, sdot = e_d) of the
    _horizontal_lifts.  Returns X, shape (..., (k + 1) n, k, N, N), and sdot;
    a non-regular base raises NotRegularError.
    """
    n, k, N = rs.n, len(points), rs.n + 1
    lead = points[0].B.shape[:-2]
    W = np.zeros(lead + ((k + 1) * n, k * N * N + n), dtype=complex)
    X = W[..., : k * N * N].reshape(lead + ((k + 1) * n, k, N, N))  # a view: only an axis is split
    for i, x in enumerate(points):
        X[..., i * n : (i + 1) * n, i, :, :] = x.B[..., None, :, :] @ centralizer_basis(x.A)
        X[..., k * n :, i, :, :] = _horizontal_lifts(x, dM)
    W[..., k * n :, k * N * N :] = identity(n)
    W = np.swapaxes(np.linalg.qr(np.swapaxes(W, -1, -2))[0], -1, -2)
    return W[..., : k * N * N].reshape(X.shape), W[..., k * N * N :]


def tangent_space(rs, p):
    """Orthonormal basis U of the tangent space at p and its base velocities sdot.

    U has shape (2n, 2, N, N): row i is the tangent (X_i, Y_i), X varying B
    and Y varying A, where (X_i, sdot_i) is _tangent_frame's row i and Y_i =
    sum_d sdot_id dM_d is the analytic derivative of the section element.  A
    stack of points gives stacks, shapes (..., 2n, 2, N, N) and (..., 2n, n).
    """
    dM = dM_ds(rs, p.s)
    X, sdot = _tangent_frame(rs, (p,), dM)
    return np.stack([X[..., 0, :, :], combine(sdot, dM)], axis=-3), sdot


def tangent_residual(p, U):
    """The larger of max |[X, A] + [B, Y]| / max(1, max|B| max|A|) and max
    |Tr(B^{-1} X)| over tangents U, shape (..., m, 2, N, N), at p: zero on the
    tangent space; one value per point of a stack."""
    B, A = p.B[..., None, :, :], p.A[..., None, :, :]  # against the tangent axis
    X, Y = U[..., 0, :, :], U[..., 1, :, :]
    scale = np.maximum(1.0, max_abs(p.B) * max_abs(p.A))
    bracket = max_abs(X @ A - A @ X + B @ Y - Y @ B).max(axis=-1) / scale
    trace = modulus((inverse(p.B)[..., None, :, :] @ X).trace(axis1=-2, axis2=-1)).max(axis=-1)
    return np.maximum(bracket, trace)


def fiber_vector(p, xi):
    """The tangent (X, Y) = (B xi, 0) of the curve t -> (B e^{t xi}, A), for xi in the
    algebra; over a stack of points, shape (..., 2, N, N)."""
    return np.stack([p.B @ xi, np.zeros_like(p.B)], axis=-3)


def horizontal_vector_at_unit(rs, p, sdot):
    """At a unit, the tangent (0, Y) of the base curve s + t*sdot; over a stack of
    units sdot has shape (..., n), or (..., m, n) for m tangents at each unit."""
    Y = combine(sdot, dM_ds(rs, p.s))
    return np.stack([np.zeros_like(Y), Y], axis=-3)
