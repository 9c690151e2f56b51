import dataclasses
import json

import mpmath
import numpy as np
import pytest
import scipy.linalg

from ucgl.core import (
    char_poly,
    determinant,
    encode_matrix,
    expm,
    inverse,
    is_regular,
    polynomial_coefficients,
    powers,
    structural_matrices,
)
from ucgl.errors import InvalidDimensionError, SingularMatrixError

TOL_EXACT = 1e-14
TOL_VANDER = 1e-13


def random_matrix(rng, N, scale=1.0):
    return scale * (rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)))


def _vandermonde(st_):
    """The DFT-style Vandermonde matrix in the primitive root, which diagonalizes Pi."""
    k = np.arange(st_.n + 1)
    return st_.omega_root ** np.outer(k, k)


@pytest.mark.parametrize("n", range(1, 7))
def test_structural_invariants(n):
    st_ = structural_matrices(n)
    N = n + 1
    I = np.eye(N)
    Om = _vandermonde(st_)
    assert np.max(np.abs(st_.Pi - Om @ st_.d @ np.linalg.inv(Om))) < TOL_VANDER
    assert np.max(np.abs(np.linalg.matrix_power(st_.PiHat, N) + I)) < TOL_EXACT
    assert np.max(np.abs(np.linalg.matrix_power(st_.Pi, N) - I)) < TOL_EXACT
    for M in (st_.C, st_.Ctilde, st_.Delta):
        assert np.max(np.abs(M @ M - I)) < TOL_EXACT
    assert np.max(np.abs(st_.C @ np.linalg.inv(st_.Pi) @ st_.C - st_.Pi)) < TOL_EXACT
    if n % 2 == 1:
        assert (
            np.max(np.abs(st_.Ctilde @ np.linalg.inv(st_.PiHat) @ st_.Ctilde - st_.PiHat))
            < TOL_EXACT
        )
    # the section's cyclic factor is the signed shift at odd rank, the plain one at even
    assert st_.cyclic is (st_.PiHat if n % 2 == 1 else st_.Pi)


def test_structural_explicit_values():
    st2 = structural_matrices(2)
    assert np.array_equal(st2.Pi.real, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    om = np.exp(2j * np.pi / 3)
    assert np.max(np.abs(np.diag(st2.d) - [1, om, om ** 2])) < TOL_EXACT
    Om = _vandermonde(st2)
    assert np.max(np.abs(st2.Pi @ Om - Om @ st2.d)) < TOL_VANDER

    st1 = structural_matrices(1)
    assert np.array_equal(st1.PiHat.real, [[0, 1], [-1, 0]])
    half_turn = np.linalg.matrix_power(st1.PiHat, 1)
    assert np.max(np.abs(half_turn @ half_turn + np.eye(2))) < TOL_EXACT


def test_structural_rejects_bad_rank():
    with pytest.raises(InvalidDimensionError):
        structural_matrices(0)


def test_structural_matrices_cached_read_only():
    st3 = structural_matrices(3)
    assert structural_matrices(3) is st3
    assert structural_matrices(np.int64(3)) is st3
    arrays = [getattr(st3, f.name) for f in dataclasses.fields(st3)
              if isinstance(getattr(st3, f.name), np.ndarray)]
    assert len(arrays) == 7
    assert not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        st3.C[0, 0] = 2.0
    for bad in (0, -1, 2.0):
        with pytest.raises(InvalidDimensionError):
            structural_matrices(bad)


def test_char_poly_known_values():
    assert np.allclose(char_poly(np.eye(2)), [1, -2, 1])
    assert np.allclose(char_poly(np.diag([2.0, 0.5])), [1, -2.5, 1])


def test_char_poly_against_eigenvalue_oracle():
    rng = np.random.default_rng(3)
    for N in (2, 3, 4, 5):
        for _ in range(10):
            M = random_matrix(rng, N)
            mine = char_poly(M)
            oracle = np.poly(np.linalg.eigvals(M))[::-1]
            assert np.max(np.abs(mine - oracle)) < 1e-8 * max(1.0, np.max(np.abs(oracle)))
            assert abs(mine[0] - (-1) ** N * np.linalg.det(M)) < 1e-10 * max(
                1.0, abs(np.linalg.det(M))
            )


def test_char_poly_conjugation_invariance():
    rng = np.random.default_rng(5)
    for _ in range(20):
        M = random_matrix(rng, 4)
        g = random_matrix(rng, 4)
        while np.linalg.cond(g) > 1e3:
            g = random_matrix(rng, 4)
        assert np.max(np.abs(char_poly(g @ M @ np.linalg.inv(g)) - char_poly(M))) < 1e-9 * max(
            1.0, np.max(np.abs(char_poly(M)))
        )


def test_is_regular():
    assert not is_regular(np.eye(3))
    assert not is_regular(np.diag([1.0, 1.0, 1.0]))
    # companion-type matrices are regular, and regularity survives conjugation
    rng = np.random.default_rng(9)
    for _ in range(10):
        comp = np.zeros((3, 3), dtype=complex)
        comp[1, 0] = comp[2, 1] = 1.0
        comp[:, 2] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        g = random_matrix(rng, 3)
        while np.linalg.cond(g) > 1e3:
            g = random_matrix(rng, 3)
        assert is_regular(comp)
        assert is_regular(g @ comp @ np.linalg.inv(g))


def _spans_powers(M):
    """The rank reference: whether the SVD of the N x N^2 flattened powers I, M,
    ..., M^n has N singular values above 1e-8 times the largest."""
    N = M.shape[-1]
    rows = np.moveaxis(powers(M, N).reshape((N,) + M.shape[:-2] + (N * N,)), 0, -2)
    sv = np.linalg.svd(rows, compute_uv=False)
    return np.sum(sv > 1e-8 * sv[..., :1], axis=-1) == N


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_is_regular_matches_the_rank_of_the_powers(N):
    """is_regular reads the rank off the R factor of the powers' QR; on
    near-derogatory matrices, an eigenvalue pair or triple split by 0 to 1e-4
    around the cutoff, on Jordan blocks and on I it agrees with the SVD of the
    powers, one matrix at a time and as a stack."""
    rng = np.random.default_rng(30 + N)
    J = np.eye(N) + np.eye(N, k=1)  # one Jordan block: regular
    D = J.copy()
    D[0, 1] = 0.0  # blocks of sizes 1 and N - 1 at one eigenvalue: derogatory
    g = random_matrix(rng, N)
    cases = [np.eye(N), J, g @ D @ np.linalg.inv(g)]
    for split in (0.0, 1e-12, 1e-10, 1e-8, 1e-7, 1e-6, 1e-4):
        for mult in {2, min(3, N)}:
            for _ in range(5):
                lam = rng.standard_normal(N) + 1j * rng.standard_normal(N)
                lam[1:mult] = lam[0] + split * np.exp(2j * np.pi * rng.random(mult - 1))
                g = random_matrix(rng, N)
                cases.append(g @ np.diag(lam) @ np.linalg.inv(g))
    M = np.array(cases)
    want = _spans_powers(M)
    assert list(want[:3]) == [False, True, False]
    assert want.any() and not want.all()
    np.testing.assert_array_equal(is_regular(M), want)
    assert [bool(is_regular(X)) for X in M] == list(want)


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_polynomial_coefficients_have_the_bytes_of_a_fresh_qr(N):
    """Solving with powers_qr's factors, for a stack and for one matrix of
    it, gives the bytes of least squares on a QR of the powers made here."""
    rng = np.random.default_rng(60 + N)
    A = np.array([random_matrix(rng, N) for _ in range(6)])
    B = A @ A - 2.0 * A + 0.5j * np.eye(N)
    P = np.moveaxis(powers(A, N), 0, -1).reshape((6, N * N, N))
    Q, R = np.linalg.qr(P)
    b = np.swapaxes(Q, -1, -2).conj() @ B.reshape((6, N * N, 1))
    want = np.linalg.solve(R, b)[..., 0]
    assert polynomial_coefficients(A, B).tobytes() == want.tobytes()
    assert polynomial_coefficients(A[2], B[2]).tobytes() == want[2].tobytes()


def test_inverse_small_and_large():
    st1 = structural_matrices(1)
    assert np.allclose(inverse(st1.PiHat), [[0, -1], [1, 0]])
    st2 = structural_matrices(2)
    assert abs(determinant(st2.Pi) - 1) < 1e-12
    rng = np.random.default_rng(11)
    for N in range(1, 7):
        M = random_matrix(rng, N) + 3 * np.eye(N)
        assert np.max(np.abs(M @ inverse(M) - np.eye(N))) < 1e-10


def test_inverse_singular_raises():
    with pytest.raises(SingularMatrixError):
        inverse(np.zeros((2, 2)))


def test_matrix_json_round_trip():
    """encode_matrix writes rows of [re, im] pairs that JSON carries exactly."""
    rng = np.random.default_rng(2)
    M = random_matrix(rng, 3)
    pairs = np.stack([M.real, M.imag], axis=-1)
    assert np.array_equal(json.loads(json.dumps(encode_matrix(M))), pairs)


# ---------------------------------------------------------------------------
# expm: scaling and squaring with the [13/13] Pade approximant

#: unit roundoff of double precision
U = np.finfo(float).eps / 2


def _expm_stack(rng, N, count=8):
    """count complex normal matrices rescaled to 1-norms from 1e-8 to 50, so that
    one stack mixes norms far below theta_13 with squaring counts s from 0 to 4."""
    norms = np.geomspace(1e-8, 50, count)
    G = rng.standard_normal((count, N, N)) + 1j * rng.standard_normal((count, N, N))
    return G * (norms / np.abs(G).sum(axis=-2).max(axis=-1))[:, None, None], norms


def _expm_mpmath(X):
    """exp(X) to 40 digits by mpmath, rounded to complex128."""
    with mpmath.workdps(40):
        return np.array(mpmath.expm(mpmath.matrix(X.tolist())).tolist(), dtype=complex)


@pytest.mark.parametrize("N", range(1, 7))
def test_expm_against_references(N):
    """Relative to max|exp(X)|, within 50 u max(1, |X|_1) of a 40-digit mpmath
    exp and of scipy's expm; measured at most 4.3 u max(1, |X|_1) against mpmath
    (scipy 4.1) over these stacks."""
    X, norms = _expm_stack(np.random.default_rng(100 + N), N)
    E = expm(X)
    bound = 50 * U * np.maximum(1.0, norms)
    ref = np.array([_expm_mpmath(x) for x in X])
    assert (np.abs(E - ref).max(axis=(-2, -1)) / np.abs(ref).max(axis=(-2, -1)) < bound).all()
    sp = scipy.linalg.expm(X)
    assert (np.abs(E - sp).max(axis=(-2, -1)) / np.abs(sp).max(axis=(-2, -1)) < bound).all()


@pytest.mark.parametrize("N", range(1, 7))
def test_expm_stack_equals_single_calls(N):
    X, _ = _expm_stack(np.random.default_rng(200 + N), N, count=20)
    E = expm(X)
    assert E.tobytes() == np.array([expm(x) for x in X]).tobytes()
    assert np.array_equal(expm(X.reshape(4, 5, N, N)), E.reshape(4, 5, N, N))


def test_expm_of_zero_is_the_identity():
    for N in range(1, 7):
        assert np.array_equal(expm(np.zeros((N, N))), np.eye(N))
    assert np.array_equal(expm(np.zeros((3, 2, 2))), np.broadcast_to(np.eye(2), (3, 2, 2)))


@pytest.mark.parametrize("N", range(2, 7))
def test_expm_of_traceless_has_det_one(N):
    """det exp(eta) = exp(Tr eta) = 1, within 10 N u cond(exp(eta)); measured
    at most 5.0 u cond over N = 2..6."""
    X, _ = _expm_stack(np.random.default_rng(300 + N), N)
    eta = X - X.trace(axis1=-2, axis2=-1)[:, None, None] / N * np.eye(N)
    E = expm(eta)
    assert (np.abs(np.linalg.det(E) - 1) < 10 * N * U * np.linalg.cond(E)).all()
