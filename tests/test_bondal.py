import numpy as np
import pytest
from scipy.linalg import expm

from ucgl import bondal as bd
from ucgl.core import inverse
from ucgl.errors import NotComposableError, PreconditionError
from ucgl.groupoid import groupoid_compose, make_pair, sample_slocal_fiber
from ucgl.stokes import build_M, build_S, rand_palindromic_s


def rand_orthogonal(rng, N):
    S = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    return expm(0.5 * (S - S.T))


def test_membership_and_structure_maps():
    A = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
    u = bd.unit(A)
    assert bd.membership(u.B, u.A)
    assert np.array_equal(bd.source(u), A)
    assert np.allclose(bd.target(u), A)
    # a symmetric involutive B (its inverse-transpose is itself) over the identity base
    B = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    assert bd.membership(B, np.eye(2))
    assert np.allclose(bd.target(bd.make_bondal_point(B, np.eye(2))), np.eye(2))
    # lower-triangular bases are rejected
    assert not bd.membership(np.eye(2), A.T)
    with pytest.raises(PreconditionError):
        bd.make_bondal_point(np.eye(2), A.T)


def test_axioms_on_orthogonal_family():
    rng = np.random.default_rng(0)
    for N in (2, 3):
        I = np.eye(N, dtype=complex)
        for _ in range(10):
            ps = [bd.make_bondal_point(rand_orthogonal(rng, N), I, tol=1e-8) for _ in range(3)]
            p1, p2, p3 = ps
            lhs = bd.compose(bd.compose(p1, p2), p3)
            rhs = bd.compose(p1, bd.compose(p2, p3))
            assert np.max(np.abs(lhs.B - rhs.B)) < 1e-11
            assert np.max(np.abs(bd.compose(p1, bd.unit(I)).B - p1.B)) < 1e-12


def test_compose_rejects_mismatch():
    A = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    p = bd.unit(A)
    q = bd.unit(np.eye(2))
    with pytest.raises(NotComposableError):
        bd.compose(p, q)


def test_embed_unit_and_hand_value(roots):
    rs = roots[1]
    from ucgl.involutions import make_point

    sig = 1.3
    A = build_M(rs, np.array([sig + 0j]))
    p = make_point(rs, np.eye(2), A)
    e = bd.embed_slocal(rs, p)
    assert np.array_equal(e.B, np.eye(2))
    assert np.allclose(e.A, [[1, sig], [0, 1]])
    assert np.allclose(e.A, inverse(build_S(rs, 1, p.s)).T)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_embedding_intertwines_composition(roots, n):
    rs = roots[n]
    rng = np.random.default_rng(1800 + n)
    for _ in range(10):
        s = rand_palindromic_s(rng, n)
        A = build_M(rs, s)
        p = sample_slocal_fiber(rs, A, int(rng.integers(0, 2 ** 31)))
        q = sample_slocal_fiber(rs, A, int(rng.integers(0, 2 ** 31)))
        pq = groupoid_compose(rs, make_pair(p, q))
        comp = bd.compose(bd.embed_slocal(rs, p), bd.embed_slocal(rs, q), tol=1e-7)
        epq = bd.embed_slocal(rs, pq)
        assert np.max(np.abs(comp.B - epq.B)) < 1e-9
        assert np.max(np.abs(comp.A - epq.A)) < 1e-9


def test_embedding_injectivity_probe(roots):
    rs = roots[2]
    rng = np.random.default_rng(19)
    seen = set()
    for _ in range(10):
        s = rand_palindromic_s(rng, 2)
        p = sample_slocal_fiber(rs, build_M(rs, s), int(rng.integers(0, 2 ** 31)))
        e = bd.embed_slocal(rs, p)
        key = (np.round(e.B, 9).tobytes(), np.round(e.A, 9).tobytes())
        assert key not in seen
        seen.add(key)


def test_triangularizing_permutation_probe(roots):
    # rank 1 images are upper triangular as they stand
    rs = roots[1]
    S1 = build_S(rs, 1, np.array([0.7 + 0j]))
    perm = bd.triangularizing_permutation(inverse(S1).T)
    assert perm == (0, 1)
    # higher ranks: record whatever the probe finds, without requiring success
    rs2 = roots[2]
    S1 = build_S(rs2, 1, np.array([0.4 + 0j, 0.4 + 0j]))
    perm2 = bd.triangularizing_permutation(inverse(S1).T)
    assert perm2 is None or len(perm2) == 3


def test_target_inverts_once_bit_identically():
    """target and membership invert B once; the result equals the twice-inverted formula bit for bit."""
    rng = np.random.default_rng(41)
    for N in (2, 3, 4, 5):
        B = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        A = np.triu(rng.standard_normal((N, N)), 1) + np.eye(N)
        p = bd.BondalPoint(B=B, A=A)
        assert np.array_equal(bd.target(p), inverse(B).T @ A @ inverse(B))
        # a complex orthogonal B has B^{-T} = B, so over the identity base the target is I
        assert bd.membership(rand_orthogonal(rng, N), np.eye(N)) and not bd.membership(B, A)
