import numpy as np
import pytest

from ucgl.core import determinant, structural_matrices
from ucgl.errors import (
    NotComposableError,
    NotRegularError,
    PreconditionError,
)
from ucgl.groupoid import (
    centralizer_basis,
    fiber_vector,
    groupoid_compose,
    groupoid_inverse,
    horizontal_vector_at_unit,
    make_pair,
    random_point,
    random_slocal_point,
    sample_commuting,
    sample_slocal_fiber,
    source,
    tangent_space,
    target,
    unit,
    z_membership,
)
from ucgl.involutions import POINT_TOL, make_point, point_distance, slocal_membership
from ucgl.stokes import build_M, dM_ds, derive_root_sets, rand_palindromic_s, rand_s


def test_z_membership_examples(roots):
    rs = roots[2]
    rng = np.random.default_rng(1)
    s = rand_s(rng, 2)
    A = build_M(rs, s)
    assert z_membership(rs, np.eye(3), A)
    assert z_membership(rs, A, A)
    E01 = np.zeros((3, 3))
    E01[0, 1] = 1
    assert not z_membership(rs, np.eye(3) + E01, A)


def test_structure_maps_and_axioms(roots):
    for n in (1, 2, 3, 4):
        rs = roots[n]
        rng = np.random.default_rng(600 + n)
        for _ in range(20):
            s = rand_s(rng, n)
            A = build_M(rs, s)
            p1, p2, p3 = (random_point(rs, rng, A) for _ in range(3))
            assert np.array_equal(source(p1), target(p1))
            lhs = groupoid_compose(rs, make_pair(groupoid_compose(rs, make_pair(p1, p2)), p3))
            rhs = groupoid_compose(rs, make_pair(p1, groupoid_compose(rs, make_pair(p2, p3))))
            assert point_distance(lhs, rhs) < 1e-10
            u = unit(rs, A)
            assert point_distance(groupoid_compose(rs, make_pair(p1, u)), p1) < 1e-10
            assert (
                point_distance(groupoid_compose(rs, make_pair(p1, groupoid_inverse(rs, p1))), u)
                < 1e-10
            )


def test_composition_example_rank1(roots):
    rs = roots[1]
    A = build_M(rs, np.array([1.0 + 0j]))
    p = make_point(rs, A, A)
    pp = groupoid_compose(rs, make_pair(p, p))
    assert np.allclose(pp.B, [[-1, -1], [1, 0]])


def test_noncomposable_rejected(roots):
    rs = roots[1]
    p = make_point(rs, np.eye(2), build_M(rs, np.array([1.0 + 0j])))
    q = make_point(rs, np.eye(2), build_M(rs, np.array([2.0 + 0j])))
    with pytest.raises(NotComposableError):
        make_pair(p, q)


def test_centralizer_basis(roots):
    st1 = structural_matrices(1)
    (E,) = centralizer_basis(st1.PiHat)
    assert np.isclose(abs(np.vdot(E, st1.PiHat)), np.linalg.norm(st1.PiHat))
    with pytest.raises(NotRegularError):
        centralizer_basis(np.eye(3))
    for n in (1, 2, 3, 4):
        rs = roots[n]
        rng = np.random.default_rng(3 + n)
        for _ in range(20):
            A = build_M(rs, rand_s(rng, n))
            E = centralizer_basis(A)
            assert E.shape == (n, n + 1, n + 1)
            gram = np.einsum("kij,lij->kl", E.conj(), E)
            assert np.max(np.abs(gram - np.eye(n))) < 1e-14
            # subtracting Tr A^j / N leaves round-off of the size of A^j: 1.7e-14 at n = 4
            assert np.max(np.abs(np.trace(E, axis1=1, axis2=2))) < 1e-12
            assert np.max(np.abs(E @ A - A @ E)) < 1e-14 * np.linalg.norm(A)


def test_sample_commuting_properties(roots):
    for n in (1, 2, 3, 4):
        rs = roots[n]
        rng = np.random.default_rng(700 + n)
        s = rand_s(rng, n)
        A = build_M(rs, s)
        B1 = sample_commuting(A, seed=123)
        B2 = sample_commuting(A, seed=123)
        assert np.array_equal(B1, B2)
        assert np.max(np.abs(B1 @ A - A @ B1)) < 1e-11
        assert abs(determinant(B1) - 1) < 1e-10
        assert z_membership(rs, B1, A, tol=1e-8)


def test_sample_commuting_needs_regular():
    with pytest.raises(NotRegularError):
        sample_commuting(np.eye(2), seed=0)


def test_slocal_fiber_sampling(roots):
    for n in (1, 2, 3, 4):
        rs = roots[n]
        rng = np.random.default_rng(800 + n)
        s = rand_palindromic_s(rng, n)
        A = build_M(rs, s)
        p = sample_slocal_fiber(rs, A, seed=11)
        mem = slocal_membership(rs, p, tol=1e-8)
        assert mem["fixed_route"] and mem["direct_route"]
    with pytest.raises(PreconditionError):
        sample_slocal_fiber(roots[1], build_M(roots[1], np.array([1j])), seed=0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_slocal_fiber_fixed_to_round_off(n):
    """300 fixed-locus samples per rank: sigma(p) = theta(p) = p within the point
    tolerance, and |det B - 1| within 10 N u cond(B)."""
    rs = derive_root_sets(n)
    rng = np.random.default_rng(2500 + n)
    u = np.finfo(float).eps
    for _ in range(300):
        p = random_slocal_point(rs, rng)
        mem = slocal_membership(rs, p, tol=POINT_TOL)
        assert mem["fixed_route"] and mem["direct_route"]
        assert abs(np.linalg.det(p.B) - 1) <= 10 * (n + 1) * u * np.linalg.cond(p.B)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_seeded_samplers_draw_in_documented_order(roots, n):
    """random_point draws s then the sampler seed; given A, only the seed."""
    rs = roots[n]
    rng, twin = np.random.default_rng(1000 + n), np.random.default_rng(1000 + n)
    A = build_M(rs, rand_s(twin, n))
    B = sample_commuting(A, int(twin.integers(0, 2 ** 31)))
    p = random_point(rs, rng)
    assert np.array_equal(p.B, B) and np.array_equal(p.A, A)
    q = random_point(rs, rng, p.A)
    assert np.array_equal(q.B, sample_commuting(A, int(twin.integers(0, 2 ** 31))))
    A = build_M(rs, rand_palindromic_s(twin, n))
    f = random_slocal_point(rs, rng)
    assert np.array_equal(f.B, sample_slocal_fiber(rs, A, int(twin.integers(0, 2 ** 31))).B)
    g = random_slocal_point(rs, rng, f.A)
    assert np.array_equal(g.B, sample_slocal_fiber(rs, A, int(twin.integers(0, 2 ** 31))).B)
    assert rng.random() == twin.random()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tangent_space_dimension(roots, n):
    rs = roots[n]
    rng = np.random.default_rng(900 + n)
    for _ in range(10):
        p = random_point(rs, rng)
        U = tangent_space(rs, p)
        assert len(U) == 2 * n and U.shape[1:] == (2, n + 1, n + 1)
        # every row satisfies the linearized constraints
        X, Y = U[:, 0], U[:, 1]
        assert np.max(np.abs(X @ p.A - p.A @ X + p.B @ Y - Y @ p.B)) < 1e-10
        assert np.max(np.abs(np.trace(np.linalg.inv(p.B) @ X, axis1=1, axis2=2))) < 1e-10


def test_tangent_space_unit_example(roots):
    rs = roots[1]
    st1 = structural_matrices(1)
    A = build_M(rs, np.zeros(1))
    p = unit(rs, A)
    dM = dM_ds(rs, p.s)
    assert np.allclose(dM[0], [[0, 0], [0, -1]])
    U = tangent_space(rs, p)
    assert len(U) == 2
    # the explicit fiber and horizontal directions satisfy the constraints
    uF = fiber_vector(p, st1.PiHat)
    uH = horizontal_vector_at_unit(rs, p, np.array([1.0 + 0j]))
    for X, Y in (uF, uH):
        res = np.max(np.abs(X @ A - A @ X + p.B @ Y - Y @ p.B))
        assert res < 1e-12
        assert abs(np.trace(np.linalg.inv(p.B) @ X)) < 1e-12
    # and they lie in the span of the computed kernel basis
    K = U.reshape(len(U), -1).T
    for u in (uF, uH):
        w = u.ravel()
        coef, *_ = np.linalg.lstsq(K, w, rcond=None)
        assert np.max(np.abs(K @ coef - w)) < 1e-9
