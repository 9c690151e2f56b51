import cmath
import math

import numpy as np
import pytest
from scipy.linalg import null_space

from ucgl.core import determinant, structural_matrices
from ucgl.errors import (
    NotComposableError,
    NotRegularError,
    PreconditionError,
)
from ucgl.groupoid import (
    _centralizer_basis,
    _seeded_normals,
    _tangent_frame,
    centralizer_basis,
    commuting_point,
    draw_seed,
    fiber_vector,
    groupoid_compose,
    groupoid_inverse,
    horizontal_vector_at_unit,
    make_pair,
    random_points,
    random_slocal_points,
    sample_commuting,
    sample_slocal_fiber,
    tangent_space,
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
            p1, p2, p3 = (commuting_point(rs, A, draw_seed(rng)) for _ in range(3))
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


def test_centralizer_basis_memo(roots):
    """A non-regular A raises on every call; equal arrays share one read-only E."""
    for _ in range(2):
        with pytest.raises(NotRegularError):
            centralizer_basis(np.eye(3))
    A = build_M(roots[3], rand_s(np.random.default_rng(5), 3))
    E = centralizer_basis(A)
    np.testing.assert_array_equal(centralizer_basis(A.copy()), E)
    # (hits, misses): an exception is not stored, so each raise was a miss
    assert _centralizer_basis.cache_info()[:2] == (1, 3)
    with pytest.raises(ValueError):
        E[0, 0, 0] = 0.0


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
    for p in random_slocal_points(rs, rng, 300):
        mem = slocal_membership(rs, p, tol=POINT_TOL)
        assert mem["fixed_route"] and mem["direct_route"]
        assert abs(np.linalg.det(p.B) - 1) <= 10 * (n + 1) * u * np.linalg.cond(p.B)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_seeded_samplers_draw_in_documented_order(roots, n):
    """random_points draws, for all its points at once, every real part of s,
    then every imaginary part, then every sampler seed; random_slocal_points
    every half of its palindromic s, then every seed.  One draw alone is the
    only row of a stack of one."""
    rs = roots[n]
    rng, twin = np.random.default_rng(1000 + n), np.random.default_rng(1000 + n)
    p, f = random_points(rs, rng, 3), random_slocal_points(rs, rng, 3)
    A = build_M(rs, twin.standard_normal((3, n)) + 1j * twin.standard_normal((3, n)))
    assert np.array_equal(p.A, A)
    assert np.array_equal(p.B, sample_commuting(A, twin.integers(0, 2 ** 31, 3)))
    half = twin.standard_normal((3, (n + 1) // 2))
    A = build_M(rs, np.concatenate([half, half[:, : n // 2][:, ::-1]], axis=1) + 0j)
    assert np.array_equal(f.B, sample_slocal_fiber(rs, A, twin.integers(0, 2 ** 31, 3)).B)
    assert rng.random() == twin.random()
    for one, stack in ((rand_s(rng, n), rand_s(twin, (1, n))[0]),
                       (rand_palindromic_s(rng, n), rand_palindromic_s(twin, (1, n))[0]),
                       (draw_seed(rng), draw_seed(twin, 1)[0])):
        assert np.shape(one) == np.shape(stack) and np.array_equal(one, stack)


def _raises_alike(call, *args):
    with pytest.raises(Exception) as err:
        call(*args)
    return type(err.value), str(err.value)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_seeded_draws_of_a_stack_equal_the_single_calls(roots, n):
    """A stack of seeds, 0 and 2^31 - 1 among them, draws bit for bit what
    each seed draws alone, and so does sample_commuting on a stack of bases; a
    negative seed, in a list or in a signed array, or a non-regular base in
    the stack raises what the single call raises."""
    rs, rng = roots[n], np.random.default_rng(3000 + n)
    seeds = [0, 2 ** 31 - 1] + [draw_seed(rng) for _ in range(30)]
    c = _seeded_normals(seeds, n)
    assert c.shape == (32, n) and c.dtype == complex and np.isfinite(c).all()
    assert c.tobytes() == np.array([_seeded_normals(t, n) for t in seeds]).tobytes()
    assert _seeded_normals(np.reshape(seeds, (4, 8)), n).tobytes() == c.tobytes()
    A = build_M(rs, np.array([rand_s(rng, n) for _ in seeds]))
    B = sample_commuting(A, seeds)
    assert B.tobytes() == np.array([sample_commuting(a, t) for a, t in zip(A, seeds)]).tobytes()
    negative = seeds[:7] + [-1] + seeds[8:]
    assert _raises_alike(sample_commuting, A, negative) == _raises_alike(sample_commuting, A[7], -1)
    assert (_raises_alike(sample_commuting, A, np.array(negative))
            == _raises_alike(sample_commuting, A[7], -1))
    assert _raises_alike(sample_commuting, A[7], -1)[0] is OverflowError
    flat = A.copy()
    flat[7] = np.eye(n + 1)
    assert _raises_alike(sample_commuting, flat, seeds) == _raises_alike(sample_commuting, flat[7], 7)
    assert _raises_alike(sample_commuting, flat[7], 7)[0] is NotRegularError


def test_seeded_draws_follow_the_law_of_rand_s():
    """Over 2 * 10^5 draws, at consecutive seeds (neighbouring counters), the
    real and imaginary parts have mean 0 and variance 1 and are uncorrelated,
    with each other, across the coefficients of a seed and across neighbouring
    seeds, all within 5 sigma of independent standard normals."""
    c = _seeded_normals(np.arange(50_000), 4)
    m = c.size
    x, y = c.real.ravel(), c.imag.ravel()
    for part in (x, y):
        assert abs(part.mean()) < 5 / np.sqrt(m)
        assert abs(part.var() - 1) < 5 * np.sqrt(2 / m)
    pairs = [(x, y), (c[:, 0].real, c[:, 1].real), (c[:-1, 0].real, c[1:, 0].real)]
    for a, b in pairs:
        assert abs(np.corrcoef(a, b)[0, 1]) < 5 / np.sqrt(len(a))


def _splitmix64(k):
    """The k-th output of SplitMix64 seeded at 0, in Python integers."""
    mask = 2 ** 64 - 1
    z = k * 0x9E3779B97F4A7C15 & mask
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & mask
    z = (z ^ z >> 27) * 0x94D049BB133111EB & mask
    return z ^ z >> 31


@pytest.mark.parametrize("n", [1, 3])
def test_seeded_draws_match_a_splitmix64_reference(n):
    """Each seed's coefficients from its counters through a scalar SplitMix64
    and Box-Muller in the math module, to a few units of round-off."""
    for t in (0, 1, 7, 2 ** 31 - 1):
        u = [((_splitmix64(2 * n * t + k) >> 11) + 1) * 2.0 ** -53 for k in range(1, 2 * n + 1)]
        ref = [math.sqrt(-2 * math.log(u[j])) * cmath.exp(2j * math.pi * u[n + j]) for j in range(n)]
        assert np.allclose(_seeded_normals(t, n), ref, rtol=1e-14, atol=1e-15)


def test_distinct_seeds_draw_distinct_coefficients():
    for n in (1, 4):
        c = _seeded_normals(np.arange(20_000), n)
        assert len({row.tobytes() for row in c}) == len(c)
        assert len(np.unique(c.real)) == c.size


def test_stacked_samplers_build_no_generator(roots, monkeypatch):
    """On a stack, sample_commuting and sample_slocal_fiber draw every point's
    coefficients without a numpy Generator."""
    rs, rng = roots[3], np.random.default_rng(3100)
    seeds = [draw_seed(rng) for _ in range(10)]
    A = build_M(rs, np.array([rand_s(rng, 3) for _ in seeds]))
    F = build_M(rs, np.array([rand_palindromic_s(rng, 3) for _ in seeds]))

    def forbidden(*args, **kwargs):
        raise AssertionError("a sampler built a Generator")

    monkeypatch.setattr(np.random, "default_rng", forbidden)
    assert sample_commuting(A, seeds).shape == A.shape
    assert sample_slocal_fiber(rs, F, seeds).B.shape == F.shape


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tangent_space_dimension(roots, n):
    rs = roots[n]
    rng = np.random.default_rng(900 + n)
    for p in random_points(rs, rng, 10):
        U, sdot = tangent_space(rs, p)
        assert len(U) == 2 * n and U.shape[1:] == (2, n + 1, n + 1)
        assert sdot.shape == (2 * n, n)
        # each Y is the section's derivative along the row's base velocity
        assert np.max(np.abs(U[:, 1] - np.tensordot(sdot, dM_ds(rs, p.s), axes=1))) < 1e-12
        # every row satisfies the linearized constraints
        X, Y = U[:, 0], U[:, 1]
        assert np.max(np.abs(X @ p.A - p.A @ X + p.B @ Y - Y @ p.B)) < 1e-10
        assert np.max(np.abs(np.trace(np.linalg.inv(p.B) @ X, axis1=1, axis2=2))) < 1e-10


def _constraints(points, dM):
    """The linearized constraints of k points over one base, on the unknowns
    (X_1, ..., X_k, sdot) with X row-major flattened: per point the block
    X_i -> [X_i, A] built with np.kron, the block sdot -> [B_i, Y(sdot)], and
    the row X_i -> Tr(B_i^{-1} X_i)."""
    k, N, n = len(points), len(dM[0]), len(dM)
    NN = N * N
    L = np.zeros((k * NN + k, k * NN + n), dtype=complex)
    for i, x in enumerate(points):
        rows = np.s_[i * NN : (i + 1) * NN]
        L[rows, rows] = np.kron(np.eye(N), x.A.T) - np.kron(x.A, np.eye(N))
        L[rows, k * NN :] = np.transpose([(x.B @ d - d @ x.B).ravel() for d in dM])
        L[k * NN + i, rows] = np.linalg.inv(x.B).T.ravel()
    return L


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_tangent_frames_span_the_constraint_null_space(roots, n):
    """At 20 random points and 20 composable pairs over their bases, the frame
    rows (X_1, ..., X_k, sdot) of tangent_space and composable_tangent_basis
    are orthonormal and span scipy.linalg.null_space of the constraints, at
    relative cutoff 1e-8."""
    rs, rng = roots[n], np.random.default_rng(500 + n)
    p = random_points(rs, rng, 20)
    q = commuting_point(rs, p.A, [draw_seed(rng) for _ in range(20)])
    for x, y in zip(p, q):
        dM = dM_ds(rs, x.s)
        for points in ((x,), (x, y)):
            W = np.concatenate([x.reshape(len(x), -1) for x in _tangent_frame(rs, points, dM)], axis=1)
            K = null_space(_constraints(points, dM), rcond=1e-8)
            assert W.shape == ((len(points) + 1) * n, len(K)) and K.shape[1] == len(W)
            assert np.max(np.abs(W @ W.conj().T - np.eye(len(W)))) < 1e-13
            assert np.max(np.abs(W.T - K @ (K.conj().T @ W.T))) < 1e-10


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_horizontal_vector_at_unit_has_a_zero_b_slot(roots, n):
    """The X-slot, which varies B, of a horizontal vector at a unit is exactly
    zero: at one unit, at a stack of units, and with m tangents per unit.
    symplectic.unit_pullback_zero cannot see every nonzero one (X = Y or
    Y @ Y leaves omega's (H, H) block at round-off), so the slot is read here."""
    rs = roots[n]
    rng = np.random.default_rng(2900 + n)
    u = unit(rs, build_M(rs, np.array([rand_s(rng, n) for _ in range(6)])))
    sdot = rng.standard_normal((6, 3, n)) + 1j * rng.standard_normal((6, 3, n))
    for v in (horizontal_vector_at_unit(rs, u, sdot), horizontal_vector_at_unit(rs, u, sdot[:, 0]),
              horizontal_vector_at_unit(rs, u[2], sdot[2]), horizontal_vector_at_unit(rs, u[2], sdot[2, 0])):
        assert not np.any(v[..., 0, :, :]) and np.any(v[..., 1, :, :])


def test_tangent_space_unit_example(roots):
    rs = roots[1]
    st1 = structural_matrices(1)
    A = build_M(rs, np.zeros(1))
    p = unit(rs, A)
    dM = dM_ds(rs, p.s)
    assert np.allclose(dM[0], [[0, 0], [0, -1]])
    U, _ = tangent_space(rs, p)
    assert len(U) == 2
    # the explicit fiber and horizontal directions satisfy the constraints
    uF = fiber_vector(p, st1.PiHat)
    uH = horizontal_vector_at_unit(rs, p, np.array([1.0 + 0j]))
    for X, Y in (uF, uH):
        res = np.max(np.abs(X @ A - A @ X + p.B @ Y - Y @ p.B))
        assert res < 1e-12
        assert abs(np.trace(np.linalg.inv(p.B) @ X)) < 1e-12
    # and they lie in the span of the computed frame
    K = U.reshape(len(U), -1).T
    for u in (uF, uH):
        w = u.ravel()
        coef, *_ = np.linalg.lstsq(K, w, rcond=None)
        assert np.max(np.abs(K @ coef - w)) < 1e-9
