import numpy as np
import pytest

from ucgl import symplectic
from ucgl.core import inverse, structural_matrices
from ucgl.errors import NotComposableError
from ucgl.groupoid import (
    centralizer_basis,
    commuting_point,
    draw_seed,
    fiber_vector,
    horizontal_vector_at_unit,
    make_pair,
    random_points,
    random_slocal_points,
    tangent_space,
    unit,
)
from ucgl.stokes import build_M, rand_palindromic_s, rand_s, semisimple_s
from ucgl.symplectic import (
    _K,
    _character_jacobian,
    _characters,
    _exterior_derivative,
    _omega_derivative,
    _slots,
    closedness_residual,
    composable_tangent_basis,
    gram_matrix,
    involution_pullback_residual,
    multiplicativity_residual,
    omega,
    omega_gram,
    poisson_bracket_residual,
    real_form_checks,
    type_20_residual,
    unit_block_values,
)


def random_unit_tangents(rs, rng, u0):
    n = rs.n
    traceless = centralizer_basis(u0.A)
    cf = rand_s(rng, n)
    xi = sum(cf[j] * traceless[j] for j in range(n))
    uF = fiber_vector(u0, xi)
    uH = horizontal_vector_at_unit(rs, u0, rand_s(rng, n))
    return uF, uH


def test_unit_block_hand_values(roots):
    rs = roots[1]
    st1 = structural_matrices(1)
    A = st1.PiHat  # the section element at s = 0
    u0 = unit(rs, A)
    E01 = np.zeros((2, 2), dtype=complex)
    E01[0, 1] = 1.0
    uF = fiber_vector(u0, st1.PiHat)
    vH = np.array([np.zeros((2, 2)), A @ E01], dtype=complex)
    assert unit_block_values(A, uF, vH) == pytest.approx(-1.0)
    assert unit_block_values(A, vH, uF) == pytest.approx(1.0)
    assert unit_block_values(A, uF, uF) == 0.0
    assert unit_block_values(A, vH, vH) == 0.0
    # the direct evaluation must reproduce the closed forms
    assert abs(omega(u0, uF, vH) - (-1.0)) < 1e-12
    assert abs(omega(u0, uF, uF)) == 0.0


def test_unit_block_oracle_random(roots):
    for n in (1, 2, 3):
        rs = roots[n]
        rng = np.random.default_rng(1000 + n)
        for _ in range(50):
            u0 = unit(rs, build_M(rs, rand_s(rng, n)))
            uF, uH = random_unit_tangents(rs, rng, u0)
            vF, vH = random_unit_tangents(rs, rng, u0)
            for a, b in ((uF, vF), (uH, vH), (uF, vH), (uH, vF)):
                assert abs(omega(u0, a, b) - unit_block_values(u0.A, a, b)) < 1e-11
            assert abs(omega(u0, uH, vH)) < 1e-12  # pullback by the unit map vanishes


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_unit_closed_form_on_tangent_basis(roots, n):
    """The closed form equals omega on every pair of a full tangent basis at
    a unit, general frame vectors included, and misses it off the units."""
    rs = roots[n]
    rng = np.random.default_rng(2300 + n)

    def both(p):
        U, _ = tangent_space(rs, p)
        G = np.array([[omega(p, u, v) for v in U] for u in U])
        closed = np.array([[unit_block_values(p.A, u, v) for v in U] for u in U])
        return G, np.max(np.abs(closed - G))

    misses = []
    for _ in range(10):
        G, miss = both(unit(rs, build_M(rs, rand_s(rng, n))))
        assert miss <= 1e-12 * np.max(np.abs(G))
        misses.append(both(random_points(rs, rng, 1)[0])[1])
    # negative control: away from the units the formula is wrong
    assert min(misses) > 1e-3


def test_omega_antisymmetry(roots):
    rs = roots[2]
    rng = np.random.default_rng(5)
    p = random_points(rs, rng, 1)[0]
    vecs, _ = tangent_space(rs, p)
    for u in vecs:
        assert omega(p, u, u) == 0
    for u in vecs:
        for v in vecs:
            assert abs(omega(p, u, v) + omega(p, v, u)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_omega_gram_matches_trace_formula(roots, n):
    rs = roots[n]
    p = random_points(rs, np.random.default_rng(1800 + n), 1)[0]
    U, _ = tangent_space(rs, p)
    U = np.concatenate([U, 1j * U])
    a, gi, ai = p.A, np.linalg.inv(p.B), np.linalg.inv(p.A)

    def literal(u, v):
        (Xu, Yu), (Xv, Yv) = u, v
        xu, xv = gi @ Xu, gi @ Xv
        return 0.5 * (
            np.trace(a @ xu @ ai @ xv)
            - np.trace(a @ xv @ ai @ xu)
            + np.trace(xu @ (ai @ Yv + Yv @ ai))
            - np.trace(xv @ (ai @ Yu + Yu @ ai))
        )

    ref = np.array([[literal(u, v) for v in U] for u in U])
    G = omega_gram(p.B, a, U)
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(G - ref)) < 1e-12 * scale
    assert np.array_equal(G, -G.T)
    assert not np.any(np.diag(G))
    # the two-stack form gives the off-diagonal block
    assert np.max(np.abs(omega_gram(p.B, a, U[:2], U[2:]) - ref[:2, 2:])) < 1e-12 * scale


def test_multiplicativity_rejects_unequal_base_variation(roots):
    rs = roots[2]
    rng = np.random.default_rng(19)
    A = build_M(rs, rand_s(rng, 2))
    pair = make_pair(unit(rs, A), unit(rs, A))
    basis = composable_tangent_basis(rs, pair)
    basis[0, 1, 1] += 1.0  # the Y-component of u2 in the first pair
    with pytest.raises(NotComposableError):
        multiplicativity_residual(rs, pair, basis)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_multiplicativity(roots, n):
    rs = roots[n]
    rng = np.random.default_rng(1100 + n)
    worst = 0.0
    for _ in range(10):
        A = build_M(rs, rand_s(rng, n))
        pair = make_pair(*(commuting_point(rs, A, draw_seed(rng)) for _ in range(2)))
        basis = composable_tangent_basis(rs, pair)
        assert len(basis) == 3 * n
        worst = max(worst, multiplicativity_residual(rs, pair, basis))
    assert worst < 1e-8


def test_multiplicativity_with_unit_slot(roots):
    rs = roots[2]
    rng = np.random.default_rng(7)
    A = build_M(rs, rand_s(rng, 2))
    u0 = unit(rs, A)
    pair = make_pair(u0, u0)
    basis = composable_tangent_basis(rs, pair)
    assert multiplicativity_residual(rs, pair, basis) < 1e-12


@pytest.mark.parametrize("n,tol", [(1, 1e-5), (2, 1e-4), (3, 1e-3), (4, 1e-3)])
def test_closedness(roots, n, tol):
    rs = roots[n]
    rng = np.random.default_rng(1200 + n)
    for p in random_points(rs, rng, 3):
        assert closedness_residual(rs, p) < tol


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_closedness_detects_non_tangent_frame(roots, monkeypatch, n):
    """Negative control: a frame pushed off the tangent spaces is not closed.

    It has 2n + 1 vectors: d omega is a holomorphic 3-form, so it vanishes on
    the real frame of any complex plane, and at n = 1 the tangent space is one.
    """
    rs = roots[n]
    rng = np.random.default_rng(2200 + n)
    p = random_points(rs, rng, 1)[0]
    U, sdot = tangent_space(rs, p)
    W = np.concatenate([U, U[:1]]) + 0.1 * rng.standard_normal((2 * n + 1,) + U.shape[1:])
    monkeypatch.setattr(symplectic, "tangent_space", lambda rs, p: (W, sdot))
    assert closedness_residual(rs, p) > (1e-4 if n <= 2 else 1e-3)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_closedness_frame_independent(roots, n):
    """d omega on the real frame F = [U, iU] and on a random real recombination
    M F agree through M (x) M (x) M, and vanish; on a frame off the tangent
    space they agree too, and do not vanish."""
    rs = roots[n]
    rng = np.random.default_rng(2500 + n)
    for p in _three_points(rs, rng):
        U, _ = tangent_space(rs, p)
        F = np.concatenate([U, 1j * U])
        M = rng.standard_normal((4 * n, 4 * n))
        for W, closed in ((F, True), (F + 0.1 * rng.standard_normal(F.shape), False)):
            MW = np.tensordot(M, W, axes=1)
            dw, dwM = _exterior_derivative(p.B, p.A, W), _exterior_derivative(p.B, p.A, MW)
            ref = np.einsum("ia,jb,kc,abc->ijk", M, M, M, dw)
            # round-off scales with the terms of the alternating sum; D vanishes at n = 1 units
            scale = max(np.max(np.abs(_omega_derivative(p.B, p.A, MW))),
                        np.max(np.abs(omega_gram(p.B, p.A, MW))))
            assert np.max(np.abs(dwM - ref)) < 1e-11 * scale
            assert (np.max(np.abs(dwM)) < 1e-11 * scale) == closed


def _slots_broadcast(gi, a, ai, W):
    """Reference for symplectic._slots: each product broadcast over the
    tangent axis, one per tangent."""
    gi, a, ai = (M[..., None, :, :] for M in (gi, a, ai))
    x = gi @ W[..., 0, :, :]
    Y = W[..., 1, :, :]
    return x, a @ x @ ai, ai @ Y + Y @ ai


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_folded_slots_match_broadcast_products(n):
    """_slots folds the tangent axis into the rows of one product per point.
    Against the broadcast products it agrees to round-off, entry by entry
    against the same products of the moduli, for m = 1 and 3n tangents at
    no, one and two leading point axes; and a stack of points gives the
    bytes of its single points.  Over 200 draws per rank at n = 1..5 the
    largest difference read 1.8e-16 of N times its bound's entry."""
    N = n + 1
    rng = np.random.default_rng(2700 + n)

    def draw(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    for lead in ((), (4,), (3, 2)):
        for m in (1, 3 * n):
            gi, a, ai, W = draw(*lead, N, N), draw(*lead, N, N), draw(*lead, N, N), draw(*lead, m, 2, N, N)
            got = _slots(gi, a, ai, W)
            moduli = _slots_broadcast(*(np.abs(M) for M in (gi, a, ai, W)))
            for slot, want, bound in zip(got, _slots_broadcast(gi, a, ai, W), moduli):
                assert slot.shape == want.shape == lead + (m, N, N)
                assert np.all(np.abs(slot - want) <= 1e-15 * N * bound)
            for k in np.ndindex(lead):
                single = _slots(gi[k], a[k], ai[k], W[k])
                assert all(x[k].tobytes() == y.tobytes() for x, y in zip(got, single))


def _K_einsum(P, Q):
    """Reference for symplectic._K: each trace pairing as one einsum."""
    return (np.einsum("...iab,...jba->...ij", P[1], Q[0])
            + np.einsum("...iab,...jba->...ij", P[0], Q[2]))


def _omega_derivative_products(g, a, U):
    """Reference for symplectic._omega_derivative: the slot derivatives as
    (w, v) stacks of matrix products, paired by _K_einsum."""
    gi, ai = inverse(g), inverse(a)
    P = _slots(gi, a, ai, U)
    x, Ad, Y = P[0], P[1], U[:, 1]
    aY, Ya = ai @ Y, Y @ ai
    w = np.s_[:, None]
    xd = -(x[w] @ x)
    Adv = (Y[w] @ x + a @ xd - Ad @ Y[w]) @ ai
    zd = -(aY[w] @ aY) - Ya @ Ya[w]
    Pd = (xd, Adv, zd)
    Kd = _K_einsum(Pd, P) + _K_einsum(P, Pd)
    return 0.5 * (Kd - Kd.transpose(0, 2, 1))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_trace_kernels_match_references(roots, n):
    """_K and _omega_derivative, as flattened matmuls, against the einsum and
    (w, v)-product references, on the real frame and on a random ambient stack.

    Both sides sum the same products in another order.  So _K's difference is
    scaled by the pairings of the moduli, and D's by max(|D|, |omega|) times
    cond(B), since x = B^{-1} X carries B's conditioning into every term (D
    vanishes at n = 1 units).  Over 300 points per rank (random, fixed-locus,
    units), on both stacks at n = 1..5, these read at most 3.9e-16 and
    8.7e-16; the bounds are a decade above.
    """
    rs = roots[n]
    rng = np.random.default_rng(2600 + n)
    for p in _three_points(rs, rng):
        U, _ = tangent_space(rs, p)
        F = np.concatenate([U, 1j * U])
        for W in (F, rng.standard_normal(F.shape) + 1j * rng.standard_normal(F.shape)):
            gi, ai = inverse(p.B), inverse(p.A)
            P, Q = _slots(gi, p.A, ai, W), _slots(gi, p.A, ai, W[::-1])
            moduli = _K_einsum([np.abs(t) for t in P], [np.abs(t) for t in Q])
            assert np.max(np.abs(_K(P, Q) - _K_einsum(P, Q))) < 4e-15 * np.max(moduli)
            ref = _omega_derivative_products(p.B, p.A, W)
            scale = max(np.max(np.abs(ref)), np.max(np.abs(omega_gram(p.B, p.A, W))))
            assert (np.max(np.abs(_omega_derivative(p.B, p.A, W) - ref))
                    < 2e-14 * np.linalg.cond(p.B) * scale)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_omega_derivative_matches_gram_differences(roots, n):
    """D[w] against a central difference of omega_gram along frame vector w.

    The product rule holds for any ambient stack, so a random one is checked
    too: on tangent frames some slot terms cancel and would hide a wrong sign.
    """
    rs = roots[n]
    rng = np.random.default_rng(2100 + n)
    h = 1e-6
    for p in _three_points(rs, rng):
        U, _ = tangent_space(rs, p)
        U = np.concatenate([U, 1j * U])
        g, a = p.B, p.A
        for W in (U, rng.standard_normal(U.shape) + 1j * rng.standard_normal(U.shape)):
            D = _omega_derivative(g, a, W)
            ref = np.array([
                (omega_gram(g + h * X, a + h * Y, W) - omega_gram(g - h * X, a - h * Y, W))
                / (2 * h)
                for X, Y in W
            ])
            # the difference's round-off scales with the Gram; D vanishes at n = 1 units
            scale = max(np.max(np.abs(D)), np.max(np.abs(omega_gram(g, a, W))))
            assert np.max(np.abs(D - ref)) < 1e-7 * scale
            assert np.array_equal(D, -D.transpose(0, 2, 1))


def test_gram_unit_example(roots):
    rs = roots[1]
    A = build_M(rs, np.zeros(1))
    u0 = unit(rs, A)
    st1 = structural_matrices(1)
    uF = fiber_vector(u0, st1.PiHat)
    uH = horizontal_vector_at_unit(rs, u0, np.array([1.0 + 0j]))
    G, min_singular = gram_matrix(u0, np.array([uF, uH]))
    assert np.array_equal(G, -G.T)
    assert abs(G[0, 0]) == 0 and abs(G[1, 1]) == 0
    assert abs(abs(G[0, 1]) - 1.0) < 1e-12
    assert min_singular > 1e-6


@pytest.mark.parametrize("n", [1, 2, 3])
def test_nondegeneracy(roots, n):
    rs = roots[n]
    rng = np.random.default_rng(1300 + n)
    for i in range(6):
        A = build_M(rs, semisimple_s(rs, rng))  # keep eigenvalues well separated
        p = unit(rs, A) if i % 2 == 0 else commuting_point(rs, A, draw_seed(rng))
        basis, _ = tangent_space(rs, p)
        assert gram_matrix(p, basis)[1] > 1e-6


@pytest.mark.parametrize("n", [1, 2, 3])
def test_involution_pullbacks(roots, n):
    rs = roots[n]
    rng = np.random.default_rng(1400 + n)
    u0 = unit(rs, build_M(rs, rand_s(rng, n)))
    # (sigma, theta) from one frame
    assert involution_pullback_residual(rs, u0).shape == (2,)
    assert (involution_pullback_residual(rs, u0) < 1e-9).all()
    p = random_points(rs, rng, 1)[0]
    assert (involution_pullback_residual(rs, p) < 1e-5).all()


def test_character_system(roots):
    sig = 0.9
    assert _characters(roots[1], np.array([sig + 0j]))[0] == pytest.approx(-sig)  # the trace
    assert np.allclose(_characters(roots[2], np.zeros(2)), 0)


@pytest.mark.parametrize("n", [2, 3])
def test_poisson_brackets(roots, n):
    rs = roots[n]
    rng = np.random.default_rng(1500 + n)
    p = random_points(rs, rng, 1)[0]
    r = poisson_bracket_residual(rs, p, *tangent_space(rs, p))
    assert r.shape == (n * (n - 1) // 2,)
    assert np.all(r < 1e-5)


def test_fiber_isotropy_and_type(roots):
    for n in (1, 2, 3):
        rs = roots[n]
        rng = np.random.default_rng(1600 + n)
        p = random_points(rs, rng, 1)[0]
        traceless = centralizer_basis(p.A)
        cf, ce = rand_s(rng, n), rand_s(rng, n)
        uF = fiber_vector(p, sum(cf[k] * traceless[k] for k in range(n)))
        vF = fiber_vector(p, sum(ce[k] * traceless[k] for k in range(n)))
        assert abs(omega(p, uF, vF)) < 1e-9
        U, _ = tangent_space(rs, p)
        assert np.max(np.abs(omega_gram(p.B, p.A, U))) > 1e-2  # omega is not zero here
        assert type_20_residual(p, U) < 1e-10


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_type_two_zero_detects_real_part(roots, monkeypatch, n):
    """Negative control: an omega that takes its real part is not complex bilinear."""
    rs = roots[n]
    p = random_points(rs, np.random.default_rng(1650 + n), 1)[0]
    U, _ = tangent_space(rs, p)
    gram = symplectic.omega_gram
    monkeypatch.setattr(symplectic, "omega_gram", lambda *args: gram(*args).real)
    assert type_20_residual(p, U) > 1e-10


def _three_points(rs, rng):
    """A random point, a unit and a fixed-locus point of rank rs.n."""
    n = rs.n
    return [
        random_points(rs, rng, 1)[0],
        unit(rs, build_M(rs, rand_s(rng, n))),
        random_slocal_points(rs, rng, 1)[0],
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_character_jacobian_matches_differences(roots, n):
    """Central differences of the characters chi(s), along s_d and i s_d (chi is
    holomorphic), equal the character Jacobian."""
    rs = roots[n]
    rng = np.random.default_rng(2000 + n)
    h = 1e-6
    for s in (rand_s(rng, n), semisimple_s(rs, rng), rand_palindromic_s(rng, n)):
        J = _character_jacobian(rs, s)
        for step in (h, 1j * h):
            ref = np.array([(_characters(rs, s + step * e) - _characters(rs, s - step * e))
                            / (2 * step) for e in np.eye(n)]).T
            assert np.max(np.abs(ref - J)) <= 1e-8


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_real_form_checks(roots, n):
    rs = roots[n]
    rng = np.random.default_rng(1700 + n)
    rep = real_form_checks(rs, random_slocal_points(rs, rng, 1)[0])
    assert rep["re_omega_residual"] < 1e-8
    assert rep["fixed_gap"] < 1e-7
    assert rep["omega2_min_singular"] > 1e-7
    # identity-arrow points work too
    u0 = unit(rs, build_M(rs, rand_palindromic_s(rng, n)))
    rep0 = real_form_checks(rs, u0)
    assert rep0["re_omega_residual"] < 1e-8


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fixed_gap_fails_off_the_fixed_locus(roots, n):
    """Negative control: at generic points no 2n-dimensional fixed space separates."""
    rs = roots[n]
    rng = np.random.default_rng(2400 + n)
    for p in random_points(rs, rng, 5):
        assert real_form_checks(rs, p)["fixed_gap"] > 1e-7
