import numpy as np
import pytest
from scipy.linalg import expm_frechet

from ucgl.core import char_poly, structural_matrices
from ucgl.errors import NotComposableError
from ucgl.groupoid import (
    centralizer_basis,
    fiber_vector,
    horizontal_vector_at_unit,
    make_pair,
    random_point,
    random_slocal_point,
    tangent_space,
    unit,
)
from ucgl.stokes import build_M, dM_ds, rand_palindromic_s, rand_s, semisimple_s
from ucgl.symplectic import (
    SectionChart,
    _character_jacobian,
    _omega_derivative,
    character_system,
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
    a unit, general kernel vectors included, and misses it off the units."""
    rs = roots[n]
    rng = np.random.default_rng(2300 + n)

    def both(p):
        U = tangent_space(rs, p)
        G = np.array([[omega(p, u, v) for v in U] for u in U])
        closed = np.array([[unit_block_values(p.A, u, v) for v in U] for u in U])
        return G, np.max(np.abs(closed - G))

    misses = []
    for _ in range(10):
        G, miss = both(unit(rs, build_M(rs, rand_s(rng, n))))
        assert miss <= 1e-12 * np.max(np.abs(G))
        misses.append(both(random_point(rs, rng))[1])
    # negative control: away from the units the formula is wrong
    assert min(misses) > 1e-3


def test_omega_antisymmetry(roots):
    rs = roots[2]
    rng = np.random.default_rng(5)
    p = random_point(rs, rng)
    vecs = tangent_space(rs, p)
    for u in vecs:
        assert omega(p, u, u) == 0
    for u in vecs:
        for v in vecs:
            assert abs(omega(p, u, v) + omega(p, v, u)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_omega_gram_matches_trace_formula(roots, n):
    rs = roots[n]
    p = random_point(rs, np.random.default_rng(1800 + n))
    chart = SectionChart(rs, p)
    base, U = chart.real_frame(chart.x0())
    a, gi, ai = base.A, np.linalg.inv(base.B), np.linalg.inv(base.A)

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
    G = omega_gram(base.B, a, U)
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(G - ref)) < 1e-12 * scale
    assert np.array_equal(G, -G.T)
    assert not np.any(np.diag(G))
    # the two-stack form gives the off-diagonal block
    assert np.max(np.abs(omega_gram(base.B, a, U[:2], U[2:]) - ref[:2, 2:])) < 1e-12 * scale


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
        pair = make_pair(random_point(rs, rng, A), random_point(rs, rng, A))
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
    for _ in range(3):
        p = random_point(rs, rng)
        assert closedness_residual(rs, p) < tol


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_closedness_detects_non_tangent_frame(roots, monkeypatch, n):
    """Negative control: a frame pushed off the tangent spaces is not closed."""
    rs = roots[n]
    rng = np.random.default_rng(2200 + n)
    p = random_point(rs, rng)
    real_frame = SectionChart.real_frame

    def perturbed(self, x):
        base, U = real_frame(self, x)
        return base, U + 0.1 * rng.standard_normal(U.shape)

    monkeypatch.setattr(SectionChart, "real_frame", perturbed)
    assert closedness_residual(rs, p) > (1e-4 if n <= 2 else 1e-3)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_omega_derivative_matches_gram_differences(roots, n):
    """D[w] against a central difference of omega_gram along frame vector w.

    The product rule holds for any ambient stack, so a random one is checked
    too: on chart frames some slot terms cancel and would hide a wrong sign.
    """
    rs = roots[n]
    rng = np.random.default_rng(2100 + n)
    h = 1e-6
    for p in _three_points(rs, rng):
        chart = SectionChart(rs, p)
        base, U = chart.real_frame(chart.x0())
        g, a = base.B, base.A
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
        p = unit(rs, A) if i % 2 == 0 else random_point(rs, rng, A)
        basis = tangent_space(rs, p)
        assert gram_matrix(p, basis)[1] > 1e-6


@pytest.mark.parametrize("n", [1, 2, 3])
def test_involution_pullbacks(roots, n):
    rs = roots[n]
    rng = np.random.default_rng(1400 + n)
    u0 = unit(rs, build_M(rs, rand_s(rng, n)))
    assert involution_pullback_residual("sigma", rs, u0) < 1e-9
    assert involution_pullback_residual("theta", rs, u0) < 1e-9
    p = random_point(rs, rng)
    assert involution_pullback_residual("sigma", rs, p) < 1e-5
    assert involution_pullback_residual("theta", rs, p) < 1e-5


def test_character_system(roots):
    rs = roots[1]
    sig = 0.9
    cs = character_system(rs, np.array([sig + 0j]))
    assert cs["values"][0] == pytest.approx(-sig)  # the trace of the section element
    assert cs["jacobian_rank"] == 1
    cs2 = character_system(roots[2], np.zeros(2))
    assert np.allclose(cs2["values"], 0)
    assert cs2["jacobian_rank"] == 2


@pytest.mark.parametrize("n", [2, 3])
def test_poisson_brackets(roots, n):
    rs = roots[n]
    rng = np.random.default_rng(1500 + n)
    p = random_point(rs, rng)
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            r = poisson_bracket_residual(rs, i, j, p)
            assert r < 1e-5


def test_fiber_isotropy_and_type(roots):
    for n in (1, 2, 3):
        rs = roots[n]
        rng = np.random.default_rng(1600 + n)
        p = random_point(rs, rng)
        traceless = centralizer_basis(p.A)
        cf, ce = rand_s(rng, n), rand_s(rng, n)
        uF = fiber_vector(p, sum(cf[k] * traceless[k] for k in range(n)))
        vF = fiber_vector(p, sum(ce[k] * traceless[k] for k in range(n)))
        assert abs(omega(p, uF, vF)) < 1e-9
        assert type_20_residual(p, uF, vF) < 1e-10


def test_chart_hits_anchor(roots):
    rs = roots[2]
    rng = np.random.default_rng(17)
    p = random_point(rs, rng)
    chart = SectionChart(rs, p)
    q = chart.point(chart.x0())
    assert np.max(np.abs(q.B - p.B)) < 1e-10
    assert np.max(np.abs(q.A - p.A)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_chart_frame_matches_finite_differences(roots, n):
    rs = roots[n]
    rng = np.random.default_rng(16 + n)
    p = random_point(rs, rng)
    chart = SectionChart(rs, p)
    x0 = chart.x0()
    _, U = chart.real_frame(x0)
    h = 1e-6
    for k in range(len(x0)):
        e = np.zeros_like(x0)
        e[k] = h
        Bp, Ap = chart.point(x0 + e).B, chart.point(x0 + e).A
        Bm, Am = chart.point(x0 - e).B, chart.point(x0 - e).A
        assert np.max(np.abs((Bp - Bm) / (2 * h) - U[k, 0])) < 1e-6
        assert np.max(np.abs((Ap - Am) / (2 * h) - U[k, 1])) < 1e-6


def _three_points(rs, rng):
    """A random point, a unit and a fixed-locus point of rank rs.n."""
    n = rs.n
    return [
        random_point(rs, rng),
        unit(rs, build_M(rs, rand_s(rng, n))),
        random_slocal_point(rs, rng),
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_block_exponential_frame_matches_expm_frechet(roots, n):
    """complex_frame against one scipy expm_frechet call per chart direction."""
    rs = roots[n]
    N = n + 1
    I = np.eye(N)
    rng = np.random.default_rng(1900 + n)
    for p in _three_points(rs, rng):
        chart = SectionChart(rs, p)
        x = chart.x0() + 1e-2 * rng.standard_normal(4 * n)  # nonzero c as well
        _, U = chart.complex_frame(x)
        assert U.shape == (2 * n, 2, N, N)
        s, c = chart.unpack(x)
        A, powers, Nm = chart._nilpotent(s, c)
        dA = dM_ds(rs, s)
        dNs = []
        for d in range(n):
            dPow = [np.zeros((N, N), dtype=complex)]
            for j in range(1, N):
                dPow.append(dPow[-1] @ A + powers[j - 1] @ dA[d])
            dNs.append(sum((chart.beta[j] + c[j - 1]) * dPow[j] for j in range(1, N)))
        dNs += [powers[j] for j in range(1, N)]
        for k, dN in enumerate(dNs):
            _, dB = expm_frechet(Nm, dN - np.trace(dN) / N * I)
            assert np.max(np.abs(U[k, 0] - dB)) < 1e-12 * np.max(np.abs(dB))
            assert np.array_equal(U[k, 1], dA[k] if k < n else np.zeros((N, N)))
        _, R = chart.real_frame(x)
        assert np.array_equal(R, np.concatenate([U[:n], 1j * U[:n], U[n:], 1j * U[n:]]))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_poisson_gradients_match_chart_differences(roots, n):
    """Character gradients through chart points equal the character Jacobian."""
    rs = roots[n]
    N = n + 1
    rng = np.random.default_rng(2000 + n)
    for p in _three_points(rs, rng):
        chart = SectionChart(rs, p)
        x0 = chart.x0()

        def chi(x):
            c = char_poly(chart.point(x).A)
            return np.array([(-1.0) ** k * c[N - k] for k in range(1, N)])

        h = 1e-6
        ref = np.zeros((n, 2 * n), dtype=complex)
        for a, idx in enumerate(np.r_[:n, 2 * n : 3 * n]):  # Re s, Re c in the packing
            e = np.zeros_like(x0)
            e[idx] = h
            ref[:, a] = (chi(x0 + e) - chi(x0 - e)) / (2 * h)
        assert not np.any(ref[:, n:])
        assert np.max(np.abs(ref[:, :n] - _character_jacobian(rs, chart.s0))) <= 1e-8


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_real_form_checks(roots, n):
    rs = roots[n]
    rng = np.random.default_rng(1700 + n)
    rep = real_form_checks(rs, random_slocal_point(rs, rng))
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
    for _ in range(5):
        assert real_form_checks(rs, random_point(rs, rng))["fixed_gap"] > 1e-7
