import numpy as np
import pytest
from scipy.linalg import expm

from ucgl import involutions
from ucgl.core import char_poly, inverse, max_abs, structural_matrices
from ucgl.errors import PreconditionError
from ucgl.groupoid import (
    centralizer_basis,
    draw_seed,
    random_points,
    random_slocal_points,
    sample_slocal_fiber,
    tangent_space,
    unit,
)
from ucgl.involutions import (
    F_sigma,
    F_theta,
    _constant_twists,
    _moving_twist,
    apply_sigma,
    apply_theta,
    make_point,
    point_distance,
    sigma_by_polynomial,
    sigma_by_twist,
    sigma_differential,
    sigma_route_gap,
    slocal_membership,
    theta_differential,
    twists,
)
from ucgl.report import run_suite
from ucgl.stokes import build_M, build_S, dM_ds, derive_root_sets, rand_palindromic_s, rand_s

TOL = 1e-9


def test_F_sigma_values(roots):
    assert np.allclose(F_sigma(roots[1], np.zeros(1)), [[0, 1], [-1, 0]])
    assert np.allclose(F_sigma(roots[2], np.zeros(2)), np.eye(3))
    rng = np.random.default_rng(1)
    s = rand_s(rng, 2)
    assert np.allclose(F_sigma(roots[2], s), build_S(roots[2], 1, s).T)


def test_F_theta_values(roots):
    st2 = structural_matrices(2)
    assert np.allclose(F_theta(roots[2], np.zeros(2)), st2.C)
    # at even rank the twist is the shared, read-only structural C itself
    assert F_theta(roots[2], np.zeros(2)) is st2.C and not st2.C.flags.writeable
    assert np.array_equal(st2.C.real, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    sig = 0.4 + 0.9j
    Ft = F_theta(roots[1], np.array([sig]))
    assert np.allclose(Ft, [[1, np.conj(sig)], [0, -1]])
    assert np.allclose(Ft @ Ft, np.eye(2))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_twists_are_the_builders_and_their_inverses(roots, n):
    """Byte for byte, for one s and for a stack, on a first call and on a memo hit."""
    rs = roots[n] if n in roots else derive_root_sets(n)
    rng = np.random.default_rng(700 + n)
    for s in (rand_s(rng, n), np.array([rand_s(rng, n) for _ in range(3)])):
        F, G = F_sigma(rs, s), F_theta(rs, s)
        expected = (F, inverse(F), G, inverse(G))
        for _ in range(2):
            got = twists(rs, s)
            assert [(x.shape, x.tobytes()) for x in got] == [
                (x.shape, x.tobytes()) for x in expected]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_twists_are_read_only(roots, n):
    s = rand_s(np.random.default_rng(n), n)
    for x in twists(roots[n], s):
        with pytest.raises(ValueError):
            x[0, 0] = 2.0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_each_twist_is_built_once_per_fixed_locus_point(roots, monkeypatch, n):
    """Sampling k unstacked fixed-locus points and testing each builds the
    twist that moves with s k times and the constant twist once; a stack of
    k points, sampled and tested as ucgl sample-slocal does, builds the
    moving twist once."""
    rs, k = roots[n], 5
    calls = {"F_sigma": 0, "F_theta": 0}

    def counted(name, builder):
        def build(*args):
            calls[name] += 1
            return builder(*args)
        return build

    for name, builder in (("F_sigma", F_sigma), ("F_theta", F_theta)):
        monkeypatch.setattr(involutions, name, counted(name, builder))
    rng = np.random.default_rng(800 + n)
    for _ in range(k):
        # one unstacked point, drawn and tested as the benchmark's sample-slocal workload does
        p = sample_slocal_fiber(rs, build_M(rs, rand_palindromic_s(rng, n)), draw_seed(rng))
        assert slocal_membership(rs, p)["fixed_route"]
    moving, constant = ("F_sigma", "F_theta") if n % 2 == 0 else ("F_theta", "F_sigma")
    assert (calls[moving], calls[constant]) == (k, 1)
    assert slocal_membership(rs, random_slocal_points(rs, rng, k))["fixed_route"].all()
    assert (calls[moving], calls[constant]) == (k + 1, 1)


def test_only_a_stack_is_indexed(roots):
    stack = random_slocal_points(roots[2], np.random.default_rng(3), 2)
    assert [q.B.shape for q in stack] == [(3, 3), (3, 3)]
    with pytest.raises(TypeError):
        stack[0][0]
    with pytest.raises(TypeError):
        list(stack[1])


def test_apply_sigma_examples(roots):
    rs = roots[1]
    rng = np.random.default_rng(2)
    s = rand_s(rng, 1)
    A = build_M(rs, s)
    p = make_point(rs, np.eye(2), A)
    sp = apply_sigma(rs, p)
    # identity arrows stay identity arrows; at rank 1 reversal is trivial
    assert np.max(np.abs(sp.B - np.eye(2))) < TOL
    assert np.max(np.abs(sp.A - A)) < TOL
    q = make_point(rs, A, A)
    assert point_distance(apply_sigma(rs, q), q) < TOL


def test_apply_theta_examples(roots):
    rs = roots[1]
    A = build_M(rs, np.array([0.8 + 0j]))
    p = make_point(rs, np.eye(2), A)
    assert point_distance(apply_theta(rs, p), p) < TOL
    Ai = build_M(rs, np.array([1j]))
    pi = make_point(rs, np.eye(2), Ai)
    ti = apply_theta(rs, pi)
    assert np.max(np.abs(ti.A - build_M(rs, np.array([-1j])))) < TOL


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_involutions_square_to_identity_and_commute(roots, n):
    rs = roots[n]
    rng = np.random.default_rng(200 + n)
    for p in random_points(rs, rng, 20):
        assert point_distance(apply_sigma(rs, apply_sigma(rs, p)), p) < TOL
        assert point_distance(apply_theta(rs, apply_theta(rs, p)), p) < TOL
        st = apply_sigma(rs, apply_theta(rs, p))
        ts = apply_theta(rs, apply_sigma(rs, p))
        assert point_distance(st, ts) < TOL


@pytest.mark.parametrize("seed", [3, 18, 22, 25])
def test_sigma_twice_at_even_rank(roots, seed):
    """At these seeds sigma by conjugation with F_sigma = S_1(s)^T gave sigma(sigma(p))
    commutators of 1.1e-9 to 5.5e-9, and the involutions suite raised at
    n = 4; through B's polynomial in A they are round-off."""
    rep = run_suite({"n": 4, "suite": "involutions", "seed": seed, "samples": 100})
    assert rep.all_passed, [(c.name, c.max_residual, c.details) for c in rep.checks
                            if not c.passed]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_sigma_routes_agree(roots, n):
    """apply_sigma takes sigma_by_twist at odd rank and sigma_by_polynomial at
    even rank; both give the same point to round-off at every rank."""
    rs = roots[n] if n in roots else derive_root_sets(n)
    p = random_points(rs, np.random.default_rng(700 + n), 50)
    assert (sigma_route_gap(rs, p) < 1e-9).all()
    Bt, At = sigma_by_twist(rs, p)
    Bq, Aq = sigma_by_polynomial(rs, p)
    assert (max_abs(At - Aq) / max_abs(Aq) < 1e-9).all()
    sp = apply_sigma(rs, p)
    assert np.array_equal(sp.B, Bt if n % 2 else Bq)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_base_parameter_actions(roots, n):
    rs = roots[n]
    rng = np.random.default_rng(300 + n)
    for p in random_points(rs, rng, 20):
        assert np.max(np.abs(apply_sigma(rs, p).s - p.s[::-1])) < 1e-10
        assert np.max(np.abs(apply_theta(rs, p).s - np.conj(p.s[::-1]))) < 1e-10


def test_slocal_membership_examples(roots):
    rs = roots[1]
    A = build_M(rs, np.array([1.0 + 0j]))
    p = make_point(rs, np.eye(2), A)
    mem = slocal_membership(rs, p)
    assert mem == {"fixed_route": True, "direct_route": True}
    pi = make_point(rs, np.eye(2), build_M(rs, np.array([1j])))
    mem = slocal_membership(rs, pi)
    assert not mem["fixed_route"] and not mem["direct_route"]
    q = sample_slocal_fiber(rs, A, seed=7)
    mem = slocal_membership(rs, q, tol=1e-8)
    assert mem["fixed_route"] and mem["direct_route"]


def direct_route_reference(rs, p, tol):
    """slocal_membership's flags as computed before it went inverse-free.

    fixed_route from the applied involutions, direct_route from the four
    matrix residuals of sigma(p) and theta(p) evaluated again with freshly
    built twists and inverses; both are absolute.
    """
    fixed = (point_distance(apply_sigma(rs, p, tol=np.inf), p) < tol
             and point_distance(apply_theta(rs, p, tol=np.inf), p) < tol)
    F, G = F_sigma(rs, p.s), F_theta(rs, p.s)
    Fi, Gi = inverse(F), inverse(G)
    res = max(
        np.max(np.abs(F @ inverse(p.B).T @ Fi - p.B)),
        np.max(np.abs(F @ inverse(p.A).T @ Fi - p.A)),
        np.max(np.abs(G @ np.conj(p.B) @ Gi - p.B)),
        np.max(np.abs(G @ inverse(np.conj(p.A)) @ Gi - p.A)),
    )
    return {"fixed_route": bool(fixed), "direct_route": bool(res < tol)}


@pytest.mark.parametrize("n", [1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow),
                               pytest.param(6, marks=pytest.mark.slow)])
def test_route_equivalence_on_mixed_probes(n):
    """slocal_membership on 200 fixed-locus and 200 generic points per rank:
    every member is accepted at 1e-9, every generic point is rejected at
    1e-8, and at 1e-8 the verdicts equal direct_route_reference's, except
    where the reference loses digits.

    The reference conjugates by F_sigma, so it loses digits on members where
    F is ill-conditioned.  So each disagreement must be a member that
    slocal_membership accepts at 1e-9 and the reference rejects; its cond
    F_sigma is printed.  At n = 6 these are members 30 and 163, at cond
    F_sigma 1.09e4 and 1.10e4, the two largest of the 200.
    """
    rs = derive_root_sets(n)
    rng = np.random.default_rng(400 + n)
    probes = [(p, True) for p in random_slocal_points(rs, rng, 200)]
    probes += [(p, False) for p in random_points(rs, rng, 200)]
    for i, (p, member) in enumerate(probes):
        mem = slocal_membership(rs, p, tol=1e-9 if member else 1e-8)
        assert mem["fixed_route"] == mem["direct_route"] == member
        reference = direct_route_reference(rs, p, 1e-8)
        if slocal_membership(rs, p, tol=1e-8) != reference:
            cond = np.linalg.cond(F_sigma(rs, p.s))
            print(f"n = {n}: the reference rejects member {i}, cond F_sigma {cond:.3g}")
            assert member and not all(reference.values()), (i, cond)


def test_membership_regression_point(roots):
    """A member by construction that the inverse-free identities accept at 1e-9.

    Rank 4, half of s = [4.602116522920848, 1.3342335350191823], sampler
    seed 960089262 (draw 37 of the benchmark's sample-slocal inputs at seed
    3): cond F_sigma(s) is 2.1e3 and cond B was 8.9, and max|sigma(p) - p|
    was 1.45e-9, so the route through sigma(p) and theta(p) rejected it at
    1e-9.  The identities read 8.8e-13.  The counter-based draws give this
    seed another B, with cond B 2.6, over the same ill-conditioned s.
    """
    rs = roots[4]
    half = [4.602116522920848, 1.3342335350191823]
    p = sample_slocal_fiber(rs, build_M(rs, np.array(half + half[::-1], dtype=complex)),
                            seed=960089262)
    mem = slocal_membership(rs, p, tol=1e-9)
    assert mem["fixed_route"] and mem["direct_route"]


@pytest.mark.parametrize("n", [2, 3])
def test_membership_inverts_neither_B_nor_A(roots, monkeypatch, n):
    """slocal_membership builds neither sigma(p) nor theta(p), validates no
    point and inverts neither B nor A.  The twist memos are emptied after
    sampling, so the twists are built, and inverted, by the call itself."""
    rs = roots[n]
    p = random_slocal_points(rs, np.random.default_rng(n), 1)[0]
    _moving_twist.cache_clear()
    _constant_twists.clear()

    def forbidden(*args, **kwargs):
        raise AssertionError("slocal_membership must not call this")

    def inverse_of_neither(M):
        if any(np.shape(M) == X.shape and np.array_equal(M, X) for X in (p.B, p.A)):
            raise AssertionError("slocal_membership must not invert B or A")
        return inverse(M)

    for name in ("apply_sigma", "apply_theta", "make_point"):
        monkeypatch.setattr(involutions, name, forbidden)
    monkeypatch.setattr(involutions, "inverse", inverse_of_neither)
    assert slocal_membership(rs, p)["fixed_route"]
    assert _moving_twist.cache_info().misses == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_theta_fixed_points_have_real_char_poly(roots, n):
    rs = roots[n]
    rng = np.random.default_rng(500 + n)
    for B in random_slocal_points(rs, rng, 10).B:
        c = char_poly(B)
        # relative: the coefficients themselves grow like 1e3 at n = 4
        assert np.max(np.abs(c.imag)) / np.max(np.abs(c)) < 1e-10


def test_make_point_validates(roots):
    rs = roots[1]
    A = build_M(rs, np.array([0.5 + 0j]))
    with pytest.raises(PreconditionError):
        make_point(rs, np.array([[1.0, 1.0], [0.0, 1.0]]), A)  # does not commute
    with pytest.raises(PreconditionError):
        make_point(rs, 2 * np.eye(2), A)  # det != 1
    with pytest.raises(PreconditionError):
        make_point(rs, np.eye(2), np.diag([2.0, 0.5]))  # off the section


def richardson(f, h=1e-3):
    """f'(0) by central differences with two Richardson levels (truncation error O(h^6))."""

    def central(hh):
        return (f(hh) - f(-hh)) / (2 * hh)

    d1, d2, d4 = central(h), central(h / 2), central(h / 4)
    r1, r2 = (4 * d2 - d1) / 3, (4 * d4 - d2) / 3
    return (16 * r2 - r1) / 15


def curves_through(rs, p):
    """Curves t -> point through p, one per real direction, with their base velocities.

    Along s + t e_d and s + i t e_d the B-slot stays the polynomial in A that
    p.B is (the commutant of a regular A is its polynomials), rescaled to
    det 1; the fiber curves are B expm(t E_k) and B expm(i t E_k) over
    centralizer_basis(A).
    """
    n, N = rs.n, rs.n + 1

    def powers(A):
        return np.array([np.linalg.matrix_power(A, j) for j in range(N)])

    beta = np.linalg.lstsq(powers(p.A).reshape(N, -1).T, p.B.ravel(), rcond=None)[0]

    def base(ds):
        def curve(t):
            A = build_M(rs, p.s + t * ds)
            B = np.tensordot(beta, powers(A), axes=1)
            return make_point(rs, B / np.linalg.det(B) ** (1 / N), A, tol=1e-6)
        return curve

    def fiber(xi):
        return lambda t: make_point(rs, p.B @ expm(t * xi), p.A)

    out = []
    for z in (1, 1j):
        out += [(base(z * e), z * e) for e in np.eye(n)]
        out += [(fiber(z * xi), np.zeros(n)) for xi in centralizer_basis(p.A)]
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_involution_differentials_exact(roots, n):
    """Exact differentials against finite differences along curves through p,
    and against dM_ds on tangent_space's basis.

    n = 1..4 covers both moving twists: F_sigma at even rank, F_theta at odd.
    """
    rs = roots[n]
    rng = np.random.default_rng(600 + n)
    points = [
        random_points(rs, rng, 1)[0],
        unit(rs, build_M(rs, rand_s(rng, n))),
        random_slocal_points(rs, rng, 1)[0],
    ]
    maps = (
        (apply_sigma, sigma_differential, lambda s: s[..., ::-1]),
        (apply_theta, theta_differential, lambda s: np.conj(s[..., ::-1])),
    )

    def pair(q):
        return np.array([q.B, q.A])

    for p in points:
        curves = curves_through(rs, p)
        U = np.array([richardson(lambda t: pair(c(t))) for c, _ in curves])
        sdot = np.array([v for _, v in curves])
        T, Tdot = tangent_space(rs, p)
        for apply, differential, image_s in maps:
            dU = differential(rs, p, U, sdot)
            ref = np.array([richardson(lambda t: pair(apply(rs, c(t), tol=np.inf)))
                            for c, _ in curves])
            assert np.max(np.abs(dU - ref)) < 1e-8 * np.max(np.abs(ref))
            # the image A-slot moves along the section at the image parameters
            dT = differential(rs, p, T, Tdot)
            dA = np.tensordot(image_s(Tdot), dM_ds(rs, image_s(p.s)), axes=1)
            assert np.max(np.abs(dT[:, 1] - dA)) < 1e-12 * np.max(np.abs(dA))
