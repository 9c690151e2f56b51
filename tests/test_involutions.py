import numpy as np
import pytest
from scipy.linalg import expm

from ucgl import involutions
from ucgl.core import char_poly, inverse, structural_matrices
from ucgl.errors import PreconditionError
from ucgl.groupoid import (
    centralizer_basis,
    random_point,
    random_slocal_point,
    sample_slocal_fiber,
    tangent_space,
    unit,
)
from ucgl.involutions import (
    F_sigma,
    F_theta,
    apply_sigma,
    apply_theta,
    make_point,
    point_distance,
    sigma_differential,
    slocal_membership,
    theta_differential,
)
from ucgl.stokes import build_M, build_S, dM_ds, derive_root_sets, rand_s

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
    for _ in range(20):
        p = random_point(rs, rng)
        assert point_distance(apply_sigma(rs, apply_sigma(rs, p)), p) < TOL
        assert point_distance(apply_theta(rs, apply_theta(rs, p)), p) < TOL
        st = apply_sigma(rs, apply_theta(rs, p))
        ts = apply_theta(rs, apply_sigma(rs, p))
        assert point_distance(st, ts) < TOL


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_base_parameter_actions(roots, n):
    rs = roots[n]
    rng = np.random.default_rng(300 + n)
    for _ in range(20):
        p = random_point(rs, rng)
        assert np.max(np.abs(apply_sigma(rs, p).s - p.s[::-1])) < 1e-10
        assert np.max(np.abs(apply_theta(rs, p).s - np.conj(p.s[::-1]))) < 1e-10


def test_slocal_membership_examples(roots):
    rs = roots[1]
    A = build_M(rs, np.array([1.0 + 0j]))
    p = make_point(rs, np.eye(2), A)
    mem = slocal_membership(rs, p)
    assert mem == {"fixed_route": True, "direct_route": True, "c_reality": True}
    pi = make_point(rs, np.eye(2), build_M(rs, np.array([1j])))
    mem = slocal_membership(rs, pi)
    assert not mem["fixed_route"] and not mem["direct_route"] and mem["c_reality"]
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
    c_reality = np.max(np.abs(p.B @ np.conj(p.B) - np.eye(p.B.shape[0]))) < tol
    return {"fixed_route": bool(fixed), "direct_route": bool(res < tol),
            "c_reality": bool(c_reality)}


@pytest.mark.parametrize("n", [1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow),
                               pytest.param(6, marks=pytest.mark.slow)])
def test_route_equivalence_on_mixed_probes(n):
    """slocal_membership on 200 fixed-locus and 200 generic points per rank:
    every member is accepted at 1e-9, every generic point is rejected at
    1e-8, and at 1e-8 the verdicts equal direct_route_reference's.

    The reference conjugates by F_sigma and loses digits on members where F
    is ill-conditioned.  At n = 6 it rejects member 163 (residual 2.2e-7,
    cond F_sigma 1.1e4), which the identities put at 2.3e-11; that is the
    one disagreement allowed.
    """
    rs = derive_root_sets(n)
    rng = np.random.default_rng(400 + n)
    probes = [(random_slocal_point, True)] * 200 + [(random_point, False)] * 200
    disagree = []
    for i, (sampler, member) in enumerate(probes):
        p = sampler(rs, rng)
        mem = slocal_membership(rs, p, tol=1e-9 if member else 1e-8)
        assert mem["fixed_route"] == mem["direct_route"] == member
        if slocal_membership(rs, p, tol=1e-8) != direct_route_reference(rs, p, 1e-8):
            disagree.append(i)
    assert disagree == ([163] if n == 6 else [])


def test_membership_regression_point(roots):
    """A member by construction that the inverse-free identities accept at 1e-9.

    Rank 4, half of s = [4.602116522920848, 1.3342335350191823], sampler
    seed 960089262 (draw 37 of the benchmark's sample-slocal inputs at seed
    3): cond F_sigma(s) is 2.1e3 and cond B 8.9, and max|sigma(p) - p| was
    1.45e-9, so the route through sigma(p) and theta(p) rejected it at 1e-9.
    The identities read 8.8e-13.
    """
    rs = roots[4]
    half = [4.602116522920848, 1.3342335350191823]
    p = sample_slocal_fiber(rs, build_M(rs, np.array(half + half[::-1], dtype=complex)),
                            seed=960089262)
    mem = slocal_membership(rs, p, tol=1e-9)
    assert mem["fixed_route"] and mem["direct_route"]


@pytest.mark.parametrize("n", [2, 3])
def test_membership_inverts_nothing(roots, monkeypatch, n):
    """slocal_membership reads the twists only: it builds neither sigma(p) nor
    theta(p), validates no point and inverts nothing."""
    rs = roots[n]
    p = random_slocal_point(rs, np.random.default_rng(n))

    def forbidden(*args, **kwargs):
        raise AssertionError("slocal_membership must not call this")

    for name in ("inverse", "apply_sigma", "apply_theta", "make_point"):
        monkeypatch.setattr(involutions, name, forbidden)
    assert slocal_membership(rs, p)["fixed_route"]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_theta_fixed_points_have_real_char_poly(roots, n):
    rs = roots[n]
    rng = np.random.default_rng(500 + n)
    for _ in range(10):
        c = char_poly(random_slocal_point(rs, rng).B)
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
        random_point(rs, rng),
        unit(rs, build_M(rs, rand_s(rng, n))),
        random_slocal_point(rs, rng),
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
