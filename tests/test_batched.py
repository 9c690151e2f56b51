"""Batched trials and stacked primitives give the bytes of their one-sample forms.

The unit oracle, the involution laws and the groupoid axioms of ucgl.report
evaluate all their samples at once, on stacks of points.  The one-sample
trial bodies they replaced are kept here as references and run through
report._draw: each batched trial must return byte-equal residual arrays and
leave its generator in the same state, so it drew the same numbers in the
same order.  The primitives they call broadcast over leading axes, and each
is checked against single calls on every matrix of a stack of 20, errors
included.
"""

import numpy as np
import pytest

from ucgl import report
from ucgl.core import char_poly, determinant, inverse
from ucgl.errors import NotRegularError, SingularMatrixError
from ucgl.groupoid import (
    centralizer_basis,
    combine,
    commuting_point,
    fiber_vector,
    groupoid_compose,
    groupoid_inverse,
    horizontal_vector_at_unit,
    make_pair,
    random_point,
    sample_commuting,
    unit,
)
from ucgl.involutions import (
    F_sigma,
    F_theta,
    GroupoidPoint,
    apply_sigma,
    apply_theta,
    make_point,
    point_distance,
)
from ucgl.stokes import (
    build_M,
    build_Q,
    build_S,
    dM_ds,
    factor_product_derivative,
    rand_s,
    section_membership,
    stokes_params_of,
)
from ucgl.symplectic import omega, omega_gram, unit_block_values

STACK = 20


# ---------------------------------------------------------------------------
# the one-sample trial bodies the batched trials replaced


def _sup(X):
    return float(np.max(np.abs(X)))


def _fiber_vector(p, E, rng):
    return fiber_vector(p, np.tensordot(rand_s(rng, len(E)), E, axes=1))


def reference_laws(rs, rng):
    p = random_point(rs, rng)
    sp, tp = apply_sigma(rs, p), apply_theta(rs, p)
    q = random_point(rs, rng, p.A)
    pq = groupoid_compose(rs, make_pair(p, q))
    return {
        "involutions.involutivity": (point_distance(apply_sigma(rs, sp), p),
                                     point_distance(apply_theta(rs, tp), p)),
        "involutions.commutation": point_distance(apply_sigma(rs, tp), apply_theta(rs, sp)),
        "involutions.base_parameter_action": (_sup(sp.s - p.s[::-1]),
                                              _sup(tp.s - np.conj(p.s[::-1]))),
        "involutions.groupoid_morphism": [
            point_distance(f(rs, pq), groupoid_compose(rs, make_pair(fp, f(rs, q))))
            for f, fp in ((apply_sigma, sp), (apply_theta, tp))
        ],
    }


def reference_axioms(rs, rng):
    def compose(p, q):
        return groupoid_compose(rs, make_pair(p, q))

    A = build_M(rs, rand_s(rng, rs.n))
    p1, p2, p3 = (random_point(rs, rng, A) for _ in range(3))
    u = unit(rs, A)
    return {
        "groupoid.axioms": (
            point_distance(compose(compose(p1, p2), p3), compose(p1, compose(p2, p3))),
            point_distance(compose(p1, u), p1),
            point_distance(compose(p1, groupoid_inverse(rs, p1)), u),
        ),
        "groupoid.sampler_membership": (_sup(p1.B @ A - A @ p1.B),
                                        abs(determinant(p1.B) - 1.0)),
    }


def reference_unit_blocks(rs, rng):
    n = rs.n
    A = build_M(rs, rand_s(rng, n))
    u0 = unit(rs, A)
    E = centralizer_basis(A)
    uF, vF = _fiber_vector(u0, E, rng), _fiber_vector(u0, E, rng)
    uH = horizontal_vector_at_unit(rs, u0, rand_s(rng, n))
    vH = horizontal_vector_at_unit(rs, u0, rand_s(rng, n))
    return {
        "symplectic.unit_block_oracle": [abs(omega(u0, a, b) - unit_block_values(A, a, b))
                                         for a, b in ((uF, vF), (uH, vH), (uF, vH), (uH, vF))],
        "symplectic.unit_pullback_zero": abs(omega(u0, uH, vH)),
    }


TRIALS = {
    "laws": ("involutions", report.involution_laws, reference_laws),
    "axioms": ("groupoid", report.groupoid_axioms, reference_axioms),
    "unit_blocks": ("symplectic", report.unit_blocks, reference_unit_blocks),
}


def _stream(seed, suite):
    """The generator run_suite gives the suite at this seed."""
    seeds = np.random.SeedSequence(seed).spawn(len(report.SUITES))
    return np.random.default_rng(seeds[report.SUITES.index(suite)])


def _assert_trial_matches(rs, trial, seed, samples):
    suite, batched, reference = TRIALS[trial]
    rng, ref_rng = _stream(seed, suite), _stream(seed, suite)
    got = batched(rs, rng, samples)
    want = report._draw(samples, lambda _: reference(rs, ref_rng))
    assert sorted(got) == sorted(want)
    for name, runs in want.items():
        expected = np.array(runs, dtype=float)
        assert got[name].shape == expected.shape, name
        assert got[name].dtype == expected.dtype, name
        assert got[name].tobytes() == expected.tobytes(), name
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("trial", TRIALS)
def test_batched_trial_equals_per_sample(roots, trial, n):
    _assert_trial_matches(roots[n], trial, 42, 10)


@pytest.mark.parametrize("seed", [7, 35, 37])
def test_batched_laws_at_the_marginal_seeds(roots, seed):
    """At these verify seeds the largest make_point commutator of the laws trial
    sits just under its absolute bound of 1e-9 at n = 4, so any round-off
    change could raise there."""
    _assert_trial_matches(roots[4], "laws", seed, 100)


# ---------------------------------------------------------------------------
# stacked primitives


def _same(stacked, singles):
    singles = np.array(singles)
    stacked = np.asarray(stacked)
    assert stacked.shape == singles.shape and stacked.dtype == singles.dtype
    assert stacked.tobytes() == singles.tobytes()


def _same_points(stacked, singles):
    for field in ("B", "A", "s"):
        _same(getattr(stacked, field), [getattr(p, field) for p in singles])


def _stacks(rs, rng):
    """s, A = build_M(s), and points p, q over A, each a stack of STACK."""
    s = np.array([rand_s(rng, rs.n) for _ in range(STACK)])
    A = build_M(rs, s)
    seeds_p = [int(x) for x in rng.integers(0, 2 ** 31, STACK)]
    seeds_q = [int(x) for x in rng.integers(0, 2 ** 31, STACK)]
    return s, A, commuting_point(rs, A, seeds_p), commuting_point(rs, A, seeds_q)


def _points(p):
    """The points of a stack, one GroupoidPoint each."""
    return [GroupoidPoint(B=b, A=a, s=x) for b, a, x in zip(p.B, p.A, p.s)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stokes_and_core_primitives_broadcast(roots, n):
    rs = roots[n]
    N = n + 1
    rng = np.random.default_rng(100 + n)
    s, A, _, _ = _stacks(rs, rng)
    for k in range(N, 3 * N):
        _same(build_Q(rs, k, s), [build_Q(rs, k, x) for x in s])
    _same(A, [build_M(rs, x) for x in s])
    for m in (1, 2):
        _same(build_S(rs, m, s), [build_S(rs, m, x) for x in s])
    _same(inverse(A), [inverse(a) for a in A])
    _same(char_poly(A), [char_poly(a) for a in A])
    _same(stokes_params_of(A), [stokes_params_of(a) for a in A])
    _same(dM_ds(rs, s), [dM_ds(rs, x) for x in s])
    sdots = rng.standard_normal((3, n)) + 0j
    _same(factor_product_derivative(rs, range(N, 2 * N), s, sdots),
          [factor_product_derivative(rs, range(N, 2 * N), x, sdots) for x in s])
    mem = section_membership(rs, A)
    singles = [section_membership(rs, a) for a in A]
    for key in ("in_section", "in_local", "s"):
        _same(mem[key], [m[key] for m in singles])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_point_primitives_broadcast(roots, n):
    rs = roots[n]
    rng = np.random.default_rng(200 + n)
    s, A, p, q = _stacks(rs, rng)
    ps, qs = _points(p), _points(q)
    seeds = [int(x) for x in rng.integers(0, 2 ** 31, STACK)]
    _same(centralizer_basis(A), [centralizer_basis(a) for a in A])
    _same(sample_commuting(A, seeds), [sample_commuting(a, t) for a, t in zip(A, seeds)])
    _same_points(make_point(rs, p.B, p.A), [make_point(rs, x.B, x.A) for x in ps])
    _same_points(unit(rs, A), [unit(rs, a) for a in A])
    # constant twists come back unstacked
    _same(np.broadcast_to(F_sigma(rs, s), A.shape), [F_sigma(rs, x) for x in s])
    _same(np.broadcast_to(F_theta(rs, s), A.shape), [F_theta(rs, x) for x in s])
    pair = make_pair(p, q)
    _same_points(groupoid_compose(rs, pair),
                 [groupoid_compose(rs, make_pair(x, y)) for x, y in zip(ps, qs)])
    _same_points(groupoid_inverse(rs, p), [groupoid_inverse(rs, x) for x in ps])
    _same_points(apply_sigma(rs, p), [apply_sigma(rs, x) for x in ps])
    _same_points(apply_theta(rs, p), [apply_theta(rs, x) for x in ps])
    _same(point_distance(p, q), [point_distance(x, y) for x, y in zip(ps, qs)])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_tangent_primitives_broadcast(roots, n):
    rs = roots[n]
    rng = np.random.default_rng(300 + n)
    _, A, p, _ = _stacks(rs, rng)
    u0 = unit(rs, A)
    units, ps = _points(u0), _points(p)
    E = centralizer_basis(A)
    c = rng.standard_normal((STACK, n)) + 1j * rng.standard_normal((STACK, n))
    xi = combine(c, E)
    _same(xi, [np.tensordot(ci, Ei, axes=1) for ci, Ei in zip(c, E)])
    uF = fiber_vector(p, xi)
    _same(uF, [fiber_vector(x, y) for x, y in zip(ps, xi)])
    uH = horizontal_vector_at_unit(rs, u0, c)
    _same(uH, [horizontal_vector_at_unit(rs, x, y) for x, y in zip(units, c)])
    U = np.stack([uF, uH], axis=1)
    _same(omega_gram(p.B, p.A, U), [omega_gram(x.B, x.A, V) for x, V in zip(ps, U)])
    _same(omega_gram(p.B, p.A, U, U[:, ::-1]),
          [omega_gram(x.B, x.A, V, V[::-1]) for x, V in zip(ps, U)])
    _same(omega(p, uF, uH), [omega(x, a, b) for x, a, b in zip(ps, uF, uH)])
    _same(unit_block_values(A, uF, uH), [unit_block_values(a, x, y) for a, x, y in zip(A, uF, uH)])


def _raises_like_single(call, i, *stacks):
    """call(*stacks) raises as call on the i-th matrix of each does: same type and message."""
    with pytest.raises(Exception) as single:
        call(*(x[i] for x in stacks))
    with pytest.raises(type(single.value)) as stacked:
        call(*stacks)
    assert str(stacked.value) == str(single.value)
    return single.value


def test_one_bad_point_raises_as_a_single_call(roots):
    rs = roots[3]
    rng = np.random.default_rng(400)
    _, A, p, _ = _stacks(rs, rng)

    def point(B, A):
        return make_point(rs, B, A)

    B = p.B.copy()
    B[7] = rng.standard_normal((4, 4))
    assert "commute" in str(_raises_like_single(point, 7, B, A))
    B = p.B.copy()
    B[7] *= 2.0
    assert "det B" in str(_raises_like_single(point, 7, B, A))
    B, off = p.B.copy(), A.copy()
    B[7] = np.eye(4)
    off[7] = rng.standard_normal((4, 4))
    assert "section" in str(_raises_like_single(point, 7, B, off))
    flat = A.copy()
    flat[7] = np.eye(4)
    assert isinstance(_raises_like_single(centralizer_basis, 7, flat), NotRegularError)
    singular = A.copy()
    singular[7] = 0.0
    assert isinstance(_raises_like_single(inverse, 7, singular), SingularMatrixError)


def test_a_nan_matrix_does_not_make_inverse_raise():
    M = np.random.default_rng(500).standard_normal((STACK, 4, 4)) + 0j
    M[7] = np.nan
    with np.errstate(invalid="ignore"):
        inv = inverse(M)
        np.testing.assert_array_equal(inv[7], inverse(M[7]))
    assert np.isnan(inv[7]).all()
    _same(np.delete(inv, 7, axis=0), [inverse(m) for m in np.delete(M, 7, axis=0)])
