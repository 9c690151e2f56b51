"""Batched trials and stacked primitives give the bytes of their one-sample
forms, and the report's trials give every check.

Every trial of ucgl.report draws its inputs with one array call per kind and
evaluates all its samples at once, on stacks of points or of connection
inputs.  Each trial has a one-sample form here, which draws the same inputs
in the same calls and then evaluates them one sample at a time, through
_draw: the batched trial must return byte-equal residual arrays and leave
its generator in the same state.  The primitives they call broadcast over
leading axes, and each is checked against single calls on every matrix of a
stack of 20, errors included.  The trials' residuals are pinned bit for bit
by the report digest (report_digest.py); the completeness test checks that
the trials give every reported check and that the digest holds each.
"""

import functools

import numpy as np
import pytest

import report_digest
from ucgl import bondal as bd
from ucgl import report
from ucgl.connection import (
    SYMMETRY_KINDS,
    TodaInput,
    alpha_coeff,
    alpha_symmetry_residual,
    build_W,
    random_antisymmetric_input,
)
from ucgl.core import char_poly, determinant, expm, inverse, is_regular, structural_matrices
from ucgl.errors import (
    DegenerateFormError,
    NotComposableError,
    NotRegularError,
    PreconditionError,
    SingularMatrixError,
)
from ucgl.groupoid import (
    centralizer_basis,
    combine,
    commuting_point,
    draw_seed,
    fiber_vector,
    groupoid_compose,
    groupoid_inverse,
    horizontal_vector_at_unit,
    make_pair,
    sample_commuting,
    sample_slocal_fiber,
    tangent_residual,
    tangent_space,
    unit,
)
from ucgl.involutions import (
    F_sigma,
    F_theta,
    Base,
    GroupoidPoint,
    apply_sigma,
    apply_theta,
    make_point,
    point_distance,
    sigma_differential,
    sigma_route_gap,
    slocal_membership,
    theta_differential,
)
from ucgl.report import run_suite
from ucgl.stokes import (
    build_M,
    build_Q,
    build_S,
    dM_ds,
    factor_product_derivative,
    rand_palindromic_s,
    rand_s,
    section_membership,
    semisimple_s,
    stokes_params_of,
)
from ucgl.symplectic import (
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

STACK = 20


# ---------------------------------------------------------------------------
# report trials


#: (suite, trial): every trial function of ucgl.report, with the suite that runs it
TRIALS = [
    ("connection", report.connection_symmetries),
    ("connection", report.connection_control),
    ("stokes", report.stokes_section),
    ("stokes", report.stokes_chains),
    ("involutions", report.involution_laws),
    ("involutions", report.real_char_poly),
    ("groupoid", report.groupoid_axioms),
    ("groupoid", report.slocal_fiber),
    ("groupoid", report.tangent_constraints),
    ("symplectic", report.unit_blocks),
    ("symplectic", report.multiplicative),
    ("symplectic", report.closedness),
    ("symplectic", report.nondegeneracy),
    ("symplectic", report.pullbacks),
    ("symplectic", report.integrable),
    ("symplectic", report.real_form),
    ("bondal", report.bondal_axioms),
    ("bondal", report.bondal_embedding),
]

#: residuals that trials return at rank 1 and no check reads there: the
#: palindromic condition and the Poisson brackets are vacuous at rank 1
UNREAD_AT_RANK_ONE = {"stokes.antisymmetry_negative_control", "symplectic.poisson_brackets"}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_trials_give_every_check(roots, monkeypatch, n):
    """The names that TRIALS return inside run_suite, each inside its own
    suite, are the check names it reports: each suite is these trials plus a
    tolerance table.  The digest pins each of these checks at this rank, so
    every residual of every trial is compared bit for bit, and REFERENCES
    holds a one-sample form of every trial."""
    returned = set()
    for suite, trial in TRIALS:
        def recording(rs, rng, count, suite=suite, trial=trial):
            runs = trial(rs, rng, count)
            assert all(name.startswith(f"{suite}.") for name in runs)
            returned.update(runs)
            return runs

        monkeypatch.setattr(report, trial.__name__, recording)
    reported = {c.name for c in run_suite({"n": n, "suite": "all", "seed": 42,
                                           "samples": 10}).checks}
    assert reported == returned - (UNREAD_AT_RANK_ONE if n == 1 else set())
    assert reported == set(report_digest.load()["reports"][report_digest.key(n, 42)])
    # and each trial has a one-sample form below
    assert {getattr(b, "__wrapped__", b) for _, b, _ in REFERENCES.values()} == {
        trial for _, trial in TRIALS}


# ---------------------------------------------------------------------------
# the trials against their one-sample forms


def _sup(X):
    return float(np.max(np.abs(X)))


def _draw(count, one):
    """Call the one-sample trial one(i) for i < count; list each returned
    residual by name, in sample order."""
    runs = {}
    for i in range(count):
        for name, residual in one(i).items():
            runs.setdefault(name, []).append(residual)
    return runs


def _points(rs, rng, count, slocal=False):
    """count points built one at a time from the inputs that random_points
    (slocal: random_slocal_points) draws: all the s, then all the seeds."""
    if slocal:
        s, seeds = rand_palindromic_s(rng, (count, rs.n)), draw_seed(rng, count)
        return [sample_slocal_fiber(rs, build_M(rs, s[i]), seeds[i]) for i in range(count)]
    s, seeds = rand_s(rng, (count, rs.n)), draw_seed(rng, count)
    return [commuting_point(rs, build_M(rs, s[i]), seeds[i]) for i in range(count)]


def _fiber_vector(p, E, rng):
    return fiber_vector(p, combine(rand_s(rng, len(E)), E))


def reference_laws(rs, rng, count):
    ps, seeds = _points(rs, rng, count), draw_seed(rng, count)

    def one(i):
        p = ps[i]
        sp, tp = apply_sigma(rs, p), apply_theta(rs, p)
        q = commuting_point(rs, p.A, seeds[i])
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
            "involutions.sigma_route_agreement": sigma_route_gap(rs, p, sp),
        }
    return one


def reference_axioms(rs, rng, count):
    ps, seeds = _points(rs, rng, count), draw_seed(rng, (2, count))

    def compose(p, q):
        return groupoid_compose(rs, make_pair(p, q))

    def one(i):
        p1 = ps[i]
        A = p1.A
        p2, p3 = (commuting_point(rs, A, seeds[k, i]) for k in (0, 1))
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
    return one


def reference_unit_blocks(rs, rng):
    n = rs.n
    A = build_M(rs, rand_s(rng, n))
    u0 = unit(rs, A)
    E = centralizer_basis(A)
    uF, vF = _fiber_vector(u0, E, rng), _fiber_vector(u0, E, rng)
    uH, vH = horizontal_vector_at_unit(rs, u0, np.array([rand_s(rng, n), rand_s(rng, n)]))
    U, V = np.array([uF, uH]), np.array([vF, vH])
    # the blocks (F, F), (F, H), (H, F), (H, H) as one Gram and one oracle call
    w = omega_gram(u0.B, u0.A, U, V)
    return {
        "symplectic.unit_block_oracle": [abs(d) for d in
                                         (w - unit_block_values(A, U[:, None], V[None])).ravel()],
        "symplectic.unit_pullback_zero": abs(w[1, 1]),
    }


def reference_multiplicative(rs, rng, count):
    ps, seeds = _points(rs, rng, count), draw_seed(rng, count)

    def one(i):
        pair = make_pair(ps[i], commuting_point(rs, ps[i].A, seeds[i]))
        return {"symplectic.multiplicativity":
                multiplicativity_residual(rs, pair, composable_tangent_basis(rs, pair))}
    return one


def reference_section(rs, rng, count):
    n = rs.n
    sign = -1.0 if n % 2 == 1 else 1.0
    ss = rand_s(rng, (count, n))

    def one(i):
        s = ss[i]
        M = build_M(rs, s)
        Mp = np.linalg.matrix_power(M, n + 1)
        S12 = build_S(rs, 1, s) @ build_S(rs, 2, s)
        return {
            "stokes.round_trip": _sup(stokes_params_of(M) - s),
            "stokes.regularity": float(not is_regular(M)),
            "stokes.power_identity": _sup(Mp - sign * S12) / max(1.0, np.max(np.abs(Mp))),
            "stokes.factor_route_agreement": [
                _sup(build_Q(rs, k, s) - build_Q(rs, k, s, route="shift"))
                for k in range(n + 1, 3 * (n + 1))
            ],
        }
    return one


def reference_chains(rs, rng, count):
    n = rs.n
    sp, sg = rand_palindromic_s(rng, (count, n)), rand_s(rng, (count, n))

    def chain(s):
        return [_sup(build_Q(rs, k + n + 1, s) - inverse(build_Q(rs, k, s)).T)
                for k in (n + 1, n + 2)]

    def one(i):
        return {"stokes.antisymmetry_equivalence": chain(sp[i]),
                "stokes.antisymmetry_negative_control": float(np.max(chain(sg[i])))}
    return one


def _c_reality(rs, B):
    # np.square, as the trial squares its array of norms; ** on one numpy
    # scalar calls pow, which can differ from x * x in the last bit
    return _sup(B @ np.conj(B) - np.eye(rs.n + 1)) / max(1.0, np.square(np.linalg.norm(B, 2)))


def reference_real_char_poly(rs, rng, count):
    ps = _points(rs, rng, count, slocal=True)

    def one(i):
        B = ps[i].B
        c = char_poly(B)
        return {"involutions.fixed_point_char_poly_real": _sup(c.imag) / np.max(np.abs(c)),
                "involutions.fixed_point_c_reality": _c_reality(rs, B)}
    return one


def reference_c_reality(rs, rng, count):
    ps = _points(rs, rng, count, slocal=True)
    return lambda i: {"involutions.fixed_point_c_reality": _c_reality(rs, ps[i].B)}


def reference_bondal_axioms(rs, rng):
    N = rs.n + 1
    I = np.eye(N, dtype=complex)

    def rand_orth():
        S = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        return expm(0.5 * (S - S.T))

    p1, p2, p3 = (bd.make_bondal_point(rand_orth(), I, tol=1e-8) for _ in range(3))
    Aut = np.triu(rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)), 1) + I
    q = bd.make_bondal_point(np.diag([1.0] * (N - 1) + [(-1.0) ** (N - 1)]), Aut, tol=1e-8)
    return {"bondal.axioms": (
        _sup(bd.compose(bd.compose(p1, p2), p3).B - bd.compose(p1, bd.compose(p2, p3)).B),
        _sup(bd.compose(p1, bd.unit(bd.source(p1))).B - p1.B),
        _sup(bd.compose(q, bd.unit(q.A)).B - q.B),
    )}


def reference_embedding(rs, rng, count):
    ps, seeds = _points(rs, rng, count, slocal=True), draw_seed(rng, count)

    def one(i):
        p = ps[i]
        q = sample_slocal_fiber(rs, p.A, seeds[i])
        pq = groupoid_compose(rs, make_pair(p, q))
        e1, e2, epq = (bd.embed_slocal(rs, x) for x in (p, q, pq))
        comp = bd.compose(e1, e2, tol=1e-7)
        return {"bondal.embedding_intertwines": (_sup(comp.B - epq.B), _sup(comp.A - epq.A))}
    return one


def reference_symmetries(rs, rng):
    inp = random_antisymmetric_input(rs.n, rng)
    return {f"connection.symmetry_{k}": alpha_symmetry_residual(k, inp) for k in SYMMETRY_KINDS}


def reference_control(rs, rng):
    good = random_antisymmetric_input(rs.n, rng)
    v = good.v.copy()
    v[0] += 1.0
    inp = TodaInput(n=rs.n, w=good.w, v=v, x=1.1, zeta=0.7 + 0.2j)
    observed = [alpha_symmetry_residual(k, inp, require_antisymmetric=False)
                for k in ("anti", "c_real")]
    return {"connection.negative_control": float(np.max(observed))}


def reference_fiber(rs, rng, count):
    ps = _points(rs, rng, count, slocal=True)
    return lambda i: {"groupoid.slocal_fiber_membership":
                      float(not slocal_membership(rs, ps[i], tol=1e-8)["fixed_route"])}


def reference_tangent(rs, rng, count):
    ps = _points(rs, rng, count)
    return lambda i: {"groupoid.tangent_constraints":
                      tangent_residual(ps[i], tangent_space(rs, ps[i])[0])}


def reference_closed(rs, rng, count):
    # closedness, exact on the first-order tangent frame
    ps = _points(rs, rng, count)
    return lambda i: {"symplectic.closedness": closedness_residual(rs, ps[i])}


def reference_nondegenerate(rs, rng, count):
    # nondegeneracy at units over well-separated spectra (even indices) and
    # at random points over them (odd indices)
    ss = semisimple_s(rs, rng, count)
    seeds = draw_seed(rng, count // 2)

    def one(i):
        A = build_M(rs, ss[i])
        p = unit(rs, A) if i % 2 == 0 else commuting_point(rs, A, seeds[i // 2])
        U, _ = tangent_space(rs, p)
        return {"symplectic.nondegeneracy": gram_matrix(p, U)[1]}
    return one


def reference_pullbacks(rs, rng, count):
    # involution pullbacks at units, then at random points over their own bases
    ss, seeds = rand_s(rng, (2 * count, rs.n)), draw_seed(rng, count)

    def one(i):
        u0 = unit(rs, build_M(rs, ss[i]))
        p = commuting_point(rs, build_M(rs, ss[count + i]), seeds[i])
        return {
            "symplectic.pullback_units": involution_pullback_residual(rs, u0),
            "symplectic.pullback_random": involution_pullback_residual(rs, p),
        }
    return one


def reference_integrable(rs, rng, count):
    # integrable-system structure
    ss = semisimple_s(rs, rng, count)
    seeds = draw_seed(rng, count)
    coeffs = rand_s(rng, (2, count, rs.n))

    def one(i):
        A = build_M(rs, ss[i])
        p = commuting_point(rs, A, seeds[i])
        E = centralizer_basis(A)
        uF, vF = (fiber_vector(p, combine(coeffs[k, i], E)) for k in (0, 1))
        U, sdot = tangent_space(rs, p)
        return {
            "symplectic.poisson_brackets": poisson_bracket_residual(rs, p, U, sdot),
            "symplectic.fiber_isotropy": abs(omega(p, uF, vF)),
            "symplectic.type_two_zero": type_20_residual(p, U),
        }
    return one


def reference_real_form(rs, rng, count):
    # real sub-form behaviour on involution-fixed tangents
    ps = _points(rs, rng, count, slocal=True)

    def one(i):
        rep = real_form_checks(rs, ps[i])
        return {"symplectic.real_form_re_omega": rep["re_omega_residual"],
                "symplectic.real_form_omega2": rep["omega2_min_singular"],
                "symplectic.real_form_fixed_gap": rep["fixed_gap"]}
    return one


def _each(reference):
    """The references whose trials draw all their numbers in one call: such a
    trial lays them out sample after sample, so reference(rs, rng) draws and
    evaluates one sample per call."""
    return lambda rs, rng, count: lambda _: reference(rs, rng)


def _only(batched, name):
    """batched, returning only its residual called name."""
    @functools.wraps(batched)
    def trial(rs, rng, count):
        return {name: batched(rs, rng, count)[name]}
    return trial


#: trial -> (suite, batched trial, (rs, rng, count) -> its one-sample form of
#: the sample index, drawn as the batched trial draws)
REFERENCES = {
    "laws": ("involutions", report.involution_laws, reference_laws),
    "axioms": ("groupoid", report.groupoid_axioms, reference_axioms),
    "unit_blocks": ("symplectic", report.unit_blocks, _each(reference_unit_blocks)),
    "multiplicative": ("symplectic", report.multiplicative, reference_multiplicative),
    "section": ("stokes", report.stokes_section, reference_section),
    "chains": ("stokes", report.stokes_chains, reference_chains),
    "real_char_poly": ("involutions", report.real_char_poly, reference_real_char_poly),
    "c_reality": ("involutions", _only(report.real_char_poly, "involutions.fixed_point_c_reality"),
                  reference_c_reality),
    "bondal_axioms": ("bondal", report.bondal_axioms, _each(reference_bondal_axioms)),
    "embedding": ("bondal", report.bondal_embedding, reference_embedding),
    "symmetries": ("connection", report.connection_symmetries, _each(reference_symmetries)),
    "control": ("connection", report.connection_control, _each(reference_control)),
    "fiber": ("groupoid", report.slocal_fiber, reference_fiber),
    "tangent": ("groupoid", report.tangent_constraints, reference_tangent),
    "closed": ("symplectic", report.closedness, reference_closed),
    "nondegenerate": ("symplectic", report.nondegeneracy, reference_nondegenerate),
    "pullbacks": ("symplectic", report.pullbacks, reference_pullbacks),
    "integrable": ("symplectic", report.integrable, reference_integrable),
    "real_form": ("symplectic", report.real_form, reference_real_form),
}

#: the trials batched after the first three
LATER = [t for t in REFERENCES if t not in ("laws", "axioms", "unit_blocks")]


def _stream(seed, suite):
    """The generator run_suite gives the suite at this seed."""
    seeds = np.random.SeedSequence(seed).spawn(len(report.SUITES))
    return np.random.default_rng(seeds[report.SUITES.index(suite)])


def _assert_trial_matches(rs, trial, seed, samples):
    suite, batched, reference = REFERENCES[trial]
    rng, ref_rng = _stream(seed, suite), _stream(seed, suite)
    got = batched(rs, rng, samples)
    want = _draw(samples, reference(rs, ref_rng, samples))
    assert sorted(got) == sorted(want)
    for name, runs in want.items():
        expected = np.array(runs, dtype=float)
        assert got[name].shape == expected.shape, name
        assert got[name].dtype == expected.dtype, name
        assert got[name].tobytes() == expected.tobytes(), name
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("trial", REFERENCES)
def test_batched_trial_equals_per_sample(roots, trial, n):
    _assert_trial_matches(roots[n], trial, 42, 10)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("trial", LATER)
def test_batched_trial_equals_per_sample_at_100(roots, trial, n):
    _assert_trial_matches(roots[n], trial, 35, 100)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_nondegeneracy_at_one_sample(roots, n):
    """One sample is one unit: the stack of random points at odd indices is
    empty, and the trial reads the unit alone."""
    runs = report.nondegeneracy(roots[n], _stream(42, "symplectic"), 1)
    want = _draw(1, reference_nondegenerate(roots[n], _stream(42, "symplectic"), 1))
    assert runs["symplectic.nondegeneracy"].tobytes() == np.array(
        want["symplectic.nondegeneracy"]).tobytes()


@pytest.mark.parametrize("seed", [7, 35, 37])
def test_batched_laws_at_the_marginal_seeds(roots, seed):
    """At these verify seeds the laws trial's largest make_point commutator at
    n = 4 came within a tenth of its absolute bound of 1e-9 while sigma
    conjugated by F_sigma at even rank (see test_sigma_twice_at_even_rank)."""
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
    ps, qs = list(p), list(q)
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
    units, ps = list(u0), list(p)
    E = centralizer_basis(A)
    c = rng.standard_normal((STACK, n)) + 1j * rng.standard_normal((STACK, n))
    xi = combine(c, E)
    _same(xi, [combine(ci, Ei) for ci, Ei in zip(c, E)])
    # at n = 1 the inner dimension is 1 and np.tensordot gives the bytes of
    # numpy's complex *, which the batched product misses in the last bit
    dot = np.array([np.tensordot(ci, Ei, axes=1) for ci, Ei in zip(c, E)])
    assert _sup(xi - dot) <= 1e-15 * _sup(dot)
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


def _toda_stack(n, rng):
    """STACK anti-symmetric inputs as one stacked TodaInput, and each alone."""
    singles = [random_antisymmetric_input(n, rng) for _ in range(STACK)]
    stacked = TodaInput(n=n, **{key: np.array([getattr(x, key) for x in singles])
                                for key in ("w", "v", "x", "zeta")})
    return stacked, singles


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_connection_primitives_broadcast(n):
    inp, singles = _toda_stack(n, np.random.default_rng(600 + n))
    _same(build_W(inp.w), [build_W(x.w) for x in singles])
    _same(alpha_coeff(inp), [alpha_coeff(x) for x in singles])
    zetas = [np.complex128(0.3 - 1.1j) * x.zeta for x in singles]
    _same(alpha_coeff(inp, zetas), [alpha_coeff(x, z) for x, z in zip(singles, zetas)])
    _same(inp.antisymmetry_residual(), [x.antisymmetry_residual() for x in singles])
    for kind in SYMMETRY_KINDS:
        _same(alpha_symmetry_residual(kind, inp), [alpha_symmetry_residual(kind, x) for x in singles])
    # one input alone (Python complex zeta, float x): the formula as written
    x, z = singles[0], singles[0].zeta
    W = np.diag(np.exp(-x.w)) @ structural_matrices(n).Pi @ np.diag(np.exp(x.w))
    _same(alpha_coeff(x), (-(z ** -2)) * W.T - (z ** -1) * np.diag(x.v).astype(complex)
          + x.x ** 2 * W)


def test_an_unsymmetric_input_in_a_stack_raises_as_a_single_call():
    inp, _ = _toda_stack(3, np.random.default_rng(700))
    w = inp.w.copy()
    w[7, 0] += 1.0
    broken = TodaInput(n=3, w=w, v=inp.v, x=inp.x, zeta=inp.zeta)
    single = TodaInput(n=3, w=w[7], v=inp.v[7], x=inp.x[7], zeta=inp.zeta[7])
    for kind in SYMMETRY_KINDS:
        with pytest.raises(PreconditionError) as one:
            alpha_symmetry_residual(kind, single)
        with pytest.raises(PreconditionError) as stacked:
            alpha_symmetry_residual(kind, broken)
        assert str(stacked.value) == str(one.value)


def _orthogonal(rng, N, count):
    S = rng.standard_normal((count, N, N)) + 1j * rng.standard_normal((count, N, N))
    return expm(0.5 * (S - np.swapaxes(S, -1, -2)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bondal_primitives_broadcast(roots, n):
    rs, N = roots[n], n + 1
    rng = np.random.default_rng(800 + n)
    B1, B2 = _orthogonal(rng, N, STACK), _orthogonal(rng, N, STACK)
    Aut = np.triu(rng.standard_normal((STACK, N, N)) + 1j * rng.standard_normal((STACK, N, N)), 1)
    Aut += np.eye(N)
    _same(bd._unit_upper(Aut, 1e-9), [bd._unit_upper(a, 1e-9) for a in Aut])
    _same(bd.membership(B1, Aut), [bd.membership(b, a) for b, a in zip(B1, Aut)])
    I = np.broadcast_to(np.eye(N, dtype=complex), B1.shape)
    p, q = bd.make_bondal_point(B1, I), bd.make_bondal_point(B2, I)
    ps = [bd.make_bondal_point(b, np.eye(N)) for b in B1]
    qs = [bd.make_bondal_point(b, np.eye(N)) for b in B2]
    for field in ("B", "A"):
        _same(getattr(p, field), [getattr(x, field) for x in ps])
        _same(getattr(bd.unit(Aut), field), [getattr(bd.unit(a), field) for a in Aut])
        _same(getattr(bd.compose(p, q), field),
              [getattr(bd.compose(x, y), field) for x, y in zip(ps, qs)])
    _same(bd.target(bd.BondalPoint(B=B1, A=Aut)),
          [bd.target(bd.BondalPoint(B=b, A=a)) for b, a in zip(B1, Aut)])
    s = np.array([rand_palindromic_s(rng, n) for _ in range(STACK)])
    seeds = [int(x) for x in rng.integers(0, 2 ** 31, STACK)]
    x = sample_slocal_fiber(rs, build_M(rs, s), seeds)
    xs = [sample_slocal_fiber(rs, build_M(rs, si), t) for si, t in zip(s, seeds)]
    _same_points(x, xs)
    e = bd.embed_slocal(rs, x)
    for field in ("B", "A"):
        _same(getattr(e, field), [getattr(bd.embed_slocal(rs, y), field) for y in xs])


def test_one_bad_bondal_pair_raises_as_a_single_call(roots):
    rng = np.random.default_rng(900)
    N = 4
    B1, B2 = _orthogonal(rng, N, STACK), _orthogonal(rng, N, STACK)
    I = np.broadcast_to(np.eye(N, dtype=complex), B1.shape)
    A = I.copy()
    A[7, 2, 0] = 1.0  # below the diagonal

    def point(B, A):
        return bd.make_bondal_point(B, A)

    assert isinstance(_raises_like_single(point, 7, B1, A), PreconditionError)
    off = B2.copy()
    off[7] = rng.standard_normal((N, N))

    def compose(B1, B2):
        return bd.compose(bd.BondalPoint(B=B1, A=np.eye(N)), bd.BondalPoint(B=B2, A=np.eye(N)))

    assert isinstance(_raises_like_single(compose, 7, B1, off), NotComposableError)


def test_a_base_off_the_real_slice_raises_as_a_single_call(roots):
    rs = roots[3]
    rng = np.random.default_rng(1000)
    s = np.array([rand_palindromic_s(rng, 3) for _ in range(STACK)])
    s[7] = rand_s(rng, 3)
    seeds = [int(x) for x in rng.integers(0, 2 ** 31, STACK)]
    err = _raises_like_single(lambda A, t: sample_slocal_fiber(rs, A, t), 7, build_M(rs, s), seeds)
    assert isinstance(err, PreconditionError) and "slice" in str(err)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_composable_primitives_broadcast(roots, n):
    rs, N = roots[n], n + 1
    rng = np.random.default_rng(1100 + n)
    s, A, p, q = _stacks(rs, rng)
    ps, qs = list(p), list(q)
    dM = dM_ds(rs, s)
    c = rng.standard_normal((STACK, 3 * n, n)) + 0j
    _same(combine(c, dM), [np.tensordot(ci, d, axes=1) for ci, d in zip(c, dM)])
    pair = make_pair(p, q)
    basis = composable_tangent_basis(rs, pair)
    bases = [composable_tangent_basis(rs, make_pair(x, y)) for x, y in zip(ps, qs)]
    _same(basis, bases)
    _same(multiplicativity_residual(rs, pair, basis),
          [multiplicativity_residual(rs, make_pair(x, y), b) for x, y, b in zip(ps, qs, bases)])
    for k in range(N, 3 * N):
        _same(build_Q(rs, k, s, route="shift"), [build_Q(rs, k, x, route="shift") for x in s])
    _same(np.linalg.matrix_power(A, N), [np.linalg.matrix_power(a, N) for a in A])


@pytest.mark.parametrize("n", [1, 3])
def test_a_degenerate_pair_raises_the_kernel_dimension(roots, n):
    """A pair over a non-regular base (B = A = I, never a section element) has
    no closed-form composable frame: it raises centralizer_basis's
    NotRegularError, alone and as one point of a stack."""
    rs = roots[n]
    rng = np.random.default_rng(1200 + n)
    _, _, p, q = _stacks(rs, rng)
    B, A = p.B.copy(), p.A.copy()
    B[7] = A[7] = np.eye(n + 1)

    def basis(B, A):
        x = GroupoidPoint(B=B, base=Base(rs, A))
        return composable_tangent_basis(rs, make_pair(x, x))

    err = _raises_like_single(basis, 7, B, A)
    assert isinstance(err, NotRegularError) and "regular" in str(err)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_tangent_space_checks_broadcast(roots, n):
    """tangent_space and the checks on its frame, at a stack of 20 points, give
    the bytes of 20 single calls; so do the membership flags and the real
    sub-form checks at 20 fixed-locus points."""
    rs = roots[n]
    rng = np.random.default_rng(1300 + n)
    _, _, p, _ = _stacks(rs, rng)
    ps = list(p)
    U, sdot = tangent_space(rs, p)
    singles = [tangent_space(rs, x) for x in ps]
    _same(U, [u for u, _ in singles])
    _same(sdot, [d for _, d in singles])
    # Y per point as the one-point product np.tensordot(sdot, dM) gives it
    _same(U[:, :, 1], [np.tensordot(d, dM_ds(rs, x.s), axes=1) for x, (_, d) in zip(ps, singles)])
    _same(closedness_residual(rs, p), [closedness_residual(rs, x) for x in ps])
    G, low = gram_matrix(p, U)
    _same(G, [gram_matrix(x, u)[0] for x, (u, _) in zip(ps, singles)])
    _same(low, [gram_matrix(x, u)[1] for x, (u, _) in zip(ps, singles)])
    _same(poisson_bracket_residual(rs, p, U, sdot),
          [poisson_bracket_residual(rs, x, u, d) for x, (u, d) in zip(ps, singles)])
    _same(type_20_residual(p, U), [type_20_residual(x, u) for x, (u, _) in zip(ps, singles)])
    _same(involution_pullback_residual(rs, p), [involution_pullback_residual(rs, x) for x in ps])
    F = np.concatenate([U, 1j * U], axis=1)
    Fs = np.concatenate([sdot, 1j * sdot], axis=1)
    for differential in (sigma_differential, theta_differential):
        _same(differential(rs, p, F, Fs),
              [differential(rs, x, f, fs) for x, f, fs in zip(ps, F, Fs)])

    s = np.array([rand_palindromic_s(rng, n) for _ in range(STACK)])
    seeds = [int(x) for x in rng.integers(0, 2 ** 31, STACK)]
    fixed = sample_slocal_fiber(rs, build_M(rs, s), seeds)
    rep = real_form_checks(rs, fixed)
    reps = [real_form_checks(rs, x) for x in fixed]
    for key in ("re_omega_residual", "omega2_min_singular", "fixed_gap"):
        _same(rep[key], [r[key] for r in reps])
    # members and, with B scaled, non-members in one stack
    mixed = GroupoidPoint(B=fixed.B * np.where(np.arange(STACK) % 3 == 0, 1.5, 1.0)[:, None, None],
                          base=fixed.base)
    flags = [slocal_membership(rs, x, tol=1e-8) for x in mixed]
    mem = slocal_membership(rs, mixed, tol=1e-8)
    for key in ("fixed_route", "direct_route"):
        assert all(type(f[key]) is bool for f in flags)
        _same(mem[key], [f[key] for f in flags])
    assert mem["fixed_route"].tolist() == [i % 3 != 0 for i in range(STACK)]


@pytest.mark.parametrize("n", [1, 3])
def test_a_bad_tangent_frame_raises_as_a_single_call(roots, n):
    """A point with B = A = I has a non-regular base, so no closed-form tangent
    frame; a frame with a repeated vector has a singular Gram.  Each raises in
    a stack the single call's error."""
    rs = roots[n]
    rng = np.random.default_rng(1400 + n)
    _, _, p, _ = _stacks(rs, rng)
    B, A = p.B.copy(), p.A.copy()
    B[7] = A[7] = np.eye(n + 1)

    def tangent(B, A):
        return tangent_space(rs, GroupoidPoint(B=B, base=Base(rs, A)))

    err = _raises_like_single(tangent, 7, B, A)
    assert isinstance(err, NotRegularError) and "regular" in str(err)
    U, sdot = tangent_space(rs, p)
    U[7, 1] = U[7, 0]

    def brackets(B, A, U, sdot):
        return poisson_bracket_residual(rs, GroupoidPoint(B=B, base=Base(rs, A)), U, sdot)

    err = _raises_like_single(brackets, 7, p.B, p.A, U, sdot)
    assert isinstance(err, DegenerateFormError)
