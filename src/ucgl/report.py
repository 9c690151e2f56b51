"""Verification suites and report assembly.

Each suite runs the property checks of one module at a configured rank and
seed and returns named checks with residuals and tolerances.  All
randomness flows from a single seeded generator, so a (config, seed) pair
reproduces its report byte for byte (timing excluded).

Negative controls (identities that must FAIL off the constraint locus) are
recorded with residual max(0, threshold - observed): zero when the control
misbehaves as it should.
"""

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import bondal as bd
from .connection import alpha_symmetry_residual, random_antisymmetric_input, TodaInput, SYMMETRY_KINDS
from .core import char_poly, determinant, inverse, is_regular
from .errors import UcglError
from .groupoid import (
    centralizer_basis,
    fiber_vector,
    groupoid_compose,
    groupoid_inverse,
    horizontal_vector_at_unit,
    make_pair,
    sample_commuting,
    sample_slocal_fiber,
    source,
    tangent_space,
    target,
    unit,
)
from .involutions import (
    apply_sigma,
    apply_theta,
    make_point,
    point_distance,
    slocal_membership,
)
from .stokes import (
    build_M,
    build_Q,
    build_S,
    derive_root_sets,
    rand_palindromic_s,
    rand_s,
    root_sets_to_dict,
    semisimple_s,
    stokes_params_of,
)
from .symplectic import (
    character_system,
    closedness_residual,
    composable_tangent_basis,
    gram_matrix,
    involution_pullback_residual,
    multiplicativity_residual,
    omega_at,
    poisson_bracket_residual,
    real_form_checks,
    type_20_residual,
    unit_block_values,
)

SUITES = (
    "connection",
    "stokes",
    "involutions",
    "groupoid",
    "symplectic",
    "bondal",
    "slocal-experiment",
)


@dataclass
class Check:
    name: str
    samples: int
    max_residual: float
    tol: float
    details: dict = field(default_factory=dict)

    @property
    def passed(self):
        return bool(self.max_residual < self.tol)

    def to_dict(self):
        return {
            "name": self.name,
            "samples": self.samples,
            "max_residual": float(self.max_residual),
            "tol": float(self.tol),
            "pass": self.passed,
            "details": self.details,
        }


@dataclass
class VerificationReport:
    n: int
    seed: int
    suite: str
    checks: list
    root_sets: dict
    timing: float

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)

    def to_dict(self, include_timing=True):
        d = {
            "n": self.n,
            "seed": self.seed,
            "suite": self.suite,
            "checks": [c.to_dict() for c in sorted(self.checks, key=lambda c: c.name)],
            "root_sets": self.root_sets,
            "all_pass": self.all_passed,
        }
        if include_timing:
            d["timing"] = self.timing
        return d

    def to_json(self, include_timing=True):
        return json.dumps(self.to_dict(include_timing), sort_keys=True, indent=2)

    def to_markdown(self):
        lines = [
            f"# Verification report (n={self.n}, suite={self.suite}, seed={self.seed})",
            "",
            "| check | samples | max residual | tol | pass |",
            "|---|---|---|---|---|",
        ]
        for c in sorted(self.checks, key=lambda c: c.name):
            lines.append(
                f"| {c.name} | {c.samples} | {c.max_residual:.3e} | {c.tol:.1e} |"
                f" {'yes' if c.passed else 'NO'} |"
            )
        lines.append("")
        lines.append(f"All pass: {'yes' if self.all_passed else 'NO'}")
        return "\n".join(lines)


def _neg_control(observed, threshold=1e-3):
    """Residual convention for negative controls (0 when suitably large)."""
    return max(0.0, threshold - observed)


def _rand_point(rs, rng):
    """Random point: section base with a random centralizer element."""
    s = rand_s(rng, rs.n)
    A = build_M(rs, s)
    B = sample_commuting(A, int(rng.integers(0, 2 ** 31)))
    return make_point(rs, B, A, tol=1e-7)


# ---------------------------------------------------------------------------
# suites


def suite_connection(rs, rng, samples=100):
    n = rs.n
    checks = []
    worst = {k: 0.0 for k in SYMMETRY_KINDS}
    for _ in range(samples):
        inp = random_antisymmetric_input(n, rng)
        for k in SYMMETRY_KINDS:
            worst[k] = max(worst[k], alpha_symmetry_residual(k, inp))
    for k in SYMMETRY_KINDS:
        checks.append(Check(f"connection.symmetry_{k}", samples, worst[k], 1e-11))
    # negative control: break anti-symmetry, the anti/c_real identities must fail
    min_obs = math.inf
    trials = max(5, samples // 10)
    for _ in range(trials):
        w = rng.standard_normal(n + 1)
        v = rng.standard_normal(n + 1)
        w[0] += 1.0  # guarantee the anti-symmetry defect
        inp = TodaInput(n=n, w=w, v=v, x=1.1, zeta=0.7 + 0.2j)
        obs = max(
            alpha_symmetry_residual("anti", inp, require_antisymmetric=False),
            alpha_symmetry_residual("c_real", inp, require_antisymmetric=False),
        )
        min_obs = min(min_obs, obs)
    checks.append(
        Check("connection.negative_control", trials, _neg_control(min_obs), 1e-9,
              details={"min_observed": min_obs})
    )
    return checks


def suite_stokes(rs, rng, samples=100):
    n = rs.n
    checks = []
    rt = reg_fail = power = route = 0.0
    for _ in range(samples):
        s = rand_s(rng, n)
        M = build_M(rs, s)
        rt = max(rt, float(np.max(np.abs(stokes_params_of(M) - s))))
        if not is_regular(M):
            reg_fail = 1.0
        Mp = np.linalg.matrix_power(M, n + 1)
        S12 = build_S(rs, 1, s) @ build_S(rs, 2, s)
        sign = -1.0 if n % 2 == 1 else 1.0
        power = max(
            power,
            float(np.max(np.abs(Mp - sign * S12)) / max(1.0, np.max(np.abs(Mp)))),
        )
        for k_num in range(n + 1, 3 * (n + 1)):
            route = max(
                route,
                float(np.max(np.abs(build_Q(rs, k_num, s) - build_Q(rs, k_num, s, route="shift")))),
            )
    checks.append(Check("stokes.round_trip", samples, rt, 1e-10))
    checks.append(Check("stokes.regularity", samples, reg_fail, 0.5))
    checks.append(Check("stokes.power_identity", samples, power, 1e-9))
    checks.append(Check("stokes.factor_route_agreement", samples, route, 1e-13))
    # palindromic parameters make consecutive factors inverse-transposes
    pal = 0.0
    non = math.inf
    trials = max(10, samples // 5)
    for _ in range(trials):
        sp = rand_palindromic_s(rng, n)
        sg = rand_s(rng, n)
        chain_worst = 0.0
        for base_k in (n + 1, n + 2):  # k = 1 and k = 1 + 1/(n+1); k+1 adds n+1
            Qa = build_Q(rs, base_k, sp)
            Qb = build_Q(rs, base_k + n + 1, sp)
            pal = max(pal, float(np.max(np.abs(Qb - inverse(Qa).T))))
            Qa = build_Q(rs, base_k, sg)
            Qb = build_Q(rs, base_k + n + 1, sg)
            chain_worst = max(chain_worst, float(np.max(np.abs(Qb - inverse(Qa).T))))
        non = min(non, chain_worst)
    checks.append(Check("stokes.antisymmetry_equivalence", trials, pal, 1e-10))
    if n > 1:  # at rank 1 the palindromic condition is vacuous
        checks.append(
            Check("stokes.antisymmetry_negative_control", trials, _neg_control(non), 1e-9,
                  details={"min_observed": non})
        )
    return checks


def suite_involutions(rs, rng, samples=100):
    n = rs.n
    checks = []
    invol = commute = base_act = morphism = char_real = 0.0
    for _ in range(samples):
        p = _rand_point(rs, rng)
        invol = max(invol, point_distance(apply_sigma(rs, apply_sigma(rs, p)), p))
        invol = max(invol, point_distance(apply_theta(rs, apply_theta(rs, p)), p))
        commute = max(
            commute,
            point_distance(
                apply_sigma(rs, apply_theta(rs, p)), apply_theta(rs, apply_sigma(rs, p))
            ),
        )
        sp = apply_sigma(rs, p)
        tp = apply_theta(rs, p)
        base_act = max(
            base_act,
            float(np.max(np.abs(sp.s - p.s[::-1]))),
            float(np.max(np.abs(tp.s - np.conj(p.s[::-1])))),
        )
        # morphism law on a composable pair over the same base
        q = make_point(rs, sample_commuting(p.A, int(rng.integers(0, 2 ** 31))), p.A, tol=1e-7)
        pq = groupoid_compose(rs, make_pair(p, q))
        morphism = max(
            morphism,
            point_distance(
                apply_sigma(rs, pq),
                groupoid_compose(rs, make_pair(apply_sigma(rs, p), apply_sigma(rs, q))),
            ),
            point_distance(
                apply_theta(rs, pq),
                groupoid_compose(rs, make_pair(apply_theta(rs, p), apply_theta(rs, q))),
            ),
        )
    checks.append(Check("involutions.involutivity", samples, invol, 1e-9))
    checks.append(Check("involutions.commutation", samples, commute, 1e-9))
    checks.append(Check("involutions.base_parameter_action", samples, base_act, 1e-10))
    checks.append(Check("involutions.groupoid_morphism", samples, morphism, 1e-9))
    # fixed-point route agreement on a mix of members and non-members
    disagreements = 0
    probes = samples
    for i in range(probes):
        if i % 2 == 0:
            s = rand_palindromic_s(rng, n)
            p = sample_slocal_fiber(rs, build_M(rs, s), int(rng.integers(0, 2 ** 31)))
        else:
            p = _rand_point(rs, rng)
        mem = slocal_membership(rs, p, tol=1e-7)
        if mem["fixed_route"] != mem["direct_route"]:
            disagreements += 1
    checks.append(
        Check("involutions.route_equivalence", probes, float(disagreements), 0.5)
    )
    # theta-fixed points have B with real characteristic polynomial
    for _ in range(max(5, samples // 10)):
        s = rand_palindromic_s(rng, n)
        p = sample_slocal_fiber(rs, build_M(rs, s), int(rng.integers(0, 2 ** 31)))
        c = char_poly(p.B)
        char_real = max(char_real, float(np.max(np.abs(c.imag)) / np.max(np.abs(c))))
    checks.append(
        Check("involutions.fixed_point_char_poly_real", max(5, samples // 10), char_real, 1e-9)
    )
    return checks


def suite_groupoid(rs, rng, samples=100):
    n = rs.n
    checks = []
    axioms = st_eq = samp = fiber_mem = 0.0
    tangent_dim_err = 0.0
    for _ in range(samples):
        s = rand_s(rng, n)
        A = build_M(rs, s)
        seeds = [int(rng.integers(0, 2 ** 31)) for _ in range(3)]
        ps = [make_point(rs, sample_commuting(A, sd), A, tol=1e-7) for sd in seeds]
        p1, p2, p3 = ps
        # associativity, unit, inverse
        lhs = groupoid_compose(rs, make_pair(groupoid_compose(rs, make_pair(p1, p2)), p3))
        rhs = groupoid_compose(rs, make_pair(p1, groupoid_compose(rs, make_pair(p2, p3))))
        axioms = max(axioms, point_distance(lhs, rhs))
        u = unit(rs, A)
        axioms = max(axioms, point_distance(groupoid_compose(rs, make_pair(p1, u)), p1))
        axioms = max(
            axioms,
            point_distance(groupoid_compose(rs, make_pair(p1, groupoid_inverse(rs, p1))), u),
        )
        st_eq = max(st_eq, float(np.max(np.abs(source(p1) - target(p1)))))
        samp = max(
            samp,
            float(np.max(np.abs(p1.B @ A - A @ p1.B))),
            abs(determinant(p1.B) - 1.0),
        )
    checks.append(Check("groupoid.axioms", samples, axioms, 1e-10))
    checks.append(Check("groupoid.source_equals_target", samples, st_eq, 1e-15))
    checks.append(Check("groupoid.sampler_membership", samples, samp, 1e-10))
    trials = max(5, samples // 5)
    for _ in range(trials):
        s = rand_palindromic_s(rng, n)
        p = sample_slocal_fiber(rs, build_M(rs, s), int(rng.integers(0, 2 ** 31)))
        mem = slocal_membership(rs, p, tol=1e-8)
        if not (mem["fixed_route"] and mem["direct_route"]):
            fiber_mem = 1.0
    checks.append(Check("groupoid.slocal_fiber_membership", trials, fiber_mem, 0.5))
    tdim_trials = max(5, samples // 10)
    for _ in range(tdim_trials):
        p = _rand_point(rs, rng)
        vecs = tangent_space(rs, p)
        tangent_dim_err = max(tangent_dim_err, abs(len(vecs) - 2 * n))
    checks.append(
        Check("groupoid.tangent_dimension", tdim_trials, tangent_dim_err, 0.5)
    )
    return checks


def suite_symplectic(rs, rng, samples=100):
    n = rs.n
    checks = []
    # four-block unit oracle plus the zero-form along units
    blocks = eps_zero = 0.0
    configs = 2 * samples
    for _ in range(configs):
        s = rand_s(rng, n)
        A = build_M(rs, s)
        u0 = unit(rs, A)
        _, traceless = centralizer_basis(A)
        cf = rand_s(rng, n)
        ce = rand_s(rng, n)
        xi = sum(cf[j] * traceless[j] for j in range(n))
        eta = sum(ce[j] * traceless[j] for j in range(n))
        uF = fiber_vector(u0, xi)
        vF = fiber_vector(u0, eta)
        uH = horizontal_vector_at_unit(rs, u0, rand_s(rng, n))
        vH = horizontal_vector_at_unit(rs, u0, rand_s(rng, n))
        for (a, b) in ((uF, vF), (uH, vH), (uF, vH), (uH, vF)):
            blocks = max(blocks, abs(omega_at(u0, a, b) - unit_block_values(A, a, b)))
        eps_zero = max(eps_zero, abs(omega_at(u0, uH, vH)))
    checks.append(Check("symplectic.unit_block_oracle", configs, blocks, 1e-11))
    checks.append(Check("symplectic.unit_pullback_zero", configs, eps_zero, 1e-12))

    # multiplicativity over full composable-pair tangent bases
    mult = 0.0
    pairs_n = max(10, samples // 2)
    for _ in range(pairs_n):
        s = rand_s(rng, n)
        A = build_M(rs, s)
        p = make_point(rs, sample_commuting(A, int(rng.integers(0, 2 ** 31))), A, tol=1e-7)
        q = make_point(rs, sample_commuting(A, int(rng.integers(0, 2 ** 31))), A, tol=1e-7)
        pair = make_pair(p, q)
        basis = composable_tangent_basis(rs, pair)
        mult = max(mult, multiplicativity_residual(rs, pair, basis))
    checks.append(Check("symplectic.multiplicativity", pairs_n, mult, 1e-8))

    # closedness by finite differences in charts
    pts = max(3, samples // 10)
    closed = 0.0
    for _ in range(pts):
        p = _rand_point(rs, rng)
        closed = max(closed, closedness_residual(rs, p))
    closed_tol = 1e-4 if n <= 2 else 1e-3
    checks.append(Check("symplectic.closedness", pts, closed, closed_tol))

    # nondegeneracy at units over well-separated spectra and at random points
    min_sing = math.inf
    nd_trials = max(5, samples // 10)
    for i in range(nd_trials):
        s = semisimple_s(rs, rng)
        A = build_M(rs, s)
        if i % 2 == 0:
            p = unit(rs, A)
        else:
            p = make_point(rs, sample_commuting(A, int(rng.integers(0, 2 ** 31))), A, tol=1e-7)
        basis = tangent_space(rs, p)
        min_sing = min(min_sing, gram_matrix(p, basis).min_singular)
    checks.append(
        Check("symplectic.nondegeneracy", nd_trials, _neg_control(min_sing, 1e-6), 1e-12,
              details={"min_singular": min_sing})
    )

    # involution pullbacks at units and at random points
    pull_unit = pull_rand = 0.0
    for i in range(3):
        s = rand_s(rng, n)
        A = build_M(rs, s)
        u0 = unit(rs, A)
        pull_unit = max(
            pull_unit,
            involution_pullback_residual("sigma", rs, u0),
            involution_pullback_residual("theta", rs, u0),
        )
        p = _rand_point(rs, rng)
        pull_rand = max(
            pull_rand,
            involution_pullback_residual("sigma", rs, p),
            involution_pullback_residual("theta", rs, p),
        )
    checks.append(Check("symplectic.pullback_units", 3, pull_unit, 1e-9))
    checks.append(Check("symplectic.pullback_random", 3, pull_rand, 1e-5))

    # integrable-system structure
    rank_err = poisson = isotropy = t20 = 0.0
    for _ in range(max(5, samples // 10)):
        s = semisimple_s(rs, rng)
        cs = character_system(rs, s)
        rank_err = max(rank_err, abs(cs["jacobian_rank"] - n))
        A = build_M(rs, s)
        p = make_point(rs, sample_commuting(A, int(rng.integers(0, 2 ** 31))), A, tol=1e-7)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                poisson = max(poisson, poisson_bracket_residual(rs, i, j, p))
        _, traceless = centralizer_basis(A)
        cf, ce = rand_s(rng, n), rand_s(rng, n)
        uF = fiber_vector(p, sum(cf[k] * traceless[k] for k in range(n)))
        vF = fiber_vector(p, sum(ce[k] * traceless[k] for k in range(n)))
        isotropy = max(isotropy, abs(omega_at(p, uF, vF)))
        t20 = max(t20, type_20_residual(p, uF, vF))
    trials = max(5, samples // 10)
    checks.append(Check("symplectic.character_jacobian_rank", trials, rank_err, 0.5))
    if n >= 2:
        checks.append(Check("symplectic.poisson_brackets", trials, poisson, 1e-5))
    checks.append(Check("symplectic.fiber_isotropy", trials, isotropy, 1e-9))
    checks.append(Check("symplectic.type_two_zero", trials, t20, 1e-10))

    # real sub-form behaviour on involution-fixed tangents
    re_res = 0.0
    min_s2 = math.inf
    dims = []
    rf_trials = 3
    for _ in range(rf_trials):
        s = rand_palindromic_s(rng, n)
        p = sample_slocal_fiber(rs, build_M(rs, s), int(rng.integers(0, 2 ** 31)))
        rep = real_form_checks(rs, p)
        re_res = max(re_res, rep["re_omega_residual"])
        min_s2 = min(min_s2, rep["omega2_min_singular"])
        dims.append(rep["joint_fixed_dim"])
    checks.append(Check("symplectic.real_form_re_omega", rf_trials, re_res, 1e-8))
    checks.append(
        Check(
            "symplectic.real_form_omega2",
            rf_trials,
            _neg_control(min_s2, 1e-7),
            1e-12,
            details={
                "min_singular": min_s2,
                "joint_fixed_dims": dims,
                "expected_dim": 2 * ((n + 1) // 2),
                "dims_even": all(d % 2 == 0 for d in dims),
            },
        )
    )
    return checks


def suite_bondal(rs, rng, samples=100):
    n = rs.n
    N = n + 1
    checks = []
    # groupoid axioms on orthogonal-over-identity members plus sign-diagonal probes
    axioms = 0.0
    for _ in range(samples):
        def rand_orth():
            S = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
            S = 0.5 * (S - S.T)
            from scipy.linalg import expm

            return expm(S)

        I = np.eye(N, dtype=complex)
        p1 = bd.make_bondal_point(rand_orth(), I, tol=1e-8)
        p2 = bd.make_bondal_point(rand_orth(), I, tol=1e-8)
        p3 = bd.make_bondal_point(rand_orth(), I, tol=1e-8)
        lhs = bd.compose(bd.compose(p1, p2), p3)
        rhs = bd.compose(p1, bd.compose(p2, p3))
        axioms = max(axioms, float(np.max(np.abs(lhs.B - rhs.B))))
        u = bd.unit(bd.source(p1))
        axioms = max(axioms, float(np.max(np.abs(bd.compose(p1, u).B - p1.B))))
        # a non-identity base with a sign-diagonal arrow
        Aut = np.triu(rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)), 1) + I
        D = np.diag([1.0] * (N - 1) + [(-1.0) ** (N - 1)])
        q = bd.make_bondal_point(D, Aut, tol=1e-8)
        axioms = max(
            axioms, float(np.max(np.abs(bd.compose(q, bd.unit(q.A)).B - q.B)))
        )
    checks.append(Check("bondal.axioms", samples, axioms, 1e-10))

    # the embedding intertwines composition and bases
    inter = 0.0
    trials = max(10, samples // 5)
    perms = set()
    for _ in range(trials):
        s = rand_palindromic_s(rng, n)
        A = build_M(rs, s)
        p = sample_slocal_fiber(rs, A, int(rng.integers(0, 2 ** 31)))
        q = sample_slocal_fiber(rs, A, int(rng.integers(0, 2 ** 31)))
        pq = groupoid_compose(rs, make_pair(p, q))
        e1, e2 = bd.embed_slocal(rs, p), bd.embed_slocal(rs, q)
        epq = bd.embed_slocal(rs, pq)
        comp = bd.compose(e1, e2, tol=1e-7)
        inter = max(
            inter,
            float(np.max(np.abs(comp.B - epq.B))),
            float(np.max(np.abs(comp.A - epq.A))),
        )
        perm = bd.triangularizing_permutation(e1.A, tol=1e-8)
        perms.add(str(perm))
    checks.append(Check("bondal.embedding_intertwines", trials, inter, 1e-9))
    checks.append(
        Check("bondal.embedding_base_consistency", trials, 0.0, 1e-9,
              details={"triangularizing_permutations": sorted(perms)})
    )
    return checks


def suite_slocal_experiment(rs, rng, samples=100):
    n = rs.n
    hits = 0
    for _ in range(samples):
        s = rand_palindromic_s(rng, n)
        p = sample_slocal_fiber(rs, build_M(rs, s), int(rng.integers(0, 2 ** 31)))
        if np.max(np.abs(p.B @ np.conj(p.B) - np.eye(n + 1))) < 1e-8:
            hits += 1
    frac = hits / samples
    return [
        Check(
            "slocal.c_reality_fraction",
            samples,
            1.0 - frac,
            1.1,  # reported, never asserted
            details={"fraction": frac, "expected": 1.0},
        )
    ]


_SUITE_FUNCS = {
    "connection": suite_connection,
    "stokes": suite_stokes,
    "involutions": suite_involutions,
    "groupoid": suite_groupoid,
    "symplectic": suite_symplectic,
    "bondal": suite_bondal,
    "slocal-experiment": suite_slocal_experiment,
}


def run_suite(config):
    """Run one suite (or 'all') and assemble a VerificationReport.

    config keys: n (required), suite (default 'all'), seed (default 42),
    samples (default 100), time_budget for the root search (default 60).
    """
    n = int(config["n"])
    suite = config.get("suite", "all")
    seed = int(config.get("seed", 42))
    samples = int(config.get("samples", 100))
    if suite != "all" and suite not in _SUITE_FUNCS:
        raise UcglError(f"unknown suite {suite!r}")
    t0 = time.monotonic()
    rs = derive_root_sets(n, time_budget=float(config.get("time_budget", 60.0)))
    rng = np.random.default_rng(seed)
    names = list(_SUITE_FUNCS) if suite == "all" else [suite]
    checks = []
    for name in names:
        checks.extend(_SUITE_FUNCS[name](rs, rng, samples=samples))
    return VerificationReport(
        n=n,
        seed=seed,
        suite=suite,
        checks=checks,
        root_sets=root_sets_to_dict(rs),
        timing=time.monotonic() - t0,
    )
