"""Verification suites and report assembly.

Each suite runs the property checks of one module at a configured rank and
seed and returns named checks with residuals and tolerances.  A suite is
trial functions of the sample count plus a tolerance table.  A trial first
draws its inputs from the suite's generator, one array call per kind (all
the samples' s through groupoid.random_points or random_slocal_points or
one rand_s or semisimple_s call, then all their sampler seeds in one
draw_seed call, and so on), and then evaluates every sample at once on
stacks (of points, see involutions.GroupoidPoint, or of connection
inputs), returning under each name an array whose first axis is the
sample.  A check's residual is the largest of its entries (_max_checks); a
negative control's is max(0, threshold - smallest observation) (_control),
zero when the control misbehaves as it should.  A NaN propagates through
both and so fails.

Each suite draws from its own generator, seeded by the child of
SeedSequence(seed) that belongs to the suite's name, so a (config, seed)
pair draws the same samples every time, and a suite run alone draws what
it draws inside 'all': checks, sample counts, tolerances and residuals
repeat, byte for byte on one machine, within one process and across
processes; only the report's timing changes.
"""

import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import bondal as bd
from .connection import (
    _random_antisymmetric_inputs,
    alpha_symmetry_residual,
    TodaInput,
    SYMMETRY_KINDS,
)
from .core import char_poly, determinant, expm, identity, inverse, is_regular, max_abs, modulus
from .errors import UcglError
from .groupoid import (
    centralizer_basis,
    combine,
    commuting_point,
    draw_seed,
    fiber_vector,
    groupoid_compose,
    groupoid_inverse,
    horizontal_vector_at_unit,
    make_pair,
    random_points,
    random_slocal_points,
    sample_slocal_fiber,
    tangent_residual,
    tangent_space,
    unit,
)
from .involutions import (
    apply_sigma,
    apply_theta,
    point_distance,
    sigma_route_gap,
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

    def to_dict(self):
        return {
            "n": self.n,
            "seed": self.seed,
            "suite": self.suite,
            "checks": [c.to_dict() for c in sorted(self.checks, key=lambda c: c.name)],
            "root_sets": self.root_sets,
            "all_pass": self.all_passed,
            "timing": self.timing,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

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
        lines += ["", f"All pass: {'yes' if self.all_passed else 'NO'}"]
        return "\n".join(lines)


def _max_checks(runs, tols):
    """One Check per name of the tolerance table, from its largest residual
    (a trial may return several under one name; np.max propagates a NaN)."""
    return [Check(name, len(runs[name]), float(np.max(runs[name])), tol)
            for name, tol in tols.items()]


def _control(runs, name, threshold, tol, key="min_observed", **details):
    """A negative control from its smallest observation: residual max(0, threshold - min)."""
    low = float(np.min(runs[name]))
    return Check(name, len(runs[name]), float(np.maximum(0.0, threshold - low)), tol,
                 details={key: low, **details})


def _columns(*residuals):
    """Per-sample residual arrays side by side, one row per sample."""
    return np.stack(residuals, axis=1)


def _compose(rs, p, q):
    return groupoid_compose(rs, make_pair(p, q))


# ---------------------------------------------------------------------------
# suites: trial functions plus a tolerance table


def connection_symmetries(rs, rng, count):
    """The four coefficient symmetries at count anti-symmetric inputs."""
    inp = _random_antisymmetric_inputs(rs.n, rng, count)
    return {f"connection.symmetry_{k}": alpha_symmetry_residual(k, inp) for k in SYMMETRY_KINDS}


def connection_control(rs, rng, count):
    """count inputs with anti-symmetry broken: the anti and c_real identities
    must fail.  A defect in w alone can be invisible (W ignores a constant
    shift of w, so at n = 1 it is), but anti reads v_0 + v_n directly, here 1."""
    good = _random_antisymmetric_inputs(rs.n, rng, count)
    v = good.v.copy()
    v[:, 0] += 1.0
    inp = TodaInput(n=rs.n, w=good.w, v=v, x=np.full(count, 1.1), zeta=np.full(count, 0.7 + 0.2j))
    return {"connection.negative_control": np.maximum(*[
        alpha_symmetry_residual(k, inp, require_antisymmetric=False) for k in ("anti", "c_real")])}


def suite_connection(rs, rng, samples):
    runs = connection_symmetries(rs, rng, samples) | connection_control(rs, rng, max(5, samples // 10))
    # relative residuals: measured <= 3.0e-15 at samples=100, seeds 0..199, n = 1..6,
    # a 33x margin; the control's smallest observation there is 1.7e-2, 17x its threshold
    return _max_checks(runs, {f"connection.symmetry_{k}": 1e-13 for k in SYMMETRY_KINDS}) + [
        _control(runs, "connection.negative_control", 1e-3, 1e-9)]


def stokes_section(rs, rng, count):
    """Round trip, regularity, power identity and factor routes at count random s."""
    n = rs.n
    s = rand_s(rng, (count, n))
    M = build_M(rs, s)
    Mp = np.linalg.matrix_power(M, n + 1)
    S12 = build_S(rs, 1, s) @ build_S(rs, 2, s)
    sign = -1.0 if n % 2 == 1 else 1.0
    return {
        "stokes.round_trip": np.abs(stokes_params_of(M) - s).max(axis=-1),
        "stokes.regularity": (~is_regular(M)).astype(float),
        "stokes.power_identity": max_abs(Mp - sign * S12) / np.maximum(1.0, max_abs(Mp)),
        "stokes.factor_route_agreement": _columns(*[
            max_abs(build_Q(rs, k, s) - build_Q(rs, k, s, route="shift"))
            for k in range(n + 1, 3 * (n + 1))]),
    }


def stokes_chains(rs, rng, count):
    """Palindromic s make consecutive factors inverse-transposes, generic s do not."""
    n = rs.n
    sp, sg = rand_palindromic_s(rng, (count, n)), rand_s(rng, (count, n))

    def chain(s):
        # k = 1 and k = 1 + 1/(n+1); k+1 adds n+1
        return _columns(*[
            max_abs(build_Q(rs, k + n + 1, s) - np.swapaxes(inverse(build_Q(rs, k, s)), -1, -2))
            for k in (n + 1, n + 2)])

    return {"stokes.antisymmetry_equivalence": chain(sp),
            "stokes.antisymmetry_negative_control": chain(sg).max(axis=1)}


def suite_stokes(rs, rng, samples):
    runs = stokes_section(rs, rng, samples) | stokes_chains(rs, rng, max(10, samples // 5))
    checks = _max_checks(runs, {
        "stokes.round_trip": 1e-10,
        "stokes.regularity": 0.5,
        "stokes.power_identity": 1e-9,
        "stokes.factor_route_agreement": 1e-13,
        "stokes.antisymmetry_equivalence": 1e-10,
    })
    if rs.n > 1:  # at rank 1 the palindromic condition is vacuous
        checks.append(_control(runs, "stokes.antisymmetry_negative_control", 1e-3, 1e-9))
    return checks


def involution_laws(rs, rng, count):
    """The batched laws trial of suite_involutions: count samples of involutivity,
    commutation, base action and the morphism law of sigma and theta."""
    p = random_points(rs, rng, count)
    sp, tp = apply_sigma(rs, p), apply_theta(rs, p)
    q = commuting_point(rs, p.base, draw_seed(rng, count))  # a composable partner
    pq = _compose(rs, p, q)
    return {
        "involutions.involutivity": _columns(point_distance(apply_sigma(rs, sp), p),
                                             point_distance(apply_theta(rs, tp), p)),
        "involutions.commutation": point_distance(apply_sigma(rs, tp), apply_theta(rs, sp)),
        "involutions.base_parameter_action": _columns(
            np.max(np.abs(sp.s - p.s[:, ::-1]), axis=1),
            np.max(np.abs(tp.s - np.conj(p.s[:, ::-1])), axis=1)),
        "involutions.groupoid_morphism": _columns(*[
            point_distance(f(rs, pq), _compose(rs, fp, f(rs, q)))
            for f, fp in ((apply_sigma, sp), (apply_theta, tp))
        ]),
        "involutions.sigma_route_agreement": sigma_route_gap(rs, p, sp),
    }


def real_char_poly(rs, rng, count):
    """Fixed-locus points (count of them) have B with real characteristic
    polynomial, and B conj(B) = I, relative to max(1, |B|_2^2)."""
    B = random_slocal_points(rs, rng, count).B
    c = char_poly(B)
    return {"involutions.fixed_point_char_poly_real": np.abs(c.imag).max(axis=-1) / np.abs(c).max(axis=-1),
            "involutions.fixed_point_c_reality": max_abs(B @ np.conj(B) - identity(rs.n + 1))
            / np.maximum(1.0, np.linalg.norm(B, 2, axis=(-2, -1)) ** 2)}


def suite_involutions(rs, rng, samples):
    runs = involution_laws(rs, rng, samples) | real_char_poly(rs, rng, max(5, samples // 10))
    return _max_checks(runs, {
        "involutions.involutivity": 1e-9,
        "involutions.commutation": 1e-9,
        "involutions.base_parameter_action": 1e-10,
        "involutions.groupoid_morphism": 1e-9,
        # relative; the laws draws at seeds 0..39 (samples=30) and the 16
        # verify seeds (samples=100), and 2,000 further random points per rank,
        # read at most 6.8e-14 / 9.8e-13 / 8.0e-13 / 7.7e-11 at n = 1..3 / 4 /
        # 5 / 6: over a decade under the bound at n = 6, three decades below it
        "involutions.sigma_route_agreement": 1e-9,
        "involutions.fixed_point_char_poly_real": 1e-9,
        # over 400 fixed-locus points per rank (40 seeds x 10) the largest is
        # 6.4e-16 / 2.9e-15 / 2.9e-15 / 7.3e-14 / 2.1e-14 / 1.6e-12 at n = 1..6,
        # and 5.6e-13 at n = 6 over 200 draws at rng 100 + n: over a decade
        # under the bound; over 200 random points per rank the smallest is 2.8e-2
        "involutions.fixed_point_c_reality": 1e-10,
    })


def groupoid_axioms(rs, rng, count):
    """The batched axioms trial of suite_groupoid: count samples of associativity,
    unit and inverse laws, and of the sampler's own invariants."""
    p1 = random_points(rs, rng, count)
    p2, p3 = (commuting_point(rs, p1.base, seeds) for seeds in draw_seed(rng, (2, count)))
    u = unit(rs, p1.base)
    return {
        # associativity, unit, inverse
        "groupoid.axioms": _columns(
            point_distance(_compose(rs, _compose(rs, p1, p2), p3),
                           _compose(rs, p1, _compose(rs, p2, p3))),
            point_distance(_compose(rs, p1, u), p1),
            point_distance(_compose(rs, p1, groupoid_inverse(rs, p1)), u),
        ),
        "groupoid.sampler_membership": _columns(max_abs(p1.B @ p1.A - p1.A @ p1.B),
                                                modulus(determinant(p1.B) - 1.0)),
    }


def slocal_fiber(rs, rng, count):
    """Sampled fixed-locus points (count of them) pass slocal_membership at 1e-8."""
    member = slocal_membership(rs, random_slocal_points(rs, rng, count), tol=1e-8)["fixed_route"]
    return {"groupoid.slocal_fiber_membership": (~member).astype(float)}


def tangent_constraints(rs, rng, count):
    """tangent_residual of tangent_space's frame at count random points."""
    p = random_points(rs, rng, count)
    return {"groupoid.tangent_constraints": tangent_residual(p, tangent_space(rs, p)[0])}


def suite_groupoid(rs, rng, samples):
    runs = (groupoid_axioms(rs, rng, samples) | slocal_fiber(rs, rng, max(5, samples // 5))
            | tangent_constraints(rs, rng, max(5, samples // 10)))
    return _max_checks(runs, {
        "groupoid.axioms": 1e-10,
        "groupoid.sampler_membership": 1e-10,
        "groupoid.slocal_fiber_membership": 0.5,
        # over 2,400 random points per rank the largest is 7.0e-14 / 1.3e-13 /
        # 1.8e-13 / 1.1e-12 / 4.5e-12 / 9.5e-12 at n = 1..6: a decade under
        "groupoid.tangent_constraints": 1e-10,
    })


def unit_blocks(rs, rng, count):
    """The batched unit-oracle trial of suite_symplectic: count samples of the
    four-block closed form of omega at units, and of its zero on the base,
    which omega's formula gives on any (0, Y) pair (every term of _K has an
    x = g^{-1} X factor): it tests only horizontal_vector_at_unit's zero B-slot."""
    n = rs.n
    # per sample: s, then the coefficients of uF and vF over the commutant
    # basis, then the base velocities of uH and vH, each as rand_s draws it
    x = rng.standard_normal((count, 5, 2, n))
    draws = x[..., 0, :] + 1j * x[..., 1, :]
    u0 = unit(rs, build_M(rs, draws[:, 0]))
    E = centralizer_basis(u0.base)
    uF, vF = (fiber_vector(u0, combine(draws[:, k], E)) for k in (1, 2))
    uH, vH = np.moveaxis(horizontal_vector_at_unit(rs, u0, draws[:, 3:]), 1, 0)
    U, V = np.stack([uF, uH], axis=1), np.stack([vF, vH], axis=1)
    # the blocks (F, F), (F, H), (H, F), (H, H), one Gram per sample
    w = omega_gram(u0.B, u0.A, U, V)
    oracle = unit_block_values(u0.A[:, None, None], U[:, :, None], V[:, None])
    return {
        "symplectic.unit_block_oracle": modulus(w - oracle).reshape(count, 4),
        "symplectic.unit_pullback_zero": modulus(w[:, 1, 1]),  # the (H, H) block
    }


def multiplicative(rs, rng, count):
    """Multiplicativity at count composable pairs, over full composable tangent bases."""
    p = random_points(rs, rng, count)
    pair = make_pair(p, commuting_point(rs, p.base, draw_seed(rng, count)))
    return {"symplectic.multiplicativity":
            multiplicativity_residual(rs, pair, composable_tangent_basis(rs, pair))}


def closedness(rs, rng, count):
    """Closedness at count random points, exact on the first-order tangent frame."""
    return {"symplectic.closedness": closedness_residual(rs, random_points(rs, rng, count))}


def nondegeneracy(rs, rng, count):
    """Nondegeneracy over well-separated spectra at count points: units at even
    sample indices, random points at odd ones."""
    # unit builds a fresh B: the random points' rows are written in place
    p = unit(rs, build_M(rs, semisimple_s(rs, rng, count)))
    p.B[1::2] = commuting_point(rs, p.base[1::2], draw_seed(rng, count // 2)).B
    return {"symplectic.nondegeneracy": gram_matrix(p, tangent_space(rs, p)[0])[1]}


def pullbacks(rs, rng, count):
    """Involution pullbacks at count units and count random points."""
    # one stack: the units, then the random points over their own bases (unit
    # builds a fresh B, so their rows are written in place)
    p = unit(rs, build_M(rs, rand_s(rng, (2 * count, rs.n))))
    p.B[count:] = commuting_point(rs, p.base[count:], draw_seed(rng, count)).B
    res = involution_pullback_residual(rs, p)
    return {"symplectic.pullback_units": res[:count], "symplectic.pullback_random": res[count:]}


def integrable(rs, rng, count):
    """The integrable-system structure at count random points over well-separated spectra."""
    p = commuting_point(rs, build_M(rs, semisimple_s(rs, rng, count)), draw_seed(rng, count))
    E = centralizer_basis(p.base)
    # the coefficients of uF and vF over the commutant basis
    uF, vF = (fiber_vector(p, combine(c, E)) for c in rand_s(rng, (2, count, rs.n)))
    U, sdot = tangent_space(rs, p)
    return {
        "symplectic.poisson_brackets": poisson_bracket_residual(rs, p, U, sdot),
        "symplectic.fiber_isotropy": modulus(omega(p, uF, vF)),
        "symplectic.type_two_zero": type_20_residual(p, U),
    }


def real_form(rs, rng, count):
    """The real sub-form on involution-fixed tangents at count fixed-locus points."""
    rep = real_form_checks(rs, random_slocal_points(rs, rng, count))
    return {"symplectic.real_form_re_omega": rep["re_omega_residual"],
            "symplectic.real_form_omega2": rep["omega2_min_singular"],
            "symplectic.real_form_fixed_gap": rep["fixed_gap"]}


def suite_symplectic(rs, rng, samples):
    n = rs.n
    few = max(5, samples // 10)
    runs = unit_blocks(rs, rng, 2 * samples) | multiplicative(rs, rng, max(10, samples // 2))
    # at n = 1 the real frame spans one complex plane, on which every complex
    # alternating 3-form vanishes: closedness could not fail, so it is not drawn
    if n >= 2:
        runs |= closedness(rs, rng, max(3, samples // 10))
    runs |= (nondegeneracy(rs, rng, few) | pullbacks(rs, rng, 3) | integrable(rs, rng, few)
             | real_form(rs, rng, 3))
    return _max_checks(runs, {
        "symplectic.unit_block_oracle": 1e-11,
        "symplectic.unit_pullback_zero": 1e-12,
        "symplectic.multiplicativity": 1e-8,
        **({"symplectic.closedness": 1e-4 if n == 2 else 1e-3} if n >= 2 else {}),
        "symplectic.pullback_units": 1e-9,
        "symplectic.pullback_random": 1e-5,
        **({"symplectic.poisson_brackets": 1e-5} if n >= 2 else {}),
        "symplectic.fiber_isotropy": 1e-9,
        "symplectic.type_two_zero": 1e-10,
        "symplectic.real_form_re_omega": 1e-8,
        # measured <= 2.5e-12 on 200 fixed-locus points per rank at n = 1..5 and
        # >= 2.2e-3 at random points: over four decades of margin either side
        "symplectic.real_form_fixed_gap": 1e-7,
    }) + [
        _control(runs, "symplectic.nondegeneracy", 1e-6, 1e-12, key="min_singular"),
        _control(runs, "symplectic.real_form_omega2", 1e-7, 1e-12, key="min_singular"),
    ]


def bondal_axioms(rs, rng, count):
    """Axioms on count orthogonal-over-identity triples, plus sign-diagonal probes."""
    N = rs.n + 1
    I = identity(N)
    # per sample: the generators of p1, p2, p3 (expm of their antisymmetric
    # parts), then the strict upper part of a non-identity base; real parts
    # before imaginary parts, one matrix after another, as in one-matrix draws
    x = rng.standard_normal((count, 4, 2, N, N))
    G = x[..., 0, :, :] + 1j * x[..., 1, :, :]
    S = G[:, :3]
    O = expm(0.5 * (S - np.swapaxes(S, -1, -2)))
    p1, p2, p3 = (bd.make_bondal_point(O[:, i], I, tol=1e-8) for i in range(3))
    # a non-identity base with a sign-diagonal arrow
    q = bd.make_bondal_point(np.diag([1.0] * (N - 1) + [(-1.0) ** (N - 1)]),
                             np.triu(G[:, 3], 1) + I, tol=1e-8)
    return {"bondal.axioms": _columns(
        max_abs(bd.compose(bd.compose(p1, p2), p3).B - bd.compose(p1, bd.compose(p2, p3)).B),
        max_abs(bd.compose(p1, bd.unit(bd.source(p1))).B - p1.B),
        max_abs(bd.compose(q, bd.unit(q.A)).B - q.B),
    )}


def bondal_embedding(rs, rng, count):
    """The embedding intertwines composition and bases, at count fixed-locus pairs."""
    p = random_slocal_points(rs, rng, count)
    q = sample_slocal_fiber(rs, p.base, draw_seed(rng, count))
    e1, e2, epq = (bd.embed_slocal(rs, x) for x in (p, q, _compose(rs, p, q)))
    comp = bd.compose(e1, e2, tol=1e-7)
    return {"bondal.embedding_intertwines": _columns(max_abs(comp.B - epq.B),
                                                     max_abs(comp.A - epq.A))}


def suite_bondal(rs, rng, samples):
    runs = bondal_axioms(rs, rng, samples) | bondal_embedding(rs, rng, max(10, samples // 5))
    return _max_checks(runs, {"bondal.axioms": 1e-10, "bondal.embedding_intertwines": 1e-9})


_SUITE_FUNCS = {
    "connection": suite_connection,
    "stokes": suite_stokes,
    "involutions": suite_involutions,
    "groupoid": suite_groupoid,
    "symplectic": suite_symplectic,
    "bondal": suite_bondal,
}
SUITES = tuple(_SUITE_FUNCS)


def _setting(config, key, kind, default=None):
    """config[key], or default when it is absent, converted by kind.

    A bool, or a number that kind would change (2.7 as an int), is refused
    rather than truncated.
    """
    value = config.get(key, default)
    try:
        converted = kind(value)
    except (TypeError, ValueError, OverflowError):
        converted = None
    if converted is None or isinstance(value, bool) or (
        isinstance(value, float) and converted != value
    ):
        raise UcglError(f"config key {key!r} must be {kind.__name__}, got {value!r}")
    return converted


def run_suite(config):
    """Run one suite (or 'all') and assemble a VerificationReport.

    config keys: n (required), suite (default 'all'), seed (default 42, at
    least 0), samples (default 100, at least 1); other keys are ignored.  A
    suite that raises a UcglError, or a numpy LinAlgError (an SVD that does
    not converge on a NaN matrix, say), is recorded as one failed check
    '<suite>.error' (samples 0, the exception's type and message in details)
    and the remaining suites still run.
    """
    n = _setting(config, "n", int)
    suite = config.get("suite", "all")
    seed = _setting(config, "seed", int, 42)
    samples = _setting(config, "samples", int, 100)
    # SUITES, a tuple, compares without hashing: a list from a config file is
    # an unknown suite, not a TypeError
    if suite != "all" and suite not in SUITES:
        raise UcglError(f"unknown suite {suite!r}")
    if seed < 0:
        raise UcglError(f"seed must be at least 0, got {seed}")
    if samples < 1:
        raise UcglError(f"samples must be at least 1, got {samples}")
    t0 = time.monotonic()
    rs = derive_root_sets(n)
    streams = dict(zip(SUITES, np.random.SeedSequence(seed).spawn(len(SUITES))))
    names = SUITES if suite == "all" else [suite]
    checks = []
    for name in names:
        try:
            checks.extend(_SUITE_FUNCS[name](rs, np.random.default_rng(streams[name]),
                                             samples=samples))
        except (UcglError, np.linalg.LinAlgError) as exc:
            checks.append(Check(f"{name}.error", 0, 1.0, 0.5,
                                details={"type": type(exc).__name__, "message": str(exc)}))
    return VerificationReport(n=n, seed=seed, suite=suite, checks=checks,
                              root_sets=root_sets_to_dict(rs), timing=time.monotonic() - t0)
