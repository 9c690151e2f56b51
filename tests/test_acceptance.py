"""Acceptance gate: one test per shipped guarantee, each printing a pass/fail line.

Every test exercises the public API at the tolerance the package promises and
prints a single summary line (visible under ``pytest -s`` or in failure output)
before asserting.  Tolerances here are the contract; module tests probe deeper.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from ucgl.connection import SYMMETRY_KINDS, TodaInput, alpha_symmetry_residual, random_antisymmetric_input
from ucgl.core import inverse, is_regular
from ucgl.groupoid import (
    centralizer_basis,
    fiber_vector,
    groupoid_compose,
    groupoid_inverse,
    horizontal_vector_at_unit,
    make_pair,
    random_point,
    random_slocal_point,
    tangent_space,
    unit,
)
from ucgl.involutions import apply_sigma, apply_theta, point_distance
from ucgl.stokes import (
    build_M,
    build_Q,
    build_S,
    derive_root_sets,
    rand_palindromic_s,
    rand_s,
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
    poisson_bracket_residual,
    real_form_checks,
    unit_block_values,
)

NS = (1, 2, 3, 4)


def _line(num, label, ok, detail):
    tag = "PASS" if ok else "FAIL"
    msg = f"[{tag}] criterion {num:02d} {label}: {detail}"
    print(msg)
    return msg


def _rel_distance(p, q):
    """point_distance scaled by the magnitude of the reference point."""
    scale = max(1.0, float(np.max(np.abs(p.B))), float(np.max(np.abs(p.A))))
    return point_distance(p, q) / scale


def test_criterion_01_root_set_derivation(roots):
    timings = {}
    survivors = {}
    for n in NS:
        t0 = time.monotonic()
        rs = derive_root_sets(n, force=True)
        timings[n] = time.monotonic() - t0
        survivors[n] = rs.survivor_count
    rs1 = derive_root_sets(1)
    ok = (
        max(timings.values()) < 60.0
        and rs1.R1 == frozenset()
        and rs1.R1p == frozenset({(1, 0)})
    )
    msg = _line(1, "root-set derivation", ok,
                f"timings={ {k: round(v, 2) for k, v in timings.items()} }s, "
                f"survivors={survivors}, rank-1 result {sorted(rs1.R1p)}")
    assert ok, msg


def test_criterion_02_parameter_round_trip(roots):
    worst = 0.0
    regular = True
    rng = np.random.default_rng(2)
    for n in NS:
        rs = roots[n]
        for _ in range(100):
            s = rand_s(rng, n)
            M = build_M(rs, s)
            worst = max(worst, float(np.max(np.abs(stokes_params_of(M) - s))))
            regular = regular and is_regular(M)
    ok = worst < 1e-10 and regular
    msg = _line(2, "coefficient round trip", ok,
                f"max residual {worst:.2e} (tol 1e-10), all regular: {regular}")
    assert ok, msg


def test_criterion_03_power_identity(roots):
    worst = 0.0
    rng = np.random.default_rng(3)
    for n in NS:
        rs = roots[n]
        sign = -1.0 if n % 2 == 1 else 1.0
        for _ in range(100):
            s = rand_s(rng, n)
            Mp = np.linalg.matrix_power(build_M(rs, s), n + 1)
            S12 = build_S(rs, 1, s) @ build_S(rs, 2, s)
            worst = max(worst, float(np.max(np.abs(Mp - sign * S12))
                                     / max(1.0, float(np.max(np.abs(Mp))))))
    ok = worst < 1e-9
    msg = _line(3, "power factorization", ok, f"max relative residual {worst:.2e} (tol 1e-9)")
    assert ok, msg


def test_criterion_04_base_actions_and_palindromes(roots):
    rng = np.random.default_rng(4)
    rev = 0.0
    pal = 0.0
    neg_min = math.inf
    for n in NS:
        rs = roots[n]
        for _ in range(25):
            p = random_point(rs, rng)
            rev = max(rev, float(np.max(np.abs(apply_sigma(rs, p, tol=1e-7).s - p.s[::-1]))))
            rev = max(rev, float(np.max(np.abs(apply_theta(rs, p, tol=1e-7).s - np.conj(p.s[::-1])))))
            sp = rand_palindromic_s(rng, n)
            sg = rand_s(rng, n)
            chain_worst = 0.0
            for base_k in (n + 1, n + 2):
                pal = max(pal, float(np.max(np.abs(
                    build_Q(rs, base_k + n + 1, sp) - inverse(build_Q(rs, base_k, sp)).T))))
                if n > 1:
                    chain_worst = max(chain_worst, float(np.max(np.abs(
                        build_Q(rs, base_k + n + 1, sg) - inverse(build_Q(rs, base_k, sg)).T))))
            if n > 1:
                neg_min = min(neg_min, chain_worst)
    ok = rev < 1e-10 and pal < 1e-10 and neg_min > 1e-3
    msg = _line(4, "parameter reversal + palindromic equivalence", ok,
                f"reversal {rev:.2e}, palindromic {pal:.2e} (tol 1e-10), "
                f"generic control {neg_min:.2e} (> 1e-3)")
    assert ok, msg


def test_criterion_05_involutions(roots):
    rng = np.random.default_rng(5)
    worst = 0.0
    for n in NS:
        rs = roots[n]
        for _ in range(100):
            p = random_point(rs, rng)
            sg = lambda q: apply_sigma(rs, q, tol=1e-7)
            th = lambda q: apply_theta(rs, q, tol=1e-7)
            worst = max(worst, _rel_distance(p, sg(sg(p))))
            worst = max(worst, _rel_distance(p, th(th(p))))
            worst = max(worst, _rel_distance(sg(th(p)), th(sg(p))))
    ok = worst < 1e-9
    msg = _line(5, "involutivity and commutation", ok, f"max residual {worst:.2e} (tol 1e-9)")
    assert ok, msg


def test_criterion_06_groupoid_axioms_and_morphisms(roots):
    rng = np.random.default_rng(6)
    worst = 0.0
    for n in NS:
        rs = roots[n]
        for _ in range(100):
            s = rand_s(rng, n)
            A = build_M(rs, s)
            p1, p2, p3 = (random_point(rs, rng, A) for _ in range(3))
            lhs = groupoid_compose(rs, make_pair(groupoid_compose(rs, make_pair(p1, p2)), p3))
            rhs = groupoid_compose(rs, make_pair(p1, groupoid_compose(rs, make_pair(p2, p3))))
            worst = max(worst, _rel_distance(lhs, rhs))
            u = unit(rs, A)
            worst = max(worst, _rel_distance(groupoid_compose(rs, make_pair(p1, u)), p1))
            worst = max(worst, _rel_distance(
                groupoid_compose(rs, make_pair(p1, groupoid_inverse(rs, p1))), u))
            pq = groupoid_compose(rs, make_pair(p1, p2))
            sg = lambda q: apply_sigma(rs, q, tol=1e-7)
            th = lambda q: apply_theta(rs, q, tol=1e-7)
            worst = max(worst, _rel_distance(
                sg(pq), groupoid_compose(rs, make_pair(sg(p1), sg(p2)))))
            worst = max(worst, _rel_distance(
                th(pq), groupoid_compose(rs, make_pair(th(p1), th(p2)))))
    ok = worst < 1e-10
    msg = _line(6, "groupoid axioms + morphism laws", ok, f"max residual {worst:.2e} (tol 1e-10)")
    assert ok, msg


def test_criterion_07_unit_block_oracle(roots):
    rng = np.random.default_rng(7)
    blocks = eps_zero = 0.0
    for n in (1, 2, 3):
        rs = roots[n]
        for _ in range(200):
            A = build_M(rs, rand_s(rng, n))
            u0 = unit(rs, A)
            traceless = centralizer_basis(A)
            cf, ce = rand_s(rng, n), rand_s(rng, n)
            uF = fiber_vector(u0, sum(cf[j] * traceless[j] for j in range(n)))
            vF = fiber_vector(u0, sum(ce[j] * traceless[j] for j in range(n)))
            uH = horizontal_vector_at_unit(rs, u0, rand_s(rng, n))
            vH = horizontal_vector_at_unit(rs, u0, rand_s(rng, n))
            for a, b in ((uF, vF), (uH, vH), (uF, vH), (uH, vF)):
                blocks = max(blocks, abs(omega(u0, a, b) - unit_block_values(A, a, b)))
            eps_zero = max(eps_zero, abs(omega(u0, uH, vH)))
    ok = blocks < 1e-11 and eps_zero < 1e-12
    msg = _line(7, "unit-block closed forms", ok,
                f"block residual {blocks:.2e} (tol 1e-11), "
                f"unit pullback {eps_zero:.2e} (tol 1e-12)")
    assert ok, msg


def test_criterion_08_multiplicativity(roots):
    rng = np.random.default_rng(8)
    worst = 0.0
    t0 = time.monotonic()
    for n in (1, 2, 3):
        rs = roots[n]
        for _ in range(50):
            A = build_M(rs, rand_s(rng, n))
            p = random_point(rs, rng, A)
            q = random_point(rs, rng, A)
            pair = make_pair(p, q)
            basis = composable_tangent_basis(rs, pair)
            assert len(basis) == 3 * n
            worst = max(worst, multiplicativity_residual(rs, pair, basis))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-8 and elapsed < 60.0
    msg = _line(8, "multiplicativity of the 2-form", ok,
                f"max residual {worst:.2e} (tol 1e-8) in {elapsed:.1f}s (< 60s)")
    assert ok, msg


def test_criterion_09_closedness(roots):
    rng = np.random.default_rng(9)
    results = {}
    for n in (1, 2, 3):
        rs = roots[n]
        worst = 0.0
        for _ in range(20):
            p = random_point(rs, rng)
            worst = max(worst, closedness_residual(rs, p))
        results[n] = worst
    ok = results[1] < 1e-4 and results[2] < 1e-4 and results[3] < 1e-3
    msg = _line(9, "closedness (exact, all coordinate triples)", ok,
                f"residuals { {k: f'{v:.2e}' for k, v in results.items()} } "
                "(tol 1e-4 at ranks 1-2, 1e-3 at rank 3)")
    assert ok, msg


def test_criterion_10_nondegeneracy(roots):
    rng = np.random.default_rng(10)
    min_sing = math.inf
    for n in (1, 2, 3):
        rs = roots[n]
        for i in range(10):
            s = semisimple_s(rs, rng)
            A = build_M(rs, s)
            p = unit(rs, A) if i % 2 == 0 else random_point(rs, rng, A)
            U, _ = tangent_space(rs, p)
            min_sing = min(min_sing, gram_matrix(p, U)[1])
    ok = min_sing > 1e-6
    msg = _line(10, "nondegeneracy", ok, f"min Gram singular value {min_sing:.2e} (> 1e-6)")
    assert ok, msg


def test_criterion_11_involution_pullbacks(roots):
    rng = np.random.default_rng(11)
    at_units = at_random = 0.0
    for n in (1, 2, 3):
        rs = roots[n]
        for _ in range(2):
            u0 = unit(rs, build_M(rs, rand_s(rng, n)))
            p = random_point(rs, rng)
            for kind in ("sigma", "theta"):
                at_units = max(at_units, involution_pullback_residual(kind, rs, u0))
                at_random = max(at_random, involution_pullback_residual(kind, rs, p))
    ok = at_units < 1e-9 and at_random < 1e-5
    msg = _line(11, "involution pullbacks of the 2-form", ok,
                f"units {at_units:.2e} (tol 1e-9), random points {at_random:.2e} (tol 1e-5)")
    assert ok, msg


def test_criterion_12_real_subform(roots):
    rng = np.random.default_rng(12)
    re_res = gap = 0.0
    min_s2 = math.inf
    for n in NS:
        rs = roots[n]
        for _ in range(3):
            p = random_slocal_point(rs, rng)
            rep = real_form_checks(rs, p)
            re_res = max(re_res, rep["re_omega_residual"])
            min_s2 = min(min_s2, rep["omega2_min_singular"])
            gap = max(gap, rep["fixed_gap"])
    ok = re_res < 1e-8 and min_s2 > 1e-7 and gap < 1e-7
    msg = _line(12, "real sub-form on fixed tangents", ok,
                f"Re-form residual {re_res:.2e} (tol 1e-8), second-form min singular "
                f"{min_s2:.2e} (> 1e-7), fixed-space gap {gap:.2e} (tol 1e-7)")
    assert ok, msg


def test_criterion_13_integrable_system(roots):
    rng = np.random.default_rng(13)
    isotropy = poisson = 0.0
    dim_ok = True
    for n in (1, 2, 3):
        rs = roots[n]
        for _ in range(5):
            p = random_point(rs, rng, build_M(rs, semisimple_s(rs, rng)))
            U, sdot = tangent_space(rs, p)
            dim_ok = dim_ok and len(U) == 2 * n
            traceless = centralizer_basis(p.A)
            cf, ce = rand_s(rng, n), rand_s(rng, n)
            uF = fiber_vector(p, sum(cf[k] * traceless[k] for k in range(n)))
            vF = fiber_vector(p, sum(ce[k] * traceless[k] for k in range(n)))
            isotropy = max(isotropy, abs(omega(p, uF, vF)))
            poisson = np.max(poisson_bracket_residual(rs, p, U, sdot), initial=poisson)
    ok = dim_ok and isotropy < 1e-9 and poisson < 1e-5
    msg = _line(13, "integrable-system structure", ok,
                f"tangent dims 2n: {dim_ok}, "
                f"fiber isotropy {isotropy:.2e} (tol 1e-9), "
                f"Poisson residual {poisson:.2e} (tol 1e-5)")
    assert ok, msg


def test_criterion_14_connection_symmetries():
    rng = np.random.default_rng(14)
    worst = 0.0
    neg_min = math.inf
    for n in NS:
        for _ in range(100):
            inp = random_antisymmetric_input(n, rng)
            for kind in SYMMETRY_KINDS:
                worst = max(worst, alpha_symmetry_residual(kind, inp))
        for _ in range(10):
            # the suite's control: a defect in w alone is invisible at n = 1
            good = random_antisymmetric_input(n, rng)
            v = good.v.copy()
            v[0] += 1.0
            inp = TodaInput(n=n, w=good.w, v=v, x=1.1, zeta=0.7 + 0.2j)
            neg_min = min(neg_min, max(
                alpha_symmetry_residual("anti", inp, require_antisymmetric=False),
                alpha_symmetry_residual("c_real", inp, require_antisymmetric=False)))
    ok = worst < 1e-13 and neg_min > 1e-3
    msg = _line(14, "connection symmetries", ok,
                f"max relative residual {worst:.2e} (tol 1e-13), "
                f"negative control {neg_min:.2e} (> 1e-3)")
    assert ok, msg


def test_criterion_15_reality_experiment(roots):
    rng = np.random.default_rng(15)
    fractions = {}
    for n in NS:
        rs = roots[n]
        hits = 0
        for _ in range(100):
            p = random_slocal_point(rs, rng)
            if np.max(np.abs(p.B @ np.conj(p.B) - np.eye(n + 1))) < 1e-8:
                hits += 1
        fractions[n] = hits / 100
    # reported, not asserted: the observed fraction is the experiment's outcome
    _line(15, "reality experiment (reported)", True,
          f"fraction of sampled points with B*conj(B)=I: {fractions} (expected all 1.0)")


def test_criterion_16_end_to_end_cli(tmp_path):
    outs = []
    t0 = time.monotonic()
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "ucgl.cli", "verify", "--n", "2", "--suite", "all",
             "--seed", "42", "--out", str(out)],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        data = json.loads(out.read_text())
        data.pop("timing", None)
        outs.append(json.dumps(data, sort_keys=True))
    elapsed = time.monotonic() - t0
    ok = outs[0] == outs[1] and elapsed < 300.0
    msg = _line(16, "end-to-end command line run", ok,
                f"two full rank-2 runs in {elapsed:.1f}s (< 300s), "
                f"reports byte-identical after removing timing: {outs[0] == outs[1]}")
    assert ok, msg
