"""Output checks owned by the benchmark.

Each check tests a property the method must have, with numpy alone where
the property allows it, never a stored copy of an earlier output.  A check
returns a list of problems; an empty list means the output is correct.

Tolerances follow a first-order backward-error model with unit roundoff
u = 2.2e-16 and a safety factor SAFETY (see README.md):
  commutation  ||BA - AB||_F <= SAFETY * N * u * ||B||_F ||A||_F
  determinant  |det B - 1|   <= SAFETY * N * u * cond(B)
  coefficients |c - c_ref|   <= SAFETY * N * u * cond_eig * max(1, |s|)^N
"""

import json
import re

import numpy as np

U = np.finfo(float).eps
SAFETY = 1e4


def params_from_poly(coeffs_desc, n):
    """Section parameters from descending monic coefficients (paper convention).

    Odd rank reads s_i as the coefficient of lambda^i in the ascending list;
    even rank flips the sign of every other one, as in stokes_params_of.
    """
    asc = np.asarray(coeffs_desc, dtype=complex)[::-1]
    if n % 2 == 1:
        return asc[1 : n + 1]
    return np.array([(-1.0) ** (i + 1) * asc[i] for i in range(1, n + 1)])


def _coeff_tol(M, s):
    n = M.shape[0] - 1
    _, V = np.linalg.eig(M)
    return SAFETY * (n + 1) * U * np.linalg.cond(V) * max(1.0, float(np.max(np.abs(s)))) ** (n + 1)


def check_root_sets(rs, n, rng, points=3):
    """Search result at rank n: two survivors, disjoint sets of total size n,
    the parameter round trip through the spectrum, and the power identity."""
    from ucgl.stokes import build_M, build_S

    problems = []
    if rs.survivor_count != 2:
        problems.append(f"n={n}: survivor_count {rs.survivor_count}, expected 2")
    if rs.R1 & rs.R1p:
        problems.append(f"n={n}: R1 and R1p intersect")
    if len(rs.R1) + len(rs.R1p) != n:
        problems.append(f"n={n}: |R1| + |R1p| = {len(rs.R1) + len(rs.R1p)}, expected {n}")
    sign = -1.0 if n % 2 == 1 else 1.0
    for _ in range(points):
        s = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        M = build_M(rs, s)
        back = params_from_poly(np.poly(np.linalg.eigvals(M)), n)
        err = float(np.max(np.abs(back - s)))
        if err > _coeff_tol(M, s):
            problems.append(f"n={n}: spectrum gives back s with error {err:.2e}")
        Mp = np.linalg.matrix_power(M, n + 1)
        S12 = build_S(rs, 1, s) @ build_S(rs, 2, s)
        rel = float(np.max(np.abs(Mp - sign * S12)) / max(1.0, np.max(np.abs(Mp))))
        if rel > 1e-9:
            problems.append(f"n={n}: power identity residual {rel:.2e}")
    return problems


def check_report(path, n, seed):
    """A verify report that the CLI wrote with exit code 0."""
    with open(path) as fh:
        rep = json.load(fh)
    problems = []
    if (rep["n"], rep["seed"], rep["suite"]) != (n, seed, "all"):
        problems.append(f"n={n}: report header {rep['n']}, {rep['seed']}, {rep['suite']}")
    if not rep["all_pass"]:
        problems.append(f"n={n}: exit code 0 but all_pass is false")
    if not rep["checks"]:
        problems.append(f"n={n}: report has no checks")
    for c in rep["checks"]:
        if c["pass"] != (c["max_residual"] < c["tol"]):
            problems.append(f"n={n}: {c['name']} pass flag disagrees with max_residual < tol")
    return problems


_TIMING = re.compile(rb'^\s*"timing": .*\n', re.MULTILINE)


def same_apart_from_timing(a, b):
    """Whether two report files are byte-identical once the timing line is dropped."""
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return _TIMING.sub(b"", fa.read()) == _TIMING.sub(b"", fb.read())


def check_point(n, s, B, A):
    """A sampled fixed-locus point: BA = AB and det B = 1 to a relative
    tolerance, and A's characteristic coefficients real, palindromic and
    equal to the drawn s."""
    problems = []
    N = n + 1
    comm = np.linalg.norm(B @ A - A @ B)
    if comm > SAFETY * N * U * np.linalg.norm(B) * np.linalg.norm(A):
        problems.append(f"n={n}: ||BA - AB|| = {comm:.2e}")
    det_err = abs(np.linalg.det(B) - 1.0)
    if det_err > SAFETY * N * U * np.linalg.cond(B):
        problems.append(f"n={n}: |det B - 1| = {det_err:.2e} at cond(B) = {np.linalg.cond(B):.2e}")
    got = params_from_poly(np.poly(np.linalg.eigvals(A)), n)
    tol = _coeff_tol(A, s)
    if np.max(np.abs(got.imag)) > tol or np.max(np.abs(got - got[::-1])) > tol:
        problems.append(f"n={n}: characteristic coefficients not real palindromic: {got}")
    if np.max(np.abs(got - s)) > tol:
        problems.append(f"n={n}: characteristic coefficients {got} differ from s {s}")
    return problems
