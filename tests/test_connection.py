import numpy as np
import pytest

from ucgl import connection
from ucgl.connection import (
    SYMMETRY_KINDS,
    TodaInput,
    alpha_coeff,
    alpha_symmetry_residual,
    build_W,
    random_antisymmetric_input,
)
from ucgl.core import structural_matrices
from ucgl.errors import PreconditionError
from ucgl.report import run_suite

#: the suite's tolerance on the relative symmetry residuals
TOL_ID = 1e-13


def test_build_W_values():
    st1 = structural_matrices(1)
    assert np.allclose(build_W(np.zeros(2)), st1.Pi)
    u = 0.37
    # direct multiplication: (e^{-w} Pi e^{w})_{01} = e^{w_1 - w_0}
    W = build_W(np.array([u, -u]))
    assert np.allclose(W, [[0, np.exp(-2 * u)], [np.exp(2 * u), 0]])
    W = build_W(np.array([-u, u]))
    assert np.allclose(W, [[0, np.exp(2 * u)], [np.exp(-2 * u), 0]])


def test_build_W_flip_identity():
    # Delta W^T Delta = W whenever w is anti-symmetric
    rng = np.random.default_rng(0)
    for n in (1, 2, 3):
        st_ = structural_matrices(n)
        w = rng.standard_normal(n + 1)
        w = 0.5 * (w - w[::-1])
        W = build_W(w)
        assert np.max(np.abs(st_.Delta @ W.T @ st_.Delta - W)) < 1e-14


def test_alpha_coeff_values():
    st1 = structural_matrices(1)
    inp = TodaInput(n=1, w=np.zeros(2), v=np.zeros(2), x=1.0, zeta=1.0)
    assert np.allclose(alpha_coeff(inp), -st1.Pi.T + st1.Pi)
    inp_i = TodaInput(n=1, w=np.zeros(2), v=np.zeros(2), x=1.0, zeta=1j)
    assert np.allclose(alpha_coeff(inp_i), st1.Pi.T + st1.Pi)


def test_alpha_coeff_linearity_in_pole_parts():
    rng = np.random.default_rng(4)
    inp = random_antisymmetric_input(2, rng)
    W = build_W(inp.w)
    z = inp.zeta
    res = (
        alpha_coeff(inp, zeta=2 * z)
        + (2 * z) ** -2 * W.T
        + (2 * z) ** -1 * np.diag(inp.v)
        - inp.x ** 2 * W
    )
    assert np.max(np.abs(res)) < 1e-12


def test_theta_real_exact_on_real_data():
    inp = TodaInput(n=2, w=np.array([0.3, 0.0, -0.3]), v=np.array([-0.1, 0.0, 0.1]),
                    x=1.2, zeta=0.8)
    assert alpha_symmetry_residual("theta_real", inp) == 0.0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_all_symmetries_random_inputs(n):
    rng = np.random.default_rng(100 + n)
    worst = 0.0
    for _ in range(100):
        inp = random_antisymmetric_input(n, rng)
        for kind in SYMMETRY_KINDS:
            worst = max(worst, alpha_symmetry_residual(kind, inp))
    assert worst < TOL_ID


def _broken_residual(inp):
    return max(alpha_symmetry_residual(k, inp, require_antisymmetric=False)
               for k in ("anti", "c_real"))


def test_negative_control_broken_antisymmetry():
    rng = np.random.default_rng(77)
    for n in (1, 2, 3):
        good = random_antisymmetric_input(n, rng)
        v = good.v.copy()
        v[0] += 1.0
        assert _broken_residual(TodaInput(n=n, w=good.w, v=v, x=1.1, zeta=0.6 + 0.3j)) > 1e-3
    # W ignores w -> w + c(1, ..., 1), and at n = 1 that shift takes any w to
    # an anti-symmetric one, so a defect in w alone is invisible there
    good = random_antisymmetric_input(1, rng)
    w = good.w + np.array([1.0, 0.0])
    assert _broken_residual(TodaInput(n=1, w=w, v=good.v, x=1.1, zeta=0.6 + 0.3j)) < 1e-12


@pytest.mark.parametrize("n,seed", [(2, 52), (3, 190), (5, 125), (6, 125)])
def test_symmetries_at_former_round_off_failures(n, seed):
    """Absolute residuals reached 1.5e-11 (cyclic, n = 2 seed 52) and 1.5e-10 and
    5.8e-11 (cyclic and c_real, n = 5 seed 125) against 1e-11, where max|alpha|
    is large; relative to it they are round-off."""
    rep = run_suite({"n": n, "suite": "connection", "seed": seed, "samples": 100})
    assert rep.all_passed, [c.to_dict() for c in rep.checks if not c.passed]
    assert max(c.max_residual for c in rep.checks if "symmetry" in c.name) < 1e-14


def test_relative_residual_scale(monkeypatch):
    """The residual divides by the larger side's largest entry, and a zero
    coefficient, which has no scale, gives NaN."""
    inp = random_antisymmetric_input(2, np.random.default_rng(8))
    v = inp.v.copy()
    v[0] += 1.0
    broken = TodaInput(n=2, w=inp.w, v=v, x=inp.x, zeta=inp.zeta)
    st_ = structural_matrices(2)
    lhs = -st_.Delta @ alpha_coeff(broken).T @ st_.Delta
    rhs = -alpha_coeff(broken, zeta=-broken.zeta)
    expected = np.max(np.abs(lhs - rhs)) / max(np.max(np.abs(lhs)), np.max(np.abs(rhs)))
    assert alpha_symmetry_residual("anti", broken, require_antisymmetric=False) == expected
    monkeypatch.setattr(connection, "alpha_coeff", lambda inp, zeta=None: np.zeros((3, 3)))
    assert np.isnan(alpha_symmetry_residual("anti", inp))


def test_negative_control_rank_one_seed_11():
    """At n = 1, seed 11 (samples=100) the control once drew v_0 + v_1 = -2.9e-4
    beside a w defect it could not see, and observed 3.9e-4 < 1e-3."""
    rep = run_suite({"n": 1, "suite": "connection", "seed": 11, "samples": 100})
    control = {c.name: c for c in rep.checks}["connection.negative_control"]
    assert control.passed, control.details


def test_precondition_enforced():
    inp = TodaInput(n=1, w=np.array([1.0, 0.5]), v=np.zeros(2), x=1.0, zeta=1.0)
    with pytest.raises(PreconditionError):
        alpha_symmetry_residual("cyclic", inp)
    with pytest.raises(PreconditionError):
        alpha_symmetry_residual("bogus", random_antisymmetric_input(1, np.random.default_rng(0)))
    with pytest.raises(PreconditionError):
        TodaInput(n=1, w=np.zeros(2), v=np.zeros(2), x=1.0, zeta=0.0)
