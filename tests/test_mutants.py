"""Every reported check can fail: one named mutant per check.

A mutant is one small edit to the source of one function of the package:
the text `old` replaced by `new`, compiled in the function's own module and
monkeypatched in wherever the package binds that function.  Each row runs
only its check's suite (samples=5, seed 42) at n = 2 and 3, or at the
ranks ONLY_AT names, and asserts that the named check is reported and
fails; a `<suite>.error` does not count.  The completeness test keeps the
table's names equal to the checks run_suite reports, so a new check lands with a
row here.  This is mutation testing in the manner of DeMillo, Lipton and
Sayward ("Hints on test data selection", IEEE Computer 11(4), 1978).
"""

import importlib
import inspect
import sys

import pytest

from ucgl.errors import SearchFailureError
from ucgl.report import run_suite
from ucgl.stokes import derive_root_sets

#: F_sigma moves with s at even rank and F_theta at odd rank, so each row runs at one of each
RANKS = (2, 3)

#: rows that run at fewer ranks, and why
ONLY_AT = {
    # at odd rank sigma conjugates by F_sigma itself, so a wrong F_sigma makes
    # apply_sigma raise there before the route check is read; at even rank
    # sigma builds no F, and the route check is what reads F_sigma
    "involutions.sigma_route_agreement": (2,),
}

#: check -> (function as module.name, old text, new text)
MUTANTS = {
    "connection.symmetry_cyclic": (
        "connection.alpha_coeff", "c2 * np.swapaxes(W, -1, -2)", "c2 * W"),
    "connection.symmetry_anti": (
        "connection.build_W", "np.exp(w)[..., None, :]", "np.exp(-w)[..., None, :]"),
    "connection.symmetry_c_real": (
        "connection.alpha_coeff", "[x ** 2 for x in", "[x for x in"),
    "connection.symmetry_theta_real": (
        "connection.alpha_coeff", "+ x2 * W", "+ 1j * x2 * W"),
    # a vanishing coefficient satisfies every identity, anti-symmetric or not
    "connection.negative_control": (
        "connection.alpha_coeff",
        "return c2 * np.swapaxes(W, -1, -2) - c1 * (inp.v[..., None] * identity(inp.n + 1))"
        " + x2 * W", "return 0 * W"),
    "stokes.round_trip": (
        "stokes.stokes_params_of", "char_poly(A)[..., 1 : n + 1]", "char_poly(A)[..., 0:n]"),
    "stokes.regularity": ("core.powers_qr", "axis=-1) == N)", "axis=-1) > N)"),
    "stokes.power_identity": (
        "stokes.build_S", "range(m * N, m * N + N)", "range(m * N, m * N + N - 1)"),
    "stokes.factor_route_agreement": (
        "stokes.build_Q", "Pm @ Q0 @ Pm.T", "Pm.T @ Q0 @ Pm"),
    "stokes.antisymmetry_equivalence": (
        "stokes.rand_palindromic_s", "half[..., : n // 2][..., ::-1]",
        "-half[..., : n // 2][..., ::-1]"),
    "stokes.antisymmetry_negative_control": (
        "stokes.rand_s", "return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)",
        "return rand_palindromic_s(rng, shape)"),
    # sigma(B)^2: sigma applied twice gives B^4
    "involutions.involutivity": (
        "involutions.apply_sigma", "make_point(rs, B2, A2, tol)",
        "make_point(rs, B2 @ B2, A2, tol)"),
    # a root of unity keeps det B = 1 and sigma involutive, but conj moves it
    "involutions.commutation": (
        "involutions.apply_sigma", "make_point(rs, B2, A2, tol)",
        "make_point(rs, np.exp(2j * np.pi / B2.shape[-1]) * B2, A2, tol)"),
    "involutions.base_parameter_action": (
        "involutions.apply_sigma", "return make_point(rs, B2, A2, tol)", "return p"),
    "involutions.sigma_route_agreement": (
        "involutions.F_sigma", "return np.swapaxes(build_S(rs, 1, s), -1, -2)",
        "return build_S(rs, 1, s)"),
    "involutions.groupoid_morphism": (
        "involutions.apply_theta", "B2 = G @ np.conj(p.B) @ Gi",
        "B2 = G @ np.conj(p.B) @ inverse(np.conj(p.A)) @ Gi"),
    "involutions.fixed_point_char_poly_real": (
        "groupoid.sample_slocal_fiber", "eta = 0.5 * (xi + G @ np.conj(xi) @ Gi)",
        "eta = xi"),
    # theta-fixed points that sigma does not fix
    "involutions.fixed_point_c_reality": (
        "groupoid.sample_slocal_fiber", "xi = xi - F @ np.swapaxes(xi, -1, -2) @ Fi",
        "xi = xi"),
    "groupoid.axioms": (
        "groupoid.groupoid_inverse", "make_point(rs, inverse(p.B), p.base)",
        "make_point(rs, p.B, p.base)"),
    # inside make_point's 1e-7 acceptance, outside the check's 1e-10
    "groupoid.sampler_membership": (
        "groupoid.sample_commuting", "return expm(_commutant_element(A, seed))",
        "return expm(_commutant_element(A, seed)) * (1 + 1e-10)"),
    "groupoid.slocal_fiber_membership": (
        "groupoid.sample_slocal_fiber", "xi = xi - F @ np.swapaxes(xi, -1, -2) @ Fi",
        "xi = xi"),
    # lifts off the trace constraint; the bracket still holds
    "groupoid.tangent_constraints": (
        "groupoid._horizontal_lifts",
        "return X - (inverse(B) @ X).trace(axis1=-2, axis2=-1)[..., None, None] / N * B",
        "return X"),
    "symplectic.unit_block_oracle": (
        "symplectic._K", "+ _pair(P[0], Q[2])", "- _pair(P[0], Q[2])"),
    # a nonzero B-slot; X = Y or Y @ Y would leave the (H, H) block at round-off
    "symplectic.unit_pullback_zero": (
        "groupoid.horizontal_vector_at_unit", "np.stack([np.zeros_like(Y), Y]",
        "np.stack([np.swapaxes(Y, -1, -2), Y]"),
    "symplectic.multiplicativity": (
        "symplectic.multiplicativity_residual", "B1 @ U2[X]", "U2[X]"),
    # the sign of T(Y, a^{-1}x, Ad_a x) inside the tensor it shares with T(x, x, Ad_a x)
    "symplectic.closedness": (
        "symplectic._omega_derivative", "cat([Y, x], axis=-1)", "cat([-Y, x], axis=-1)"),
    "symplectic.pullback_units": (
        "involutions.theta_differential", "dW[..., 1, :, :] = -Ai @ dW[..., 1, :, :] @ Ai",
        "dW[..., 1, :, :] = Ai @ dW[..., 1, :, :] @ Ai"),
    "symplectic.pullback_random": (
        "involutions.sigma_differential", "-W @ np.swapaxes(U, -1, -2) @ W", "-W @ U @ W"),
    # the realified Gram repeats its first block row
    "symplectic.nondegeneracy": (
        "symplectic.gram_matrix", "[-G.imag, -G.real]]", "[G.real, -G.imag]]"),
    # each frame vector given its neighbour's base velocity: the differentials
    # are no longer those of functions of s, so not in involution (conj(sdot)
    # is not enough, as the fiber rows have sdot = 0 exactly)
    "symplectic.poisson_brackets": (
        "symplectic.poisson_bracket_residual", "@ np.swapaxes(sdot, -1, -2)",
        "@ np.swapaxes(np.roll(sdot, 1, axis=-2), -1, -2)"),
    "symplectic.fiber_isotropy": (
        "groupoid.fiber_vector", "p.B @ xi,", "p.B @ np.swapaxes(xi, -1, -2),"),
    "symplectic.type_two_zero": (
        "symplectic._K", "P[1], Q[0]", "P[1].conj(), Q[0]"),
    "symplectic.real_form_re_omega": (
        "symplectic.real_form_checks", "Vt, gap_t = _fixed_subspace(2 * rs.n, Tt)",
        "Vt, gap_t = _fixed_subspace(2 * rs.n, Ts)"),
    "symplectic.real_form_omega2": (
        "symplectic.real_form_checks", "np.tensordot(joint.T, F[k], axes=1)).imag",
        "np.tensordot(joint.T, F[k], axes=1)).real"),
    # involution_pullback_residual cannot see this term; the fixed spaces can
    "symplectic.real_form_fixed_gap": (
        "involutions._twisted_differential", "return F @ dW @ Fi + K @ Z - Z @ K",
        "return F @ dW @ Fi"),
    "bondal.axioms": ("bondal.unit", "B[...] = identity(", "B[...] = -identity("),
    "bondal.embedding_intertwines": (
        "bondal.embed_slocal", "BondalPoint(B=p.B,", "BondalPoint(B=-p.B,"),
}


def _mutate(monkeypatch, function, old, new):
    """Replace module.name by its source with old (found exactly once) replaced by new."""
    modname, name = function.split(".")
    module = importlib.import_module(f"ucgl.{modname}")
    original = getattr(module, name)
    source = inspect.getsource(original)
    assert source.count(old) == 1, f"{old!r} is not in {function} exactly once"
    namespace = {}
    path = inspect.getsourcefile(original)
    code = compile(source.replace(old, new), path, "exec")
    exec(code, vars(module), namespace)
    for key, mod in list(sys.modules.items()):
        if key.split(".")[0] == "ucgl" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, namespace[name])


@pytest.mark.parametrize("check, n", [(check, n) for check in MUTANTS
                                      for n in ONLY_AT.get(check, RANKS)])
def test_mutant_fails_its_check(roots, monkeypatch, check, n):
    # roots derives the root sets before a mutant can reach their derivation
    _mutate(monkeypatch, *MUTANTS[check])
    suite = check.split(".")[0]
    checks = {c.name: c for c in run_suite({"n": n, "suite": suite, "seed": 42,
                                            "samples": 5}).checks}
    assert check in checks, checks.get(f"{suite}.error", sorted(checks))
    assert not checks[check].passed, checks[check].max_residual


def test_every_check_has_a_mutant(roots):
    names = {c.name for n in RANKS
             for c in run_suite({"n": n, "suite": "all", "seed": 42, "samples": 5}).checks}
    assert names == set(MUTANTS)


@pytest.mark.parametrize("n", RANKS)
def test_route_mutant_breaks_the_root_derivation(monkeypatch, n):
    """Constraint (d) of the root-set confirmation is build_Q's shift route, so
    the route's mutant also leaves no orientation confirmed."""
    _mutate(monkeypatch, *MUTANTS["stokes.factor_route_agreement"])
    with pytest.raises(SearchFailureError):
        derive_root_sets(n, force=True)
