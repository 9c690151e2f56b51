"""Coefficient matrix of the meromorphic connection form and its symmetries.

The coefficient is A(zeta) = -zeta^{-2} W^T - zeta^{-1} diag(v) + x^2 W with
W = e^{-w} Pi e^{w}.  For anti-symmetric w and v it enjoys four symmetries
(a cyclic twist, an anti-symmetry, and two reality conditions), each checked
here at the coefficient level with the Jacobian factor of the zeta
substitution made explicit.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import structural_matrices
from .errors import PreconditionError, InvalidDimensionError

SYMMETRY_KINDS = ("cyclic", "anti", "c_real", "theta_real")


@dataclass(frozen=True)
class TodaInput:
    """Input data (w, v, x, zeta) at rank n.

    w and v are real vectors of length n+1; x is a positive real scale and
    zeta a nonzero complex spectral parameter.  The symmetry identities need
    w and v anti-symmetric: w_i + w_{n-i} = 0 and likewise for v.
    """

    n: int
    w: np.ndarray
    v: np.ndarray
    x: float
    zeta: complex

    def __post_init__(self):
        object.__setattr__(self, "w", np.asarray(self.w, dtype=float))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
        if self.w.shape != (self.n + 1,) or self.v.shape != (self.n + 1,):
            raise InvalidDimensionError("w and v must have length n+1")
        if self.x <= 0:
            raise PreconditionError("x must be positive")
        if self.zeta == 0:
            raise PreconditionError("zeta must be nonzero")

    def antisymmetry_residual(self):
        rw = np.max(np.abs(self.w + self.w[::-1]))
        rv = np.max(np.abs(self.v + self.v[::-1]))
        return max(rw, rv)


def build_W(w):
    """W = e^{-w} Pi e^{w} for a real diagonal vector w."""
    w = np.asarray(w, dtype=float)
    n = len(w) - 1
    st = structural_matrices(n)
    return np.diag(np.exp(-w)) @ st.Pi @ np.diag(np.exp(w))


def alpha_coeff(inp, zeta=None):
    """The dzeta-coefficient A(zeta) = -zeta^{-2} W^T - zeta^{-1} diag(v) + x^2 W."""
    z = inp.zeta if zeta is None else zeta
    if z == 0:
        raise PreconditionError("evaluation at the pole zeta = 0")
    W = build_W(inp.w)
    return (-(z ** -2)) * W.T - (z ** -1) * np.diag(inp.v).astype(complex) + inp.x ** 2 * W


def alpha_symmetry_residual(kind, inp, require_antisymmetric=True):
    """Residual of one coefficient-level symmetry identity, relative to its scale.

    The residual is max|lhs - rhs| / max(max|lhs|, max|rhs|): round-off in
    A(zeta) is relative to its largest entry, which grows with e^{w_i - w_j},
    x^2 and |zeta|^{-2}.  A zero coefficient has no scale and gives NaN.

    kind selects the identity:
      cyclic:     d^{-1} A(zeta) d               = omega * A(omega*zeta)
      anti:       -Delta A(zeta)^T Delta         = -A(-zeta)
      c_real:     Delta conj(A(zeta)) Delta      = (-1/(x^2 conj(zeta)^2)) * A(1/(x^2 conj(zeta)))
      theta_real: conj(A(zeta))                  = A(conj(zeta))

    The scalar factors on the right are the 1-form Jacobians of the zeta
    substitutions.  With require_antisymmetric=False the precondition check
    is skipped (used by the negative control, where the residual is expected
    to be large).
    """
    if kind not in SYMMETRY_KINDS:
        raise PreconditionError(f"unknown symmetry kind {kind!r}")
    if require_antisymmetric and inp.antisymmetry_residual() > 1e-12:
        raise PreconditionError("w and v must be anti-symmetric")
    st = structural_matrices(inp.n)
    z = inp.zeta
    A = alpha_coeff(inp)
    if kind == "cyclic":
        dinv = np.diag(1.0 / np.diag(st.d))
        lhs = dinv @ A @ st.d
        rhs = st.omega_root * alpha_coeff(inp, zeta=st.omega_root * z)
    elif kind == "anti":
        lhs = -st.Delta @ A.T @ st.Delta
        rhs = -alpha_coeff(inp, zeta=-z)
    elif kind == "c_real":
        zb = np.conj(z)
        lhs = st.Delta @ np.conj(A) @ st.Delta
        rhs = (-1.0 / (inp.x ** 2 * zb ** 2)) * alpha_coeff(inp, zeta=1.0 / (inp.x ** 2 * zb))
    else:  # theta_real
        lhs = np.conj(A)
        rhs = alpha_coeff(inp, zeta=np.conj(z))
    scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)))
    return float(np.max(np.abs(lhs - rhs)) / scale) if scale else math.nan


def random_antisymmetric_input(n, rng):
    """Draw a TodaInput with anti-symmetric w, v from a numpy Generator.

    Draws w, v, then x, then zeta (moved off the pole when |zeta| < 1e-3).
    """
    half = (n + 1) // 2
    w = np.zeros(n + 1)
    v = np.zeros(n + 1)
    w[:half] = rng.standard_normal(half)
    v[:half] = rng.standard_normal(half)
    w = 0.5 * (w - w[::-1])
    v = 0.5 * (v - v[::-1])
    x = float(np.exp(rng.standard_normal() * 0.3))
    zeta = complex(rng.standard_normal() + 1j * rng.standard_normal())
    if abs(zeta) < 1e-3:
        zeta += 1.0
    return TodaInput(n=n, w=w, v=v, x=x, zeta=zeta)
