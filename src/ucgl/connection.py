"""Coefficient matrix of the meromorphic connection form and its symmetries.

The coefficient is A(zeta) = -zeta^{-2} W^T - zeta^{-1} diag(v) + x^2 W with
W = e^{-w} Pi e^{w}.  For anti-symmetric w and v it enjoys four symmetries
(a cyclic twist, an anti-symmetry, and two reality conditions), each checked
here at the coefficient level with the Jacobian factor of the zeta
substitution made explicit.
"""

from dataclasses import dataclass

import numpy as np

from .core import identity, max_abs, modulus, structural_matrices
from .errors import PreconditionError, InvalidDimensionError

SYMMETRY_KINDS = ("cyclic", "anti", "c_real", "theta_real")


@dataclass(frozen=True)
class TodaInput:
    """Input data (w, v, x, zeta) at rank n.

    w and v are real vectors of length n+1; x is a positive real scale and
    zeta a nonzero complex spectral parameter.  The symmetry identities need
    w and v anti-symmetric: w_i + w_{n-i} = 0 and likewise for v.  A stack
    of inputs holds w and v of shape (..., n+1) and x and zeta of shape
    (...), one value per sample.
    """

    n: int
    w: np.ndarray
    v: np.ndarray
    x: float
    zeta: complex

    def __post_init__(self):
        object.__setattr__(self, "w", np.asarray(self.w, dtype=float))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
        if self.w.shape[-1:] != (self.n + 1,) or self.v.shape != self.w.shape:
            raise InvalidDimensionError("w and v must have length n+1")
        if np.shape(self.x) != self.w.shape[:-1] or np.shape(self.zeta) != self.w.shape[:-1]:
            raise InvalidDimensionError("x and zeta must hold one value per sample")
        if np.any(np.less_equal(self.x, 0)):
            raise PreconditionError("x must be positive")
        if np.any(np.equal(self.zeta, 0)):
            raise PreconditionError("zeta must be nonzero")

    def antisymmetry_residual(self):
        rw = np.abs(self.w + self.w[..., ::-1]).max(axis=-1)
        rv = np.abs(self.v + self.v[..., ::-1]).max(axis=-1)
        return np.maximum(rw, rv)


def _scalars(values):
    """A number, or each number of an array, as a Python number, one per sample."""
    return np.ravel(values).tolist()


def _per_sample(values, inp):
    """Per-sample scalars as an array that broadcasts against inp's stack of matrices."""
    return np.reshape(values, inp.w.shape[:-1])[..., None, None]


def build_W(w):
    """W = e^{-w} Pi e^{w} for a real diagonal vector w, or for each of a stack."""
    w = np.asarray(w, dtype=float)
    st = structural_matrices(w.shape[-1] - 1)
    return np.exp(-w)[..., :, None] * st.Pi * np.exp(w)[..., None, :]


def alpha_coeff(inp, zeta=None):
    """The dzeta-coefficient A(zeta) = -zeta^{-2} W^T - zeta^{-1} diag(v) + x^2 W.

    zeta defaults to inp.zeta.  A stacked input gives a stack of
    coefficients, and a given zeta is then a sequence of one value per
    sample.  The scalars -zeta^{-2}, zeta^{-1} and x^2 are computed one
    sample at a time, each in the scalar type it comes in; inp.zeta and
    inp.x are read as Python numbers (_scalars).  numpy's array power
    differs from Python's complex ** in the last bit, so only this way does
    a stack give each sample the bytes of a single call.
    """
    zs = _scalars(inp.zeta) if zeta is None else (list(zeta) if np.ndim(zeta) else [zeta])
    if any(z == 0 for z in zs):
        raise PreconditionError("evaluation at the pole zeta = 0")
    c2, c1 = (_per_sample(c, inp) for c in ([-(z ** -2) for z in zs], [z ** -1 for z in zs]))
    x2 = _per_sample([x ** 2 for x in _scalars(inp.x)], inp)
    W = build_W(inp.w)
    return c2 * np.swapaxes(W, -1, -2) - c1 * (inp.v[..., None] * identity(inp.n + 1)) + x2 * W


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
    to be large).  A stacked input gives one residual per sample; the
    substituted zeta and the Jacobians are computed per sample, in the
    scalar types of a single call (see alpha_coeff): Python complex for zeta
    and -zeta, np.complex128 for omega*zeta, conj(zeta) and the c_real
    substitution.
    """
    if kind not in SYMMETRY_KINDS:
        raise PreconditionError(f"unknown symmetry kind {kind!r}")
    if require_antisymmetric and np.count_nonzero(inp.antisymmetry_residual() > 1e-12):
        raise PreconditionError("w and v must be anti-symmetric")
    st = structural_matrices(inp.n)
    zs = _scalars(inp.zeta)
    A = alpha_coeff(inp, zs)
    if kind == "cyclic":
        dinv = np.diag(1.0 / np.diag(st.d))
        lhs = dinv @ A @ st.d
        rhs = st.omega_root * alpha_coeff(inp, [st.omega_root * z for z in zs])
    elif kind == "anti":
        lhs = -st.Delta @ np.swapaxes(A, -1, -2) @ st.Delta
        rhs = -alpha_coeff(inp, [-z for z in zs])
    elif kind == "c_real":
        x2, zb = [x ** 2 for x in _scalars(inp.x)], [np.conj(z) for z in zs]
        lhs = st.Delta @ np.conj(A) @ st.Delta
        jacobian = _per_sample([-1.0 / (a * b ** 2) for a, b in zip(x2, zb)], inp)
        rhs = jacobian * alpha_coeff(inp, [1.0 / (a * b) for a, b in zip(x2, zb)])
    else:  # theta_real
        lhs = np.conj(A)
        rhs = alpha_coeff(inp, [np.conj(z) for z in zs])
    scale = np.maximum(max_abs(lhs), max_abs(rhs))
    with np.errstate(invalid="ignore"):  # 0 / 0 at a zero coefficient
        return max_abs(lhs - rhs) / scale


def _random_antisymmetric_inputs(n, rng, count):
    """count TodaInputs with anti-symmetric w, v, stacked, from one draw of normals.

    Per input, in draw order: half = (n+1) // 2 normals each for w and v
    (their first halves, anti-symmetrised), then x = exp(0.3 z), then Re zeta
    and Im zeta (moved off the pole when |zeta| < 1e-3).  All count rows come
    from one standard_normal call, so a stack draws what count single draws
    draw, in the same order.
    """
    half = (n + 1) // 2
    z = rng.standard_normal((count, 2 * half + 3))
    wv = np.zeros((count, 2, n + 1))
    wv[..., :half] = z[:, : 2 * half].reshape(count, 2, half)
    wv = 0.5 * (wv - wv[..., ::-1])
    zeta = z[:, -2] + 1j * z[:, -1]
    zeta = np.where(modulus(zeta) < 1e-3, zeta + 1.0, zeta)
    return TodaInput(n=n, w=wv[:, 0], v=wv[:, 1], x=np.exp(z[:, -3] * 0.3), zeta=zeta)


def random_antisymmetric_input(n, rng):
    """Draw one TodaInput with anti-symmetric w, v from a numpy Generator: the
    count-1 view of _random_antisymmetric_inputs, x a float and zeta a complex."""
    inp = _random_antisymmetric_inputs(n, rng, 1)
    return TodaInput(n=n, w=inp.w[0], v=inp.v[0], x=float(inp.x[0]), zeta=complex(inp.zeta[0]))
