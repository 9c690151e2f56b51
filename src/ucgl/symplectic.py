"""The quasi-symplectic 2-form restricted to the centralizer space.

Every tangent vector is an array whose last three axes are (2, N, N): the
pair (X, Y) at a point (g, a), X varying g and Y varying a.  Tangent bases
and composable bases are stacks of them.  omega_gram evaluates omega over
whole stacks via left/right translated slots and the trace pairing; omega on
one pair is a view of it.  At a unit, omega has a closed form on any two
tangents (unit_block_values), which acts as the convention oracle;
multiplicativity, closedness, nondegeneracy, the involution pullback
identities, the real sub-form behaviour and the integrable-system structure
are all checked numerically on top of it.

Those statements are pointwise tensor identities, so every check runs at
the point itself on one frame: groupoid.tangent_space's kernel basis U with
its base velocities sdot, and [U, iU] with [sdot, i sdot] where a real frame
is needed.  The involutions act on it by their exact differentials.

No finite difference is left.  Closedness is exact: on any frame at a point
d omega needs only the frame and the derivative of omega along it, by the
product rule through the same trace formula (see closedness_residual).  The
character Jacobian is a constant signed reversal, read off the section's
parametrisation.
"""

import numpy as np

from .core import char_poly, inverse, kernel, trace_form
from .errors import DegenerateFormError, NotComposableError, ProjectionFailureError
from .groupoid import KERNEL_CUTOFF, _tangent_constraints, tangent_space
from .involutions import apply_sigma, apply_theta, sigma_differential, theta_differential
from .stokes import build_M, dM_ds


def __getattr__(name):
    # expm_frechet is unused here; bench/tracer.py looks it up by name to count
    # its calls, so the name resolves on lookup (PEP 562) and importing this
    # module loads no scipy.  It goes with benchmark v2 (ROADMAP item 3).
    if name == "expm_frechet":
        import scipy.linalg

        return scipy.linalg.expm_frechet
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _slots(gi, a, ai, W):
    """The trace slots (x, Ad_a x, a^{-1} Y + Y a^{-1}) of stacked tangents W.

    Here x = g^{-1} X, and gi, ai are the inverses of g and a.
    """
    x = gi @ W[:, 0]
    return x, a @ x @ ai, ai @ W[:, 1] + W[:, 1] @ ai


def _K(P, Q):
    """K(u, v) = (Ad_a x_u, x_v) + (x_u, a^{-1} Y_v + Y_v a^{-1}) over slot stacks P, Q.

    Leading axes of either side broadcast: slot derivatives of shape
    (m, m', N, N) give an (m, m', m'') array.
    """
    return np.einsum("...iab,...jba->...ij", P[1], Q[0]) + np.einsum(
        "...iab,...jba->...ij", P[0], Q[2]
    )


def omega_gram(g, a, U, V=None):
    """The matrix omega(U_i, V_j) at (g, a), by the formula in omega's docstring.

    U and V are stacked tangents of shape (m, 2, N, N), U[i] = (X_i, Y_i).  g
    and a are inverted once and each trace term is one einsum over the stacks.
    With x = g^{-1} X, omega(u, v) = (K(u, v) - K(v, u)) / 2 (see _K).
    Without V the Gram of U with itself is (K - K^T) / 2, exactly
    antisymmetric with a zero diagonal.
    """
    gi = inverse(g)
    ai = inverse(a)
    P = _slots(gi, a, ai, U)
    if V is None:
        KU = _K(P, P)
        return 0.5 * (KU - KU.T)
    Q = _slots(gi, a, ai, V)
    return 0.5 * (_K(P, Q) - _K(Q, P).T)


def omega(p, u, v):
    """The 2-form at the point p on tangents u = (X_u, Y_u), v = (X_v, Y_v).

    With (g, a) = (p.B, p.A), x = g^{-1} X and the trace pairing ( , ):
      omega(u, v) = 1/2 [ (Ad_a x_u, x_v) - (Ad_a x_v, x_u)
                          + (x_u, a^{-1} Y_v + Y_v a^{-1})
                          - (x_v, a^{-1} Y_u + Y_u a^{-1}) ]
    """
    return omega_gram(p.B, p.A, u[None], v[None])[0, 0]


def unit_block_values(a, u, v):
    """Closed-form value of omega at the unit over a, for any two tangents there.

    At a unit g = I, so x = X, and the linearized commutation [X, a] + [g, Y]
    = 0 of a tangent becomes [X, a] = 0.  Then Ad_a x = x, the first two
    terms of omega cancel, and (X_u, Y_v a^{-1}) = (X_u, a^{-1} Y_v) because
    X_u commutes with a^{-1}.  What is left is
      omega(u, v) = (X_u, a^{-1} Y_v) - (X_v, a^{-1} Y_u).
    On fiber vectors (X = xi, Y = 0) and horizontal ones (X = 0, Y = a rho)
    it gives the four blocks (H,H) -> 0, (F,F) -> 0, (H,F) -> -(xi_v, rho_u)
    and (F,H) -> (xi_u, rho_v).
    """
    ai = inverse(a)
    return trace_form(u[0], ai @ v[1]) - trace_form(v[0], ai @ u[1])


def type_20_residual(p, U):
    """Max |omega(J U_a, U_b) - i omega(U_a, U_b)| over stacked tangents U, with J
    the ambient complex structure: zero when omega is complex bilinear."""
    return float(np.max(np.abs(omega_gram(p.B, p.A, 1j * U, U) - 1j * omega_gram(p.B, p.A, U))))


# ---------------------------------------------------------------------------
# composable tangent pairs and multiplicativity


def composable_tangent_basis(rs, pair):
    """Kernel basis of the tangent space to the set of composable pairs.

    Unknowns (X1, X2, sdot) with the shared base variation Y(sdot); the
    kernel, cut off as in groupoid.tangent_space, has complex dimension 3n at
    regular points.  Returns an array of shape (3n, 2, 2, N, N) whose entry i
    is the pair (u1, u2), each a stacked tangent (X, Y), with equal
    Y-components.
    """
    n = rs.n
    N = n + 1
    p, q = pair.p, pair.q
    dM = dM_ds(rs, p.s)
    LX1, LY1, tr1 = _tangent_constraints(p, dM)
    LX2, LY2, tr2 = _tangent_constraints(q, dM)
    Z, z, zs = np.zeros((N * N, N * N)), np.zeros((1, N * N)), np.zeros((1, n))
    L = np.block([[LX1, Z, LY1], [Z, LX2, LY2], [tr1, z, zs], [z, tr2, zs]])
    W = kernel(L, KERNEL_CUTOFF)
    Y = np.tensordot(W[:, 2 * N * N :], dM, axes=1)
    X1 = W[:, : N * N].reshape(-1, N, N)
    X2 = W[:, N * N : 2 * N * N].reshape(-1, N, N)
    return np.stack([np.stack([X1, Y], axis=1), np.stack([X2, Y], axis=1)], axis=1)


def multiplicativity_residual(rs, pair, basis):
    """Max |omega(dm u, dm v) - omega(u1, v1) - omega(u2, v2)| over a composable basis.

    basis stacks tangent pairs (u1, u2) with equal Y-components, as returned
    by composable_tangent_basis; u and v run over all of it.  The
    differential of composition is exact: dm(u1, u2) = (X1 B2 + B1 X2, Y).
    """
    p, q = pair.p, pair.q
    U1, U2 = basis[:, 0], basis[:, 1]
    if np.max(np.abs(U1[:, 1] - U2[:, 1])) > 1e-8:
        raise NotComposableError("tangent pairs must share the base variation")
    dm = np.stack([U1[:, 0] @ q.B + p.B @ U2[:, 0], U1[:, 1]], axis=1)
    lhs = omega_gram(p.B @ q.B, p.A, dm)
    rhs = omega_gram(p.B, p.A, U1) + omega_gram(q.B, q.A, U2)
    return float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------------
# closedness


def _omega_derivative(g, a, U):
    """D[w, u, v]: the derivative of omega_(g,a)(U_u, U_v) along U_w, frame held fixed.

    By the product rule through the bilinear _K, with the slot derivatives
    along w = (X_w, Y_w) (dots; x = g^{-1} X)
      x_v'        = -x_w x_v
      (Ad_a x_v)' = Y_w x_v a^{-1} + a x_v' a^{-1} - (Ad_a x_v) Y_w a^{-1}
      z_v'        = -a^{-1} Y_w a^{-1} Y_v - Y_v a^{-1} Y_w a^{-1},
    K'[w] = K(slots'_w, slots) + K(slots, slots'_w) and D = (K' - K'^T) / 2.
    """
    gi = inverse(g)
    ai = inverse(a)
    P = _slots(gi, a, ai, U)
    x, Ad, Y = P[0], P[1], U[:, 1]
    aY, Ya = ai @ Y, Y @ ai
    w = np.s_[:, None]  # broadcasts a stack along the w axis of (w, v) products
    xd = -(x[w] @ x)
    Adv = (Y[w] @ x + a @ xd - Ad @ Y[w]) @ ai
    zd = -(aY[w] @ aY) - Ya @ Ya[w]
    Pd = (xd, Adv, zd)
    Kd = _K(Pd, P) + _K(P, Pd)
    return 0.5 * (Kd - Kd.transpose(0, 2, 1))


def _exterior_derivative(g, a, U):
    """d omega(U_i, U_j, U_k) at (g, a) for a frame U: D[i, j, k] - D[j, i, k] + D[k, i, j].

    D is _omega_derivative's; the result is exactly alternating.
    """
    D = _omega_derivative(g, a, U)
    return D - D.transpose(1, 0, 2) + D.transpose(1, 2, 0)


def closedness_residual(rs, p):
    """Max |d omega| over all triples of the real frame [U, iU] at p, U from tangent_space.

    This is exact.  Let phi be a chart through p whose coordinate fields
    (which commute) are the frame at p.  Then d omega(U_i, U_j, U_k) is the
    alternating sum of the derivatives d_i omega(d_j phi, d_k phi): the
    derivative of omega along U_i with the frame held fixed, D[i, j, k], plus
    terms omega(d_i d_j phi, d_k phi) that cancel in pairs (mixed partials are
    symmetric, omega is antisymmetric) for any chart.  And any basis of the
    tangent space at a point is the frame of some chart: compose any chart
    with a linear change of coordinates.  So only the first-order frame at p
    enters, and tangent_space's basis serves.
    """
    U, _ = tangent_space(rs, p)
    return float(np.max(np.abs(_exterior_derivative(p.B, p.A, np.concatenate([U, 1j * U])))))


# ---------------------------------------------------------------------------
# Gram matrices and nondegeneracy


def gram_matrix(p, U):
    """Complex Gram G of omega over stacked tangents U, and the realified
    minimum singular value.

    The realified form is Re(omega) on the doubled basis (u_j, i u_j); omega
    is complex bilinear, so its Gram is [[Re G, -Im G], [-Im G, -Re G]].
    Its smallest singular value certifies nondegeneracy of the complex form.
    Returns (G, min_singular).
    """
    G = omega_gram(p.B, p.A, U)
    GR = np.block([[G.real, -G.imag], [-G.imag, -G.real]])
    return G, float(np.linalg.svd(GR, compute_uv=False)[-1])


# ---------------------------------------------------------------------------
# involution pullbacks


def involution_pullback_residual(kind, rs, p):
    """Pullback defect of omega under one involution at a point.

    sigma: max |omega(ds u, ds v) - omega(u, v)|;
    theta: max |omega(dt u, dt v) + conj(omega(u, v))|, both over all pairs
    from the real frame [U, iU] at p, mapped by the exact differential.

    It cannot see the commutator term [dF F^{-1}, .] of the differentials:
    with K = dF F^{-1} that term adds the conjugation direction ([K, B'],
    [K, A']) at the image (B', A'), and omega pairs conjugation directions to
    zero with the tangent space and with one another, so dropping the term
    leaves this residual at round-off.  real_form_fixed_gap and
    test_involution_differentials_exact see that term.
    """
    if kind not in ("sigma", "theta"):
        raise ProjectionFailureError(f"unknown involution kind {kind!r}")
    apply, differential = {
        "sigma": (apply_sigma, sigma_differential), "theta": (apply_theta, theta_differential)
    }[kind]
    # the real frame [U, iU] with its base velocities [sdot, i sdot]
    F, Fs = (np.concatenate([S, 1j * S]) for S in tangent_space(rs, p))
    img = apply(rs, p, tol=np.inf)
    w = omega_gram(p.B, p.A, F)
    wi = omega_gram(img.B, img.A, differential(rs, p, F, Fs))
    return float(np.max(np.abs(wi - w if kind == "sigma" else wi + np.conj(w))))


# ---------------------------------------------------------------------------
# integrable-system structure


def _characters(rs, s):
    """The fundamental characters chi_1..chi_n at s.

    chi_i is the i-th elementary symmetric function of the eigenvalues of
    the section element, read off the characteristic polynomial (no
    eigenvalue solve).
    """
    N = rs.n + 1
    c = char_poly(build_M(rs, s))  # ascending
    return np.array([(-1.0) ** i * c[N - i] for i in range(1, N)])


def _character_jacobian(rs, s):
    """d chi_i / d s_d, shape (n, n): the signed reversal J[i-1, n-i] = (-1)^{i n}.

    The section identity stokes_params_of(build_M(s)) = s and its sign rule
    (s_k = c_k at odd n, (-1)^{k+1} c_k at even n, with c the ascending
    characteristic polynomial of build_M(s)) give c_k = s_k at odd n and
    c_k = (-1)^{k+1} s_k at even n.  So chi_i = (-1)^i c_{N-i} is linear in
    s_{N-i} alone, with slope (-1)^i at odd n and (-1)^i (-1)^{N-i+1} = 1 at
    even n: in both cases (-1)^{i n}, independent of s.
    """
    n = rs.n
    i = np.arange(1, n + 1)
    J = np.zeros((n, n), dtype=complex)
    J[i - 1, n - i] = (-1.0) ** (i * n)
    return J


def poisson_bracket_residual(rs, p, U, sdot):
    """|{chi_i, chi_j}| at p for every pair i < j, in itertools.combinations
    order, from tangent_space's (U, sdot) at p.

    The characters depend on s alone, so d chi(U_k) is the character
    Jacobian applied to U_k's base velocity sdot_k.  One solve against the
    Gram G of U gives the coefficients a of every gradient, one column per
    character, and the brackets are the entries of a^T G a above the
    diagonal.
    """
    G = omega_gram(p.B, p.A, U)
    if np.linalg.cond(G) > 1e10:
        raise DegenerateFormError("Gram matrix numerically singular")
    grads = _character_jacobian(rs, p.s) @ sdot.T
    a = np.linalg.solve(G, grads.T)
    return np.abs((a.T @ G @ a)[np.triu_indices(rs.n, 1)])


# ---------------------------------------------------------------------------
# real-form checks


def _flatten(S):
    """Real coordinates of stacked tangent vectors, one column per vector."""
    z = S.reshape(len(S), -1)
    return np.concatenate([z.real, z.imag], axis=1).T


def _involution_matrix(F, Fimg):
    """Real matrix of a tangent involution in the stacked frame F, given F's images Fimg."""
    T, res, rank, _ = np.linalg.lstsq(_flatten(F), _flatten(Fimg), rcond=None)
    if rank < len(F):
        raise ProjectionFailureError("tangent frame is rank deficient")
    return T


def _fixed_subspace(dim, *Ts):
    """Orthonormal basis of the dim-dimensional joint fixed space of the real
    matrices Ts, from the SVD of the stacked T - I, and its spectral gap: the
    largest kept singular value over the smallest dropped one."""
    m = Ts[0].shape[0]
    _, sv, Vh = np.linalg.svd(np.vstack([T - np.eye(m) for T in Ts]))
    return Vh[m - dim :].T, sv[m - dim] / sv[m - dim - 1]


def real_form_checks(rs, p):
    """Behaviour of omega on involution-fixed tangent subspaces at p.

    p should be a theta-fixed point (for the joint checks, a point of the
    monodromy locus).  The theta-fixed tangent space has real dimension 2n
    and the joint (sigma, theta)-fixed one 2 ceil(n/2).  Reports the max
    |Re omega| on the first, the minimum singular value of the Gram of
    Im omega (exactly antisymmetric, as omega_gram's is) on the second, and
    the larger of the two spectral gaps of _fixed_subspace.
    """
    # the real frame [U, iU] with its base velocities [sdot, i sdot]
    F, Fs = (np.concatenate([S, 1j * S]) for S in tangent_space(rs, p))
    Tt = _involution_matrix(F, theta_differential(rs, p, F, Fs))
    Ts = _involution_matrix(F, sigma_differential(rs, p, F, Fs))

    Vt, gap_t = _fixed_subspace(2 * rs.n, Tt)
    Gt = omega_gram(p.B, p.A, np.tensordot(Vt.T, F, axes=1))
    joint, gap_joint = _fixed_subspace(2 * ((rs.n + 1) // 2), Ts, Tt)
    G2 = omega_gram(p.B, p.A, np.tensordot(joint.T, F, axes=1)).imag
    return {
        "re_omega_residual": float(np.max(np.abs(Gt.real))),
        "omega2_min_singular": float(np.linalg.svd(G2, compute_uv=False)[-1]),
        "fixed_gap": float(np.maximum(gap_t, gap_joint)),  # a NaN gap propagates
    }
