"""The quasi-symplectic 2-form restricted to the centralizer space.

Every tangent vector is an array whose last three axes are (2, N, N): the
pair (X, Y) at a point (g, a), X varying g and Y varying a.  Tangent bases
and composable bases are stacks of them.  omega_gram evaluates omega over
whole stacks via left/right translated slots and the trace pairing, and over
leading axes of points too; omega on one pair is a view of it.  Each slot
product is one matmul per point, the tangents folded into its rows (_slots);
every trace pairing of two stacks is one matmul of flattened matrices
(_pair), and each of the three triple-trace tensors of d omega two
(_triple).  At a unit, omega has a closed form on any two tangents
(unit_block_values), which acts as the convention oracle; multiplicativity,
closedness, nondegeneracy, the involution pullback identities, the real
sub-form behaviour and the integrable-system structure are all checked
numerically on top of it.

Those statements are pointwise tensor identities, so every check runs at
the point itself on one frame: groupoid.tangent_space's closed-form
orthonormal basis U with its base velocities sdot, and [U, iU] with
[sdot, i sdot] where a real frame is needed.  The involutions act on it by
their exact differentials.

No finite difference is left.  Closedness is exact: on any frame at a point
d omega needs only the frame and the derivative of omega along it, by the
product rule through the same trace formula (see closedness_residual).  The
character Jacobian is a constant signed reversal, read off the section's
parametrisation.
"""

import numpy as np

from .core import char_poly, inverse, max_abs
from .errors import DegenerateFormError, NotComposableError, ProjectionFailureError
from .groupoid import _tangent_frame, combine, tangent_space
from .involutions import apply_sigma, apply_theta, sigma_differential, theta_differential
from .stokes import build_M, dM_ds


def __getattr__(name):
    # expm_frechet is unused here; bench/tracer.py looks it up by name to count
    # its calls, so the name resolves on lookup (PEP 562) and importing this
    # module loads no scipy.  It goes with benchmark v2 (ROADMAP item 5).
    if name == "expm_frechet":
        import scipy.linalg

        return scipy.linalg.expm_frechet
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _right(W, R):
    """W_k R for every k of a stack W, shape (..., m, N, N), and R of shape
    (..., N, N): the tangent axis folded into the rows, one (..., mN, N) by
    (..., N, N) product per point."""
    WR = W.reshape(W.shape[:-3] + (-1, W.shape[-1])) @ R
    return WR.reshape(WR.shape[:-2] + W.shape[-3:])


def _left(L, W):
    """L W_k for every k: _right on the transposes, (W_k^T L^T)^T."""
    return np.swapaxes(_right(np.swapaxes(W, -1, -2), np.swapaxes(L, -1, -2)), -1, -2)


def _slots(gi, a, ai, W):
    """The trace slots (x, Ad_a x, a^{-1} Y + Y a^{-1}) of stacked tangents W.

    Here x = g^{-1} X, and gi, ai are the inverses of g and a.  Points of
    shape (..., N, N) take tangents of shape (..., m, 2, N, N).  Each product
    is one matmul per point, not one per tangent (_right, _left).
    """
    x = _left(gi, W[..., 0, :, :])
    Y = W[..., 1, :, :]
    return x, _right(_left(a, x), ai), _left(ai, Y) + _right(Y, ai)


def _pair(X, Z):
    """The trace pairings tr(X_i Z_j) of stacks X, Z of shape (..., m, N, N),
    (..., m', N, N), shape (..., m, m'): one matmul of X flattened to
    (..., m, N^2) and the flattened transposes of Z, (..., N^2, m')."""
    N2 = X.shape[-2] * X.shape[-1]
    Zt = np.swapaxes(Z, -1, -3).reshape(Z.shape[:-3] + (N2, Z.shape[-3]))
    return X.reshape(X.shape[:-2] + (N2,)) @ Zt


def _K(P, Q):
    """K(u, v) = (Ad_a x_u, x_v) + (x_u, a^{-1} Y_v + Y_v a^{-1}) over slot stacks P, Q.

    Leading point axes broadcast; each pairing is one matmul (see _pair).
    """
    return _pair(P[1], Q[0]) + _pair(P[0], Q[2])


def omega_gram(g, a, U, V=None):
    """The matrix omega(U_i, V_j) at (g, a), by the formula in omega's docstring.

    U and V are stacked tangents of shape (m, 2, N, N), U[i] = (X_i, Y_i).  g
    and a are inverted once and each trace term is one matmul over the stacks.
    With x = g^{-1} X, omega(u, v) = (K(u, v) - K(v, u)) / 2 (see _K).
    Without V the Gram of U with itself is (K - K^T) / 2, exactly
    antisymmetric with a zero diagonal.  Over a stack of points, g and a of
    shape (..., N, N) and U, V of shape (..., m, 2, N, N), it is a stack of
    Grams, shape (..., m, m').
    """
    gi = inverse(g)
    ai = inverse(a)
    P = _slots(gi, a, ai, U)
    if V is None:
        KU = _K(P, P)
        return 0.5 * (KU - np.swapaxes(KU, -1, -2))
    Q = _slots(gi, a, ai, V)
    return 0.5 * (_K(P, Q) - np.swapaxes(_K(Q, P), -1, -2))


def omega(p, u, v):
    """The 2-form at the point p on tangents u = (X_u, Y_u), v = (X_v, Y_v).

    With (g, a) = (p.B, p.A), x = g^{-1} X and the trace pairing ( , ):
      omega(u, v) = 1/2 [ (Ad_a x_u, x_v) - (Ad_a x_v, x_u)
                          + (x_u, a^{-1} Y_v + Y_v a^{-1})
                          - (x_v, a^{-1} Y_u + Y_u a^{-1}) ]

    A stack of points takes stacks of tangents, one each, shape (..., 2, N, N).
    """
    one = np.s_[..., None, :, :, :]  # a tangent as a stack of one
    # [()] makes one point's value a numpy scalar, not a 0-d array, whose abs()
    # would take numpy's array route (see core.modulus)
    return omega_gram(p.B, p.A, u[one], v[one])[..., 0, 0][()]


def unit_block_values(a, u, v):
    """Closed-form value of omega at the unit over a, for any two tangents there.

    At a unit g = I, so x = X, and the linearized commutation [X, a] + [g, Y]
    = 0 of a tangent becomes [X, a] = 0.  Then Ad_a x = x, the first two
    terms of omega cancel, and (X_u, Y_v a^{-1}) = (X_u, a^{-1} Y_v) because
    X_u commutes with a^{-1}.  What is left is
      omega(u, v) = (X_u, a^{-1} Y_v) - (X_v, a^{-1} Y_u).
    On fiber vectors (X = xi, Y = 0) and horizontal ones (X = 0, Y = a rho)
    it gives the four blocks (H,H) -> 0, (F,F) -> 0, (H,F) -> -(xi_v, rho_u)
    and (F,H) -> (xi_u, rho_v).  A stack of a, shape (..., N, N), takes
    tangents of shape (..., 2, N, N); the leading axes broadcast, so a of
    shape (..., 1, 1, N, N) with stacks U[..., :, None] and V[..., None, :]
    gives the whole block matrix over U x V.
    """
    ai = inverse(a)
    X, Y = np.s_[..., 0, :, :], np.s_[..., 1, :, :]
    return ((u[X] @ (ai @ v[Y])).trace(axis1=-2, axis2=-1)
            - (v[X] @ (ai @ u[Y])).trace(axis1=-2, axis2=-1))


def type_20_residual(p, U):
    """Max |omega(J U_a, U_b) - i omega(U_a, U_b)| over stacked tangents U, with J
    the ambient complex structure: zero when omega is complex bilinear."""
    return max_abs(omega_gram(p.B, p.A, 1j * U, U) - 1j * omega_gram(p.B, p.A, U))


def _real_frame(rs, p):
    """The real frame [U, iU] at p with its base velocities [sdot, i sdot], from
    tangent_space; over a stack of points, a stack of frames."""
    U, sdot = tangent_space(rs, p)
    return np.concatenate([U, 1j * U], axis=-4), np.concatenate([sdot, 1j * sdot], axis=-2)


# ---------------------------------------------------------------------------
# composable tangent pairs and multiplicativity


def composable_tangent_basis(rs, pair):
    """Orthonormal basis of the tangent space to the set of composable pairs.

    Unknowns (X1, X2, sdot) with the shared base variation Y(sdot); the
    frame is groupoid._tangent_frame's for the two points: each point's
    fiber rows, then the shared lifts, 3n in all.  Returns an array of shape
    (3n, 2, 2, N, N) whose entry i is the pair (u1, u2), each a stacked
    tangent (X, Y), with equal Y-components.  A stack of pairs gives a stack
    of bases, shape (..., 3n, 2, 2, N, N).
    """
    dM = dM_ds(rs, pair.p.s)
    X, sdot = _tangent_frame(rs, (pair.p, pair.q), dM)
    Y = combine(sdot, dM)
    return np.stack([X, np.broadcast_to(Y[..., None, :, :], X.shape)], axis=-3)


def multiplicativity_residual(rs, pair, basis):
    """Max |omega(dm u, dm v) - omega(u1, v1) - omega(u2, v2)| over a composable basis.

    basis stacks tangent pairs (u1, u2) with equal Y-components, as returned
    by composable_tangent_basis; u and v run over all of it.  The
    differential of composition is exact: dm(u1, u2) = (X1 B2 + B1 X2, Y).
    A stack of pairs takes a stack of bases and gives one residual per pair.
    """
    p, q = pair.p, pair.q
    U1, U2 = basis[..., 0, :, :, :], basis[..., 1, :, :, :]
    X, Y = np.s_[..., 0, :, :], np.s_[..., 1, :, :]
    if np.max(np.abs(U1[Y] - U2[Y])) > 1e-8:
        raise NotComposableError("tangent pairs must share the base variation")
    B1, B2 = p.B[..., None, :, :], q.B[..., None, :, :]  # against the basis axis
    dm = np.stack([U1[X] @ B2 + B1 @ U2[X], U1[Y]], axis=-3)
    lhs = omega_gram(p.B @ q.B, p.A, dm)
    rhs = omega_gram(p.B, p.A, U1) + omega_gram(q.B, q.A, U2)
    return np.abs(lhs - rhs).max(axis=(-2, -1))


# ---------------------------------------------------------------------------
# closedness


def _triple(A, B, C):
    """T[w, i, j] = tr(A_w B_i C_j) over stacks of m matrices, A_w of shape
    (N, K), B_i of (K, N) and C_j of (N, N), as two matmuls: every product
    A_w B_i at once, (mN x K)(K x mN), then their trace pairings with C,
    (m^2 x N^2)(N^2 x m) (see _pair).  With A_w = [P_w | Q_w] and B_i =
    [R_i ; S_i] stacked along K, T is the sum tr(P_w R_i C_j) + tr(Q_w S_i C_j)."""
    m, N, K = A.shape
    AB = A.reshape(m * N, K) @ B.transpose(1, 0, 2).reshape(K, m * N)  # rows (w, a), cols (i, c)
    return _pair(AB.reshape(m, N, m, N).transpose(0, 2, 1, 3).reshape(m * m, N, N),
                 C).reshape(m, m, m)


def _omega_derivative(g, a, U):
    """D[w, u, v]: the derivative of omega_(g,a)(U_u, U_v) along U_w, frame held fixed.

    By the product rule through the bilinear _K, with the slot derivatives
    along w = (X_w, Y_w) (dots; x = g^{-1} X)
      x_v'        = -x_w x_v
      (Ad_a x_v)' = Y_w x_v a^{-1} + a x_v' a^{-1} - (Ad_a x_v) Y_w a^{-1}
      z_v'        = -a^{-1} Y_w a^{-1} Y_v - Y_v a^{-1} Y_w a^{-1},
    K'[w] = K(slots'_w, slots) + K(slots, slots'_w) and D = (K' - K'^T) / 2.
    Each term of K' is a triple trace tr(A_w B_u C_v) or tr(A_w B_v C_u):
      K' = T(Y, x, a^{-1}x) - T(x, x, a^{-1}x a + z) - T(Y a^{-1}, x, Y a^{-1})
           - [T(Y, a^{-1}x, Ad_a x) + T(x, x, Ad_a x) + T(a^{-1}Y, a^{-1}Y, x)]^T
    with T[w, u, v] = tr(A_w B_u C_v) and ^T swapping the last two axes.
    The first three share their middle factor x, and tr(A_w x_u C_v) =
    tr(C_v A_w x_u); the next two share their last factor.  So with T =
    _triple, which sums over blocks stacked along its inner axis,
      K'[w, u, v] = T([a^{-1}x | a^{-1}x a + z | Y a^{-1}], [Y ; -x ; -Y a^{-1}], x)[v, w, u]
                    - T([Y | x], [a^{-1}x ; x], Ad_a x)[w, v, u]
                    - T(a^{-1}Y, a^{-1}Y, x)[w, v, u],
    three tensors, each one (mN x K)(K x mN) product and one pairing.
    """
    gi = inverse(g)
    ai = inverse(a)
    x, Ad, z = _slots(gi, a, ai, U)
    Y = U[:, 1]
    aY, Ya, ax = ai @ Y, Y @ ai, ai @ x
    cat = np.concatenate
    middle_x = _triple(cat([ax, ax @ a + z, Ya], axis=-1), cat([Y, -x, -Ya], axis=-2), x)
    last_Ad = _triple(cat([Y, x], axis=-1), cat([ax, x], axis=-2), Ad)
    Kd = middle_x.transpose(1, 2, 0) - (last_Ad + _triple(aY, aY, x)).transpose(0, 2, 1)
    return 0.5 * (Kd - Kd.transpose(0, 2, 1))


def _exterior_derivative(g, a, U):
    """d omega(U_i, U_j, U_k) at (g, a) for a frame U: D[i, j, k] - D[j, i, k] + D[k, i, j].

    D is _omega_derivative's; the result is exactly alternating.
    """
    D = _omega_derivative(g, a, U)
    return D - D.transpose(1, 0, 2) + D.transpose(1, 2, 0)


def closedness_residual(rs, p):
    """Max |d omega| over all triples of the real frame [U, iU] at p, U from
    tangent_space; one residual per point of a stack.

    Why it vanishes: omega is the multiplicative 2-form of the conjugation
    action groupoid GL_N x GL_N, whose arrow (g, a) goes from s = a to t =
    g a g^{-1}, and there d omega = -1/2 (t^* chi - s^* chi), with chi(theta)
    (u, v, w) = tr(theta_u [theta_v, theta_w]) the Cartan 3-form of the
    Maurer-Cartan form theta (Bursztyn, Crainic, Weinstein and Zhu,
    "Integration of twisted Dirac brackets", Duke Math. J. 123, 2004;
    Alekseev, Malkin and Meinrenken, "Lie group valued moment maps",
    J. Differential Geom. 48, 1998).  On the centralizer space g commutes
    with a, so t = s as maps and d omega = 0 there.

    The residual is exact.  Let phi be a chart through p whose coordinate
    fields (which commute) are the frame at p.  Then d omega(U_i, U_j, U_k) is the
    alternating sum of the derivatives d_i omega(d_j phi, d_k phi): the
    derivative of omega along U_i with the frame held fixed, D[i, j, k], plus
    terms omega(d_i d_j phi, d_k phi) that cancel in pairs (mixed partials are
    symmetric, omega is antisymmetric) for any chart.  And any basis of the
    tangent space at a point is the frame of some chart: compose any chart
    with a linear change of coordinates.  So only the first-order frame at p
    enters, and tangent_space's basis serves.
    """
    F, _ = _real_frame(rs, p)
    # the derivative one point at a time: stacked, on 10 frames at n = 4, the
    # trial took 6.5 against 5.9 ms, and a verify round's peak memory rose
    # by 1.7 MB
    out = np.empty(F.shape[:-4])
    for k in np.ndindex(out.shape):
        out[k] = np.max(np.abs(_exterior_derivative(p.B[k], p.A[k], F[k])))
    return out[()]


# ---------------------------------------------------------------------------
# Gram matrices and nondegeneracy


def gram_matrix(p, U):
    """Complex Gram G of omega over stacked tangents U, and the realified
    minimum singular value.

    The realified form is Re(omega) on the doubled basis (u_j, i u_j); omega
    is complex bilinear, so its Gram is [[Re G, -Im G], [-Im G, -Re G]].
    Its smallest singular value certifies nondegeneracy of the complex form.
    Returns (G, min_singular); over a stack of points, a stack of each.
    """
    G = omega_gram(p.B, p.A, U)
    GR = np.block([[G.real, -G.imag], [-G.imag, -G.real]])
    return G, np.linalg.svd(GR, compute_uv=False)[..., -1]


# ---------------------------------------------------------------------------
# involution pullbacks


def involution_pullback_residual(rs, p):
    """Pullback defects (sigma, theta) of omega at a point; shape (..., 2) at a stack.

    sigma: max |omega(ds u, ds v) - omega(u, v)|;
    theta: max |omega(dt u, dt v) + conj(omega(u, v))|, both over all pairs
    from the real frame [U, iU] at p, mapped by the exact differentials.

    It cannot see the commutator term [dF F^{-1}, .] of the differentials:
    with K = dF F^{-1} that term adds the conjugation direction ([K, B'],
    [K, A']) at the image (B', A'), and omega pairs conjugation directions to
    zero with the tangent space and with one another, so dropping the term
    leaves this residual at round-off.  real_form_fixed_gap and
    test_involution_differentials_exact see that term.
    """
    F, Fs = _real_frame(rs, p)
    w = omega_gram(p.B, p.A, F)
    sp, tp = apply_sigma(rs, p, tol=np.inf), apply_theta(rs, p, tol=np.inf)
    ws = omega_gram(sp.B, sp.A, sigma_differential(rs, p, F, Fs))
    wt = omega_gram(tp.B, tp.A, theta_differential(rs, p, F, Fs))
    return np.stack([max_abs(ws - w), max_abs(wt + np.conj(w))], axis=-1)


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
    diagonal; at a stack of points, one row per point.
    """
    G = omega_gram(p.B, p.A, U)
    if np.count_nonzero(np.linalg.cond(G) > 1e10):
        raise DegenerateFormError("Gram matrix numerically singular")
    grads = _character_jacobian(rs, p.s) @ np.swapaxes(sdot, -1, -2)
    a = np.linalg.solve(G, np.swapaxes(grads, -1, -2))
    i, j = np.triu_indices(rs.n, 1)
    return np.abs((np.swapaxes(a, -1, -2) @ G @ a)[..., i, j])


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
    the larger of the two spectral gaps of _fixed_subspace.  At a stack of
    points the frames are stacks; np.linalg.lstsq does not broadcast, so the
    rest runs one point at a time.
    """
    F, Fs = _real_frame(rs, p)
    dt, ds = theta_differential(rs, p, F, Fs), sigma_differential(rs, p, F, Fs)
    out = np.empty(F.shape[:-4] + (3,))
    for k in np.ndindex(F.shape[:-4]):
        Tt, Ts = _involution_matrix(F[k], dt[k]), _involution_matrix(F[k], ds[k])
        Vt, gap_t = _fixed_subspace(2 * rs.n, Tt)
        Gt = omega_gram(p.B[k], p.A[k], np.tensordot(Vt.T, F[k], axes=1))
        joint, gap_joint = _fixed_subspace(2 * ((rs.n + 1) // 2), Ts, Tt)
        G2 = omega_gram(p.B[k], p.A[k], np.tensordot(joint.T, F[k], axes=1)).imag
        # a NaN gap propagates
        out[k] = (np.max(np.abs(Gt.real)), np.linalg.svd(G2, compute_uv=False)[-1],
                  np.maximum(gap_t, gap_joint))
    re_omega, omega2, gap = np.moveaxis(out, -1, 0)
    return {"re_omega_residual": re_omega, "omega2_min_singular": omega2, "fixed_gap": gap}
