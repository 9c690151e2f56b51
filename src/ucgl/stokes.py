"""Stokes factors, the section element M(s), and the root-set derivation.

The unipotent Stokes factors Q_k are parametrized by two disjoint sets of
ordered index pairs (one per index chain).  These sets are not hard-coded:
derive_root_sets recovers them by a search over candidate pairs of sets,
filtered by four closure constraints that the structure must satisfy
(characteristic-polynomial identity, closure under the two parameter
involutions, and consistency of the cyclic index shift with conjugation).
A combinatorial pre-screen, proven in derive_root_sets, keeps only the
candidates whose pairs carry each parameter index exactly once; those are
screened at one random point in batches of stacked matrices, by the
characteristic-polynomial identity and then by closure under both
involutions, and the two that pass are confirmed against all four
constraints at further random points.

Sector indices live on the lattice 1 + (1/(n+1))Z and are carried around as
integer numerators k_num = k*(n+1).
"""

import functools
import itertools
import json
import os
import time
from dataclasses import dataclass

import numpy as np

from .core import char_poly, inverse, structural_matrices
from .errors import (
    DegenerateSampleError,
    InvalidSectorError,
    PreconditionError,
    SearchFailureError,
)

#: per-point tolerance for the random-point identity checks in the search
SEARCH_TOL = 1e-9

#: candidates per batch of the numeric screen; keeps each stacked array small
_SCREEN_CHUNK = 256

_memo = {}


@dataclass(frozen=True)
class RootSetData:
    """Derived root sets at rank n.

    R1 is the index-pair set for the base sector k = 1, R1p the set for
    k = 1 + 1/(n+1).  survivor_count records how many candidate pairs passed
    every search constraint (the survivors are transposes of one another;
    the returned one is the lexicographic least after transposing pairs,
    which pins a single convention).
    """

    n: int
    parity: str
    R1: frozenset
    R1p: frozenset
    survivor_count: int

    def sign_table(self):
        """Map (i,j) -> (coefficient, parameter index) over all ordered pairs."""
        table = {}
        for i in range(self.n + 1):
            for j in range(self.n + 1):
                if i != j:
                    table[(i, j)] = sign_coeff(i, j, self.n)
        return table


def sign_coeff(i, j, n):
    """Coefficient and parameter index of the (i,j) entry of a Stokes factor.

    Returns (c, d) so the entry is c * s_d with d = (j-i) mod (n+1).  For odd
    n the coefficient is +1 above the diagonal and -1 below; for even n an
    extra alternating factor (-1)^{j-i} comes in.
    """
    d = (j - i) % (n + 1)
    if n % 2 == 1:
        return (1.0 if i < j else -1.0), d
    pm = (-1.0) ** ((j - i) % 2)
    return (pm if i < j else -pm), d


def delta_shift(pairs, n, m):
    """Apply the index rotation i -> i-m mod (n+1) to a set of pairs."""
    return frozenset(((i - m) % (n + 1), (j - m) % (n + 1)) for (i, j) in pairs)


def _chain_base(n, k_num):
    """Resolve a sector numerator to (whether its base set is R1, shift count)."""
    N = n + 1
    if int(k_num) != k_num:
        raise InvalidSectorError(f"sector numerator must be an integer, got {k_num!r}")
    k_num = int(k_num)
    if (k_num - N) % 2 == 0:
        return True, (k_num - N) // 2
    return False, (k_num - (N + 1)) // 2


def build_Q(rs, k_num, s, route="roots"):
    """The Stokes factor at sector numerator k_num for parameters s.

    route="roots" places the signed parameter entries directly from the
    shifted root set; route="shift" instead conjugates the base-sector factor
    by the appropriate power of the cyclic matrix.  Both agree to roundoff.
    """
    n = rs.n
    N = n + 1
    s = np.asarray(s, dtype=complex)
    on_R1, m = _chain_base(n, k_num)
    if route == "shift":
        st = structural_matrices(n)
        P = st.PiHat if n % 2 == 1 else st.Pi
        Pm = np.linalg.matrix_power(P, m) if m >= 0 else np.linalg.matrix_power(inverse(P), -m)
        Q0 = build_Q(rs, N if on_R1 else N + 1, s, route="roots")
        return Pm @ Q0 @ inverse(Pm)
    R = delta_shift(rs.R1 if on_R1 else rs.R1p, n, m)
    Q = np.eye(N, dtype=complex)
    for (i, j) in R:
        c, d = sign_coeff(i, j, n)
        Q[i, j] += c * s[d - 1]
    return Q


def build_M(rs, s):
    """The section element: product of the two base Stokes factors and the cyclic twist."""
    st = structural_matrices(rs.n)
    P = st.PiHat if rs.n % 2 == 1 else st.Pi
    N = rs.n + 1
    return build_Q(rs, N, s) @ build_Q(rs, N + 1, s) @ P


def build_S(rs, m, s):
    """Full-turn factor product: the n+1 consecutive Stokes factors starting at k = m."""
    if m not in (1, 2):
        raise PreconditionError("m must be 1 or 2")
    N = rs.n + 1
    S = np.eye(N, dtype=complex)
    for k_num in range(m * N, m * N + N):
        S = S @ build_Q(rs, k_num, s)
    return S


def stokes_params_of(A):
    """Read the section parameters off the characteristic polynomial of A.

    A may be one matrix or a stack of shape (..., n+1, n+1); the parameters
    then have shape (..., n).
    """
    A = np.asarray(A, dtype=complex)
    n = A.shape[-1] - 1
    c = char_poly(A)[..., 1 : n + 1]  # ascending, monic
    return c if n % 2 == 1 else (-1.0) ** np.arange(2, n + 2) * c


def rand_s(rng, n):
    """Random complex parameters, standard normal real and imaginary parts."""
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def rand_palindromic_s(rng, n):
    """Random real palindromic parameters, s_i = s_{n+1-i}."""
    half = rng.standard_normal((n + 1) // 2)
    return np.concatenate([half, half[: n // 2][::-1]]).astype(complex)


def semisimple_s(rs, rng, gap=1e-2, tries=50):
    """Random s whose section element has pairwise eigenvalue gaps above gap."""
    for _ in range(tries):
        s = rand_s(rng, rs.n)
        lam = np.roots(char_poly(build_M(rs, s))[::-1])
        if all(abs(a - b) >= gap for a, b in itertools.combinations(lam, 2)):
            return s
    raise DegenerateSampleError("could not find a well-separated spectrum")


def section_membership(rs, A, tol=1e-9):
    """Whether A lies on the section, and on its real palindromic slice.

    Returns a dict with in_section, in_local and the read-off parameters s.
    in_local additionally requires s real and s_i = s_{n-i+1}.
    """
    A = np.asarray(A, dtype=complex)
    s = stokes_params_of(A)
    in_section = bool(np.max(np.abs(A - build_M(rs, s))) < tol)
    in_local = in_section and bool(
        np.max(np.abs(s.imag)) < tol and np.max(np.abs(s - s[::-1])) < tol
    )
    return {"in_section": in_section, "in_local": in_local, "s": s}


def factor_product_derivative(rs, factors, s, sdots):
    """Derivatives, along each row of sdots, of a product of factors at s.

    A factor is a sector numerator k, standing for Q_k(s), or a constant
    matrix.  Q_k is affine in s, with derivative Q_k(sdot) - I along sdot.
    """
    I = np.eye(rs.n + 1, dtype=complex)
    moving = [i for i, f in enumerate(factors) if np.isscalar(f)]
    Q = [build_Q(rs, f, s) if i in moving else f for i, f in enumerate(factors)]
    out = []
    for sdot in sdots:
        terms = [Q[:i] + [build_Q(rs, factors[i], sdot) - I] + Q[i + 1 :] for i in moving]
        terms = [functools.reduce(np.matmul, term) for term in terms]
        out.append(sum(terms[1:], terms[0]))
    return np.array(out)


def dM_ds(rs, s):
    """Analytic partial derivatives of build_M with respect to each s_d.

    Each Stokes factor is affine in s, so the product rule over the three
    factors gives the exact derivative.
    """
    n = rs.n
    N = n + 1
    st = structural_matrices(n)
    P = st.PiHat if n % 2 == 1 else st.Pi
    return factor_product_derivative(rs, (N, N + 1, P), s, np.eye(n, dtype=complex))


# ---------------------------------------------------------------------------
# constrained search


def _candidate_passes(R1, R1p, n, rng, npts, tol=SEARCH_TOL):
    """Check the four closure constraints at npts random parameter vectors."""
    from .involutions import F_sigma, F_theta  # deferred: involutions imports us

    cand = RootSetData(n=n, parity="odd" if n % 2 else "even", R1=R1, R1p=R1p,
                       survivor_count=0)
    st = structural_matrices(n)
    P = st.PiHat if n % 2 == 1 else st.Pi
    for _ in range(npts):
        s = rand_s(rng, n)
        M = build_M(cand, s)
        # (a) characteristic-polynomial identity
        if np.max(np.abs(stokes_params_of(M) - s)) > tol:
            return False
        # (b) closure under the parameter-reversing involution
        Fs = F_sigma(cand, s)
        T = Fs @ inverse(M).T @ inverse(Fs)
        if np.max(np.abs(T - build_M(cand, s[::-1]))) > 1e-8:
            return False
        # (c) closure under the conjugate-reversing involution
        Ft = F_theta(cand, s)
        T = Ft @ inverse(np.conj(M)) @ inverse(Ft)
        if np.max(np.abs(T - build_M(cand, np.conj(s[::-1])))) > 1e-8:
            return False
        # (d) cyclic index shift matches conjugation along both chains
        for base_k in (n + 1, n + 2):
            Q0 = build_Q(cand, base_k, s)
            for m in range(1, n + 1):
                Qm = build_Q(cand, base_k + 2 * m, s)
                Pm = np.linalg.matrix_power(P, m)
                if np.max(np.abs(Qm - Pm @ Q0 @ inverse(Pm))) > 1e-8:
                    return False
    return True


def _transposed_lex_key(cand):
    R1t = tuple(sorted((j, i) for (i, j) in cand[0]))
    R1pt = tuple(sorted((j, i) for (i, j) in cand[1]))
    return (R1t, R1pt)


def _prescreened_candidates(n, start, stop):
    """Candidates start..stop-1 of the pre-screen, as index arrays.

    Candidate c picks, for each parameter index d = 1..n, the pair
    (i_d, i_d + d mod n+1) with i_d the d-th base-(n+1) digit of c >> n, and
    puts it in R1 when bit d-1 of c is set, else in R1p.  Returns the rows
    i, columns j and R1 flags, each of shape (stop - start, n).
    """
    N = n + 1
    c = np.arange(start, stop)[:, None]
    d = np.arange(1, n + 1)
    i = (c >> n) // N ** (d - 1) % N
    return i, (i + d) % N, (c >> (d - 1)) & 1 == 1


@functools.lru_cache(maxsize=None)
def _sign_matrix(n):
    """sign_coeff's coefficient of every ordered pair (i, j), zero on the diagonal."""
    N = n + 1
    c = np.array([[sign_coeff(i, j, n)[0] if i != j else 0.0 for j in range(N)]
                  for i in range(N)])
    c.flags.writeable = False
    return c


def _stacked_Q(i, j, in_R1, k_num, s):
    """build_Q at sector k_num and s for each row of _prescreened_candidates' arrays.

    The base chain and shift come from _chain_base, and the pairs rotate as
    in delta_shift; returns an (m, n+1, n+1) stack.
    """
    n = i.shape[1]
    N = n + 1
    on_R1, m = _chain_base(n, k_num)
    d = (j - i) % N
    i, j = (i - m) % N, (j - m) % N
    Q = np.tile(np.eye(N, dtype=complex), (len(i), 1, 1))
    Q[np.arange(len(i))[:, None], i, j] += np.where(in_R1 == on_R1,
                                                    _sign_matrix(n)[i, j] * s[d - 1], 0.0)
    return Q


def _screen_chunk(start, stop, s):
    """The candidates in start..stop-1 that pass constraints (a) to (c) at s.

    The checks and tolerances are _candidate_passes's at one point, on
    stacks: (a) over the whole chunk, then (b) and (c) over the candidates
    left, with the twists of involutions.F_sigma and F_theta built from
    stacked factors.  Returns the survivors' rows, columns and R1 flags as
    _prescreened_candidates does.
    """
    n = len(s)
    N = n + 1
    st = structural_matrices(n)
    P = st.PiHat if n % 2 == 1 else st.Pi

    def section(cand, x):
        return _stacked_Q(*cand, N, x) @ _stacked_Q(*cand, N + 1, x) @ P

    def gap(X, Y):
        return np.max(np.abs(X - Y), axis=(-2, -1))

    cand = _prescreened_candidates(n, start, stop)
    M = section(cand, s)
    # (a) characteristic-polynomial identity
    ok = np.max(np.abs(stokes_params_of(M) - s), axis=-1) <= SEARCH_TOL
    cand, M = tuple(a[ok] for a in cand), M[ok]
    # (b) closure under sigma: F_sigma = PiHat^{(n+1)/2} at odd n, S_1(s)^T at even n
    if n % 2 == 1:
        F = np.linalg.matrix_power(st.PiHat, N // 2)
    else:
        F = functools.reduce(np.matmul, [_stacked_Q(*cand, k, s) for k in range(N, 2 * N)])
        F = F.swapaxes(-2, -1)
    T = F @ np.linalg.inv(M).swapaxes(-2, -1) @ np.linalg.inv(F)
    ok = gap(T, section(cand, s[::-1])) <= 1e-8
    cand, M = tuple(a[ok] for a in cand), M[ok]
    # (c) closure under theta: F_theta = Ctilde conj(Q_n(s)) at odd n, C at even n
    G = st.Ctilde @ np.conj(_stacked_Q(*cand, n, s)) if n % 2 == 1 else st.C
    T = G @ np.linalg.inv(np.conj(M)) @ np.linalg.inv(G)
    ok = gap(T, section(cand, np.conj(s[::-1]))) <= 1e-8
    return tuple(a[ok] for a in cand)


def _candidate_sets(i, j, in_R1):
    """The (R1, R1p) pair of one row of _prescreened_candidates."""
    pairs = list(zip(i.tolist(), j.tolist(), in_R1.tolist()))
    return (frozenset((a, b) for a, b, r in pairs if r),
            frozenset((a, b) for a, b, r in pairs if not r))


def _search(n, time_budget):
    """Every candidate that passes the screen and its confirmation, as (R1, R1p)."""
    t0 = time.monotonic()
    rng = np.random.default_rng(12345)
    s = rand_s(rng, n)
    total = (n + 1) ** n << n
    survivors = []
    for start in range(0, total, _SCREEN_CHUNK):
        if time.monotonic() - t0 > time_budget:
            raise SearchFailureError(
                f"search budget {time_budget}s exhausted at rank {n}"
            )
        for row in zip(*_screen_chunk(start, min(start + _SCREEN_CHUNK, total), s)):
            cand = _candidate_sets(*row)
            if _candidate_passes(*cand, n, rng, 1 + 2 * (n + 2)):
                survivors.append(cand)
    return survivors


def derive_root_sets(n, time_budget=60.0, cache_dir=None, force=False):
    """Search for the root-set pair (R1, R1p) at rank n.

    The candidates are the pairs of disjoint sets of ordered index pairs with
    total size n that carry each parameter index d = (j-i) mod (n+1) exactly
    once; each is one choice of pair per index and one R1/R1p split, so there
    are (n+1)^n 2^n of them (4, 36, 512, 10,000, 248,832 at n = 1..5).  No
    other candidate can pass constraint (a): if no pair carries the index d,
    M(s) does not depend on s_d, so stokes_params_of(M(s))_d cannot equal s_d
    for all s, and (a) fails at a random s with probability 1.  Every index
    must therefore appear, and n pairs carry each of the n indices exactly
    once.

    Constraints (a), (b) and (c) then run at one random s over stacked
    matrices, in chunks of _SCREEN_CHUNK candidates; the budget is checked
    once per chunk.  (a) alone passes 4/36/264/2,050/17,220 candidates at
    n = 1..5; (b) and (c) leave 2 at each of these ranks, and only these
    are confirmed by all four constraints at 1 + 2(n+2) further random
    points, with the twists of involutions.F_sigma and F_theta themselves.
    Constraint (d) is a sum of one condition per pair, and every single
    pair passes it at n = 1..6, so it rejects nothing on its own; it stays
    in the confirmation as a check.  The search always finds exactly two
    survivors, transposes of each other; the transposed-pair lexicographic
    minimum is returned and the count is recorded.  On a 2-CPU machine the
    search takes about 0.005, 0.02, 0.02, 0.12 and 2.4 s at n = 1..5, most
    of the n = 5 time in the stacked char_poly of (a).

    Results are memoized per process and optionally cached as JSON in
    cache_dir (default: the UCGL_ROOT_CACHE environment variable, if set);
    force=True runs the whole search again.
    """
    if not 1 <= n <= 6:
        raise PreconditionError("rank must be between 1 and 6")
    if cache_dir is None:
        cache_dir = os.environ.get("UCGL_ROOT_CACHE")
    if not force:
        if n in _memo:
            return _memo[n]
        if cache_dir:
            path = os.path.join(cache_dir, f"roots_n{n}.json")
            if os.path.exists(path):
                with open(path) as fh:
                    rs = root_sets_from_dict(json.load(fh))
                _memo[n] = rs
                return rs

    survivors = _search(n, time_budget)
    if not survivors:
        raise SearchFailureError(f"no root-set candidate survived at rank {n}")
    best = min(survivors, key=_transposed_lex_key)
    rs = RootSetData(
        n=n,
        parity="odd" if n % 2 == 1 else "even",
        R1=best[0],
        R1p=best[1],
        survivor_count=len(survivors),
    )
    _memo[n] = rs
    if cache_dir:
        os.makedirs(cache_dir, exist_ok=True)
        with open(os.path.join(cache_dir, f"roots_n{n}.json"), "w") as fh:
            json.dump(root_sets_to_dict(rs), fh, sort_keys=True)
    return rs


def root_sets_to_dict(rs):
    return {
        "n": rs.n,
        "R1": sorted([list(p) for p in rs.R1]),
        "R1p": sorted([list(p) for p in rs.R1p]),
        "survivor_count": rs.survivor_count,
    }


def root_sets_from_dict(data):
    n = int(data["n"])
    return RootSetData(
        n=n,
        parity="odd" if n % 2 == 1 else "even",
        R1=frozenset(tuple(p) for p in data["R1"]),
        R1p=frozenset(tuple(p) for p in data["R1p"]),
        survivor_count=int(data["survivor_count"]),
    )
