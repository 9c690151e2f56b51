"""Stokes factors, the section element M(s), and the root-set derivation.

The unipotent Stokes factors Q_k are parametrized by two disjoint sets of
ordered index pairs (one per index chain).  These sets are not hard-coded:
derive_root_sets recovers them by exhaustive search over all candidate
pairs, filtered by four closure constraints that the structure must satisfy
(characteristic-polynomial identity, closure under the two parameter
involutions, and consistency of the cyclic index shift with conjugation).

Sector indices live on the lattice 1 + (1/(n+1))Z and are carried around as
integer numerators k_num = k*(n+1).
"""

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


def _chain_base(rs, k_num):
    """Resolve a sector numerator to (base set, shift count)."""
    n = rs.n
    N = n + 1
    if int(k_num) != k_num:
        raise InvalidSectorError(f"sector numerator must be an integer, got {k_num!r}")
    k_num = int(k_num)
    if (k_num - N) % 2 == 0:
        return rs.R1, (k_num - N) // 2
    return rs.R1p, (k_num - (N + 1)) // 2


def build_Q(rs, k_num, s, route="roots"):
    """The Stokes factor at sector numerator k_num for parameters s.

    route="roots" places the signed parameter entries directly from the
    shifted root set; route="shift" instead conjugates the base-sector factor
    by the appropriate power of the cyclic matrix.  Both agree to roundoff.
    """
    n = rs.n
    N = n + 1
    s = np.asarray(s, dtype=complex)
    base, m = _chain_base(rs, k_num)
    if route == "shift":
        st = structural_matrices(n)
        P = st.PiHat if n % 2 == 1 else st.Pi
        Pm = np.linalg.matrix_power(P, m) if m >= 0 else np.linalg.matrix_power(inverse(P), -m)
        base_k = N if base is rs.R1 else N + 1
        Q0 = build_Q(rs, base_k, s, route="roots")
        return Pm @ Q0 @ inverse(Pm)
    R = delta_shift(base, n, m)
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
    """Read the section parameters off the characteristic polynomial of A."""
    A = np.asarray(A, dtype=complex)
    n = A.shape[0] - 1
    c = char_poly(A)  # ascending, monic
    if n % 2 == 1:
        return c[1 : n + 1].copy()
    return np.array([(-1.0) ** (i + 1) * c[i] for i in range(1, n + 1)])


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


def dM_ds(rs, s):
    """Analytic partial derivatives of build_M with respect to each s_d.

    Each Stokes factor is affine in s, so the product rule over the three
    factors gives the exact derivative.
    """
    n = rs.n
    N = n + 1
    st = structural_matrices(n)
    P = st.PiHat if n % 2 == 1 else st.Pi
    Q1 = build_Q(rs, N, s)
    Q2 = build_Q(rs, N + 1, s)
    out = []
    I = np.eye(N, dtype=complex)
    for d in range(1, n + 1):
        e = np.zeros(n, dtype=complex)
        e[d - 1] = 1.0
        D1 = build_Q(rs, N, e) - I
        D2 = build_Q(rs, N + 1, e) - I
        out.append(D1 @ Q2 @ P + Q1 @ D2 @ P)
    return out


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


def derive_root_sets(n, time_budget=60.0, cache_dir=None, force=False):
    """Exhaustive search for the root-set pair (R1, R1p) at rank n.

    Candidates are all pairs of disjoint sets of ordered index pairs with
    total size n.  A cheap single-point screen runs first; survivors are
    confirmed at 2(n+2) further random points.  The search always finds
    exactly two survivors, transposes of each other; the transposed-pair
    lexicographic minimum is returned and the count is recorded.

    Results are memoized per process and optionally cached as JSON in
    cache_dir (default: the UCGL_ROOT_CACHE environment variable, if set).
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

    t0 = time.monotonic()
    rng = np.random.default_rng(12345)
    N = n + 1
    pairs = [(i, j) for i in range(N) for j in range(N) if i != j]
    survivors = []
    for a in range(n + 1):
        for R1 in itertools.combinations(pairs, a):
            R1f = frozenset(R1)
            rest = [p for p in pairs if p not in R1f]
            for R1p in itertools.combinations(rest, n - a):
                if time.monotonic() - t0 > time_budget:
                    raise SearchFailureError(
                        f"search budget {time_budget}s exhausted at rank {n}"
                    )
                cand = (R1f, frozenset(R1p))
                if _candidate_passes(*cand, n, rng, 1) and _candidate_passes(
                    *cand, n, rng, 2 * (n + 2)
                ):
                    survivors.append(cand)
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
