"""Stokes factors, the section element M(s), and the root-set pair.

The unipotent Stokes factors Q_k are parametrized by two disjoint sets of
ordered index pairs (one per index chain).  derive_root_sets builds them
from a closed-form rule, two anti-diagonals of index pairs in all their
admissible orientations, and confirms each orientation against four closure
constraints that the structure must satisfy at random points
(characteristic-polynomial identity, closure under the two parameter
involutions, and consistency of the cyclic index shift with conjugation).

Sector indices live on the lattice 1 + (1/(n+1))Z and are carried around as
integer numerators k_num = k*(n+1).
"""

import functools
import itertools
import json
import os
from dataclasses import dataclass

import numpy as np

from .core import char_poly, inverse, structural_matrices
from .errors import (
    DegenerateSampleError,
    InvalidSectorError,
    PreconditionError,
    SearchFailureError,
)

#: per-point tolerance for the random-point identity checks of a candidate
SEARCH_TOL = 1e-9

_memo = {}


@dataclass(frozen=True)
class RootSetData:
    """Derived root sets at rank n.

    R1 is the index-pair set for the base sector k = 1, R1p the set for
    k = 1 + 1/(n+1).  survivor_count records how many orientations of the
    closed-form rule passed every closure constraint (the survivors are
    transposes of one another; the returned one is the lexicographic least
    after transposing pairs, which pins a single convention).
    """

    n: int
    R1: frozenset
    R1p: frozenset
    survivor_count: int


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
        P = structural_matrices(n).cyclic
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
    N = rs.n + 1
    return build_Q(rs, N, s) @ build_Q(rs, N + 1, s) @ structural_matrices(rs.n).cyclic


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
    c = char_poly(A)[1 : n + 1]  # ascending, monic
    return c if n % 2 == 1 else (-1.0) ** np.arange(2, n + 2) * c


def rand_s(rng, n):
    """Random complex parameters, standard normal real and imaginary parts."""
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def rand_palindromic_s(rng, n):
    """Random real palindromic parameters, s_i = s_{n+1-i}."""
    half = rng.standard_normal((n + 1) // 2)
    return np.concatenate([half, half[: n // 2][::-1]]).astype(complex)


def semisimple_s(rs, rng):
    """Random s whose section element has pairwise eigenvalue gaps of at least 1e-2.

    Draws up to 50 times before giving up.
    """
    for _ in range(50):
        s = rand_s(rng, rs.n)
        lam = np.roots(char_poly(build_M(rs, s))[::-1])
        if all(abs(a - b) >= 1e-2 for a, b in itertools.combinations(lam, 2)):
            return s
    raise DegenerateSampleError("could not find a well-separated spectrum")


def section_membership(rs, A, tol=1e-9):
    """Whether A lies on the section, and on its real palindromic slice.

    Returns a dict with in_section, in_local and the read-off parameters s.
    in_local additionally requires s real and s_i = s_{n-i+1}.  A NaN
    residual fails both.

    The fit itself, s and its three residuals, is memoised by value in
    _section_fit: one entry per root set and the shape and bytes of A, 32
    entries, compared against tol here, so calls at any tolerance share an
    entry and every residual is the one a fresh fit gives.  The returned s
    is read-only.
    """
    A = np.asarray(A, dtype=complex)
    s, gap, imag, asym = _section_fit(rs, A.shape, A.tobytes())
    in_section = bool(gap < tol)
    in_local = in_section and bool(imag < tol and asym < tol)
    return {"in_section": in_section, "in_local": in_local, "s": s}


@functools.lru_cache(maxsize=32)
def _section_fit(rs, shape, data):
    """s = stokes_params_of(A) for A from its shape and bytes, with max|A - M(s)|,
    max|Im s| and max|s - s reversed|."""
    A = np.frombuffer(data, dtype=complex).reshape(shape)
    s = stokes_params_of(A)
    s.flags.writeable = False
    return (s, np.max(np.abs(A - build_M(rs, s))), np.max(np.abs(s.imag)),
            np.max(np.abs(s - s[::-1])))


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
    P = structural_matrices(n).cyclic
    return factor_product_derivative(rs, (N, N + 1, P), s, np.eye(n, dtype=complex))


# ---------------------------------------------------------------------------
# closed-form root sets


def _candidate_passes(R1, R1p, n, rng, npts):
    """Check the four closure constraints at npts random parameter vectors."""
    from .involutions import F_sigma, F_theta  # deferred: involutions imports us

    cand = RootSetData(n=n, R1=R1, R1p=R1p, survivor_count=0)
    P = structural_matrices(n).cyclic
    powers = [np.linalg.matrix_power(P, m) for m in range(1, n + 1)]
    shifts = [(Pm, inverse(Pm)) for Pm in powers]
    for _ in range(npts):
        s = rand_s(rng, n)
        M = build_M(cand, s)
        # (a) characteristic-polynomial identity
        if np.max(np.abs(stokes_params_of(M) - s)) > SEARCH_TOL:
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
            for m, (Pm, Pm_inv) in enumerate(shifts, start=1):
                Qm = build_Q(cand, base_k + 2 * m, s)
                if np.max(np.abs(Qm - Pm @ Q0 @ Pm_inv)) > 1e-8:
                    return False
    return True


def _transposed_lex_key(cand):
    R1t = tuple(sorted((j, i) for (i, j) in cand[0]))
    R1pt = tuple(sorted((j, i) for (i, j) in cand[1]))
    return (R1t, R1pt)


def _orientations(n):
    """Every orientation of derive_root_sets' two anti-diagonals, as (R1, R1p):
    2, 2, 4, 4, 8, 8 and 16 of them at n = 1..7."""
    N = n + 1
    chains = [[(i, j) for i in range(N) for j in range(i + 1, N) if (i + j - c) % N == 0]
              for c in (n // 2, n // 2 - 1)]
    pairs = chains[0] + chains[1]
    for flips in itertools.product((False, True), repeat=len(pairs)):
        oriented = [(j, i) if flip else (i, j) for (i, j), flip in zip(pairs, flips)]
        if sorted((j - i) % N for i, j in oriented) == list(range(1, N)):
            yield frozenset(oriented[: len(chains[0])]), frozenset(oriented[len(chains[0]) :])


def derive_root_sets(n, cache_dir=None, force=False):
    """The root-set pair (R1, R1p) at rank n, from a closed-form rule.

    The rule: R1 holds the pairs with i + j = floor(n/2) (mod n+1) and R1p
    the pairs with i + j = floor(n/2) - 1, always with i != j, and each
    unordered pair is oriented so that the parameter indices
    d = (j-i) mod (n+1) run through 1..n once (_orientations).  Each
    orientation is confirmed by all four closure constraints at 1 + 2(n+2)
    random points (_candidate_passes).  survivor_count is the number
    confirmed: 2 at every rank, transposes of each other, of which the
    transposed-pair lexicographic minimum is returned.  If none is
    confirmed, SearchFailureError is raised.

    The rule is a conjecture; no proof that it satisfies the constraints at
    every n is written.  The tests check it against the candidates it
    leaves out: the pairs of disjoint sets of n ordered pairs that pass the
    constraints at random points are exactly its two survivors at n <= 3,
    and so are those that carry each index d once at n = 4 and, among the
    slow tests, n = 5 (no other candidate can pass the
    characteristic-polynomial identity: if no pair carries d, M(s) does not
    depend on s_d).  At n = 6, and at n = 7 beyond the rank cap, the tests
    confirm its two survivors with nothing to compare them against.

    Results are memoized per process and optionally cached as JSON in
    cache_dir (default: the UCGL_ROOT_CACHE environment variable, if set);
    force=True derives them again.
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

    rng = np.random.default_rng(12345)
    survivors = [c for c in _orientations(n) if _candidate_passes(*c, n, rng, 1 + 2 * (n + 2))]
    if not survivors:
        raise SearchFailureError(f"no closed-form root-set orientation confirmed at rank {n}")
    best = min(survivors, key=_transposed_lex_key)
    rs = RootSetData(n=n, R1=best[0], R1p=best[1], survivor_count=len(survivors))
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
    return RootSetData(
        n=int(data["n"]),
        R1=frozenset(tuple(p) for p in data["R1"]),
        R1p=frozenset(tuple(p) for p in data["R1p"]),
        survivor_count=int(data["survivor_count"]),
    )
