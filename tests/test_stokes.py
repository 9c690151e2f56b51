import itertools
import json

import numpy as np
import pytest

from ucgl.core import determinant, inverse, is_regular, structural_matrices
from ucgl.errors import DegenerateSampleError, InvalidSectorError, PreconditionError
from ucgl.groupoid import commuting_point, groupoid_compose, make_pair, unit
from ucgl.involutions import Base, make_point
from ucgl.stokes import (
    _candidate_passes,
    _orientations,
    _transposed_lex_key,
    build_M,
    build_Q,
    build_S,
    dM_ds,
    derive_root_sets,
    rand_palindromic_s,
    rand_s,
    section_membership,
    semisimple_s,
    sign_coeff,
    stokes_params_of,
)

# frozen output of derive_root_sets; n = 1..5 equal the exhaustive search
# that the closed-form rule replaced
EXPECTED_ROOTS = {
    1: (set(), {(1, 0)}),
    2: ({(1, 0)}, {(1, 2)}),
    3: ({(1, 0), (2, 3)}, {(1, 3)}),
    4: ({(2, 0), (3, 4)}, {(1, 0), (2, 4)}),
    5: ({(2, 0), (3, 5)}, {(1, 0), (2, 5), (3, 4)}),
    6: ({(2, 1), (3, 0), (4, 6)}, {(2, 0), (3, 6), (4, 5)}),
}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_derived_root_sets_match_frozen(n):
    rs = derive_root_sets(n)
    assert (set(rs.R1), set(rs.R1p)) == EXPECTED_ROOTS[n]
    assert rs.survivor_count == 2
    assert len(rs.R1) + len(rs.R1p) == n
    assert not (rs.R1 & rs.R1p)


@pytest.mark.parametrize("n, count", [(1, 2), (2, 2), (3, 4), (4, 4), (5, 8), (6, 8), (7, 16)])
def test_rule_orientations(n, count):
    """The rule's orientation count, and two confirmed, transposes of each other,
    also at n = 7, beyond derive_root_sets' rank cap."""
    cands = list(_orientations(n))
    assert len(cands) == len(set(cands)) == count
    rng = np.random.default_rng(12345)
    confirmed = {c for c in cands if _candidate_passes(*c, n, rng, 1 + 2 * (n + 2))}
    assert len(confirmed) == 2 and _transpose(min(confirmed, key=_transposed_lex_key)) in confirmed


def _transpose(cand):
    return tuple(frozenset((j, i) for (i, j) in part) for part in cand)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_screen_forwards_only_the_two_survivors(n):
    """Of the rule's orientations, the one-point screen forwards only the frozen
    pair and its transpose."""
    rng = np.random.default_rng(12345)
    forwarded = {c for c in _orientations(n) if _candidate_passes(*c, n, rng, 1)}
    expected = tuple(frozenset(part) for part in EXPECTED_ROOTS[n])
    assert forwarded == {expected, _transpose(expected)}


def _exhaustive_candidates(n):
    """Every pair of disjoint sets of ordered index pairs with total size n."""
    N = n + 1
    pairs = [(i, j) for i in range(N) for j in range(N) if i != j]
    for a in range(n + 1):
        for R1 in itertools.combinations(pairs, a):
            rest = [p for p in pairs if p not in R1]
            for R1p in itertools.combinations(rest, n - a):
                yield frozenset(R1), frozenset(R1p)


def _index_once_candidates(n):
    """The (n+1)^n 2^n candidates whose pairs carry each index d = (j-i) mod (n+1)
    once: a row i_d for each d = 1..n, the pair (i_d, i_d + d), and an R1/R1p split.
    No other candidate can pass the characteristic-polynomial identity: if no pair
    carries d, M(s) does not depend on s_d."""
    N = n + 1
    for rows in itertools.product(range(N), repeat=n):
        pairs = [(i, (i + d) % N) for d, i in enumerate(rows, 1)]
        for split in itertools.product((True, False), repeat=n):
            yield (frozenset(p for p, r in zip(pairs, split) if r),
                   frozenset(p for p, r in zip(pairs, split) if not r))


def _carries_each_index_once(cand, n):
    return sorted((j - i) % (n + 1) for (i, j) in cand[0] | cand[1]) == list(range(1, n + 1))


@pytest.mark.parametrize("n, count", [(1, 4), (2, 36), (3, 512), (4, 10000)])
def test_prescreen_is_the_index_permutation_subset(n, count):
    screened = list(_index_once_candidates(n))
    assert len(screened) == len(set(screened)) == count
    assert set(screened) == {
        c for c in _exhaustive_candidates(n) if _carries_each_index_once(c, n)
    }


@pytest.mark.parametrize("n", [1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)])
def test_pruned_search_matches_exhaustive(n):
    """The closed-form survivors are every candidate that passes the four constraints
    at one point and then at 2(n+2): over all candidates at n <= 3, over those that
    carry each index once at n = 4 and 5."""
    candidates = _exhaustive_candidates(n) if n <= 3 else _index_once_candidates(n)
    rng = np.random.default_rng(12345)
    exhaustive = {
        c for c in candidates
        if _candidate_passes(*c, n, rng, 1) and _candidate_passes(*c, n, rng, 2 * (n + 2))
    }
    closed_form = {c for c in _orientations(n) if _candidate_passes(*c, n, rng, 1 + 2 * (n + 2))}
    assert closed_form == exhaustive
    rs = derive_root_sets(n, force=True)
    assert rs.survivor_count == len(exhaustive) == 2
    assert exhaustive == {(rs.R1, rs.R1p), _transpose((rs.R1, rs.R1p))}


def test_rank1_hand_values(roots):
    rs = roots[1]
    s = np.array([2.0 + 0j])
    assert np.allclose(build_Q(rs, 3, s), [[1, 0], [-2, 1]])
    assert np.allclose(build_Q(rs, 1, s), [[1, 2], [0, 1]])
    assert np.allclose(build_Q(rs, 5, s), np.eye(2) + 2 * np.array([[0, 1], [0, 0]]))
    sig = 1.7
    M = build_M(rs, np.array([sig + 0j]))
    assert np.allclose(M, [[0, 1], [-1, -sig]])
    assert np.allclose(build_M(rs, np.zeros(1)), structural_matrices(1).PiHat)
    S1 = build_S(rs, 1, np.array([sig + 0j]))
    assert np.allclose(S1, [[1, 0], [-sig, 1]])
    S2 = build_S(rs, 2, np.array([sig + 0j]))
    assert np.max(np.abs(M @ M + S1 @ S2)) < 1e-12


def test_zero_parameters_give_identity_factors(roots):
    for n in (1, 2, 3):
        rs = roots[n]
        for k_num in range(n + 1, 2 * (n + 1)):
            assert np.allclose(build_Q(rs, k_num, np.zeros(n)), np.eye(n + 1))
        assert np.allclose(build_S(rs, 1, np.zeros(n)), np.eye(n + 1))


def test_invalid_sector_and_turn_index(roots):
    with pytest.raises(InvalidSectorError):
        build_Q(roots[1], 1.5, np.zeros(1))
    with pytest.raises(PreconditionError):
        build_S(roots[1], 3, np.zeros(1))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_round_trip_and_regularity(roots, n):
    rs = roots[n]
    rng = np.random.default_rng(50 + n)
    for _ in range(100):
        s = rand_s(rng, n)
        M = build_M(rs, s)
        assert np.max(np.abs(stokes_params_of(M) - s)) < 1e-10
        assert abs(determinant(M) - 1) < 1e-10
        assert is_regular(M)


def test_params_are_conjugation_invariant(roots):
    rs = roots[2]
    rng = np.random.default_rng(8)
    s = rand_s(rng, 2)
    M = build_M(rs, s)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.max(np.abs(stokes_params_of(g @ M @ inverse(g)) - s)) < 1e-9


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_power_identity(roots, n):
    rs = roots[n]
    rng = np.random.default_rng(60 + n)
    sign = -1.0 if n % 2 == 1 else 1.0
    for _ in range(100):
        s = rand_s(rng, n)
        M = build_M(rs, s)
        Mp = np.linalg.matrix_power(M, n + 1)
        S12 = build_S(rs, 1, s) @ build_S(rs, 2, s)
        assert np.max(np.abs(Mp - sign * S12)) < 1e-9 * max(1.0, np.max(np.abs(Mp)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_factor_routes_agree(n):
    """Also below k = n + 1, where the shift count m is negative and the shift
    route takes P^m as P^(m mod 2(n+1))."""
    rs = derive_root_sets(n)
    rng = np.random.default_rng(70 + n)
    s = rand_s(rng, n)
    for k_num in range(-2 * (n + 1), 4 * (n + 1)):
        direct = build_Q(rs, k_num, s)
        shifted = build_Q(rs, k_num, s, route="shift")
        assert np.max(np.abs(direct - shifted)) < 1e-13


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_dM_ds_matches_two_factor_formula(roots, n):
    """The product-rule helper reproduces the explicit two-factor formula bit for bit."""
    rs = roots[n]
    N = n + 1
    st = structural_matrices(n)
    P = st.PiHat if n % 2 == 1 else st.Pi
    I = np.eye(N, dtype=complex)
    rng = np.random.default_rng(80 + n)
    for _ in range(20):
        s = rand_s(rng, n)
        Q1, Q2 = build_Q(rs, N, s), build_Q(rs, N + 1, s)
        ref = []
        for d in range(n):
            e = np.zeros(n, dtype=complex)
            e[d] = 1.0
            D1, D2 = build_Q(rs, N, e) - I, build_Q(rs, N + 1, e) - I
            ref.append(D1 @ Q2 @ P + Q1 @ D2 @ P)
        assert np.asarray(dM_ds(rs, s)).tobytes() == np.array(ref).tobytes()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_antisymmetry_equivalence(roots, n):
    rs = roots[n]
    rng = np.random.default_rng(80 + n)
    for _ in range(20):
        sp = rand_palindromic_s(rng, n)
        for base_k in (n + 1, n + 2):
            Qa = build_Q(rs, base_k, sp)
            Qb = build_Q(rs, base_k + n + 1, sp)
            assert np.max(np.abs(Qb - inverse(Qa).T)) < 1e-10
        sg = rand_s(rng, n)
        worst = 0.0
        for base_k in (n + 1, n + 2):
            Qa = build_Q(rs, base_k, sg)
            Qb = build_Q(rs, base_k + n + 1, sg)
            worst = max(worst, np.max(np.abs(Qb - inverse(Qa).T)))
        assert worst > 1e-3


def test_section_membership(roots):
    rs3 = roots[3]
    rng = np.random.default_rng(90)
    s = rand_palindromic_s(rng, 3)
    mem = section_membership(rs3, build_M(rs3, s))
    assert mem["in_section"] and mem["in_local"]
    assert np.max(np.abs(mem["s"] - s)) < 1e-10
    mem = section_membership(rs3, build_M(rs3, np.array([1j, 0, -1j])))
    assert mem["in_section"] and not mem["in_local"]
    G = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    mem = section_membership(rs3, G)
    assert not mem["in_section"] and not mem["in_local"]


def test_one_base_serves_callers_at_different_tolerances(roots):
    """A base whose section gap lies between 1e-9 and 1e-7 fails make_point's
    default tolerance and passes groupoid_compose's 1e-7, from its one fit;
    section_membership fits afresh and compares at any tolerance."""
    rs = roots[3]
    rng = np.random.default_rng(91)
    A = build_M(rs, rand_s(rng, 3))
    A[0, 0] += 1e-8
    base = Base(rs, A)
    fit = base.fit
    assert 1e-9 < fit[1] < 1e-7
    p, q = (commuting_point(rs, base, seed) for seed in (3, 4))  # at tolerance 1e-7
    assert groupoid_compose(rs, make_pair(p, q)).base is base
    with pytest.raises(PreconditionError, match="not on the section"):
        make_point(rs, q.B, base)
    with pytest.raises(PreconditionError, match="not on the section"):
        unit(rs, base)
    assert base.fit is fit
    assert [section_membership(rs, A, tol)["in_section"] for tol in (1e-9, 1e-7)] == [False, True]
    bases = [
        build_M(rs, rand_palindromic_s(rng, 3)),  # on the real palindromic slice
        rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)),  # off the section
        build_M(rs, rand_s(rng, 3)),  # complex s
        build_M(rs, np.array([0.3, -1.2, 0.8], dtype=complex)),  # real, not palindromic
        np.full((4, 4), np.nan, dtype=complex),  # a NaN residual fails at every tol
    ]
    verdicts = [section_membership(rs, A)["in_section"] for A in bases]
    assert verdicts == [True, False, True, True, False]
    assert not section_membership(rs, bases[-1], np.inf)["in_section"]
    assert [section_membership(rs, A)["in_local"] for A in bases[:4]] == [True, False, False, False]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_semisimple_s_redraws_the_rows_that_miss(roots, n, monkeypatch):
    """A stack of count s drawn in one rand_s call, each with eigenvalue gaps of
    at least 1e-2; the rows that miss are redrawn together, in one call a
    round, and one draw is the only row of a stack of one."""
    rs = roots[n]
    i, j = np.triu_indices(n + 1, 1)
    s = semisimple_s(rs, np.random.default_rng(80 + n), 40)
    lam = np.linalg.eigvals(build_M(rs, s))
    assert s.shape == (40, n) and np.abs(lam[:, i] - lam[:, j]).min() >= 1e-2
    assert np.array_equal(semisimple_s(rs, np.random.default_rng(80 + n)),
                          semisimple_s(rs, np.random.default_rng(80 + n), 1)[0])
    assert semisimple_s(rs, np.random.default_rng(80 + n), 0).shape == (0, n)
    # every draw misses: 50 rand_s calls of the whole stack, then the error
    shapes = []
    monkeypatch.setattr("ucgl.stokes.rand_s", lambda rng, shape: shapes.append(shape) or
                        np.zeros(shape, dtype=complex))
    monkeypatch.setattr("ucgl.stokes.build_M", lambda rs, s: np.zeros(s.shape[:-1] + (n + 1,) * 2))
    with pytest.raises(DegenerateSampleError):
        semisimple_s(rs, np.random.default_rng(0), 3)
    assert shapes == [(3, n)] * 50


def test_sign_coeff_covers_all_pairs(roots):
    for n in (1, 2, 3):
        N = n + 1
        for i, j in itertools.permutations(range(N), 2):
            c, d = sign_coeff(i, j, n)
            assert abs(c) == 1.0
            assert d == (j - i) % N
        # build_Q places exactly these signed parameters on the base chain's pairs
        s = rand_s(np.random.default_rng(70 + n), n)
        Q = build_Q(roots[n], N, s)
        for i, j in roots[n].R1:
            c, d = sign_coeff(i, j, n)
            assert Q[i, j] == c * s[d - 1]


def test_cache_round_trip(tmp_path):
    rs = derive_root_sets(1, cache_dir=str(tmp_path), force=True)
    path = tmp_path / "roots_n1.json"
    assert path.exists()
    data = json.loads(path.read_text())
    assert data["n"] == 1 and data["survivor_count"] == 2
    again = derive_root_sets(1, cache_dir=str(tmp_path))
    assert again.R1 == rs.R1 and again.R1p == rs.R1p
