import itertools
import json

import numpy as np
import pytest

from ucgl.core import determinant, inverse, is_regular, structural_matrices
from ucgl.errors import InvalidSectorError, PreconditionError
from ucgl.stokes import (
    RootSetData,
    _candidate_passes,
    _candidate_sets,
    _prescreened_candidates,
    _screen_chunk,
    _search,
    _stacked_Q,
    build_M,
    build_Q,
    build_S,
    dM_ds,
    derive_root_sets,
    rand_palindromic_s,
    rand_s,
    section_membership,
    stokes_params_of,
)

# frozen output of the constrained search (independently re-derived in the
# acceptance suite with a fresh search)
EXPECTED_ROOTS = {
    1: (set(), {(1, 0)}),
    2: ({(1, 0)}, {(1, 2)}),
    3: ({(1, 0), (2, 3)}, {(1, 3)}),
    4: ({(2, 0), (3, 4)}, {(1, 0), (2, 4)}),
    5: ({(2, 0), (3, 5)}, {(1, 0), (2, 5), (3, 4)}),
}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_derived_root_sets_match_frozen(roots, n):
    rs = roots[n]
    assert (set(rs.R1), set(rs.R1p)) == EXPECTED_ROOTS[n]
    assert rs.survivor_count == 2
    assert len(rs.R1) + len(rs.R1p) == n
    assert not (rs.R1 & rs.R1p)


def test_rank5_derives_within_the_default_budget():
    rs = derive_root_sets(5, force=True)
    assert (set(rs.R1), set(rs.R1p)) == EXPECTED_ROOTS[5]
    assert rs.survivor_count == 2


def _transpose(cand):
    return tuple(frozenset((j, i) for (i, j) in part) for part in cand)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stacked_factors_match_build_Q(n):
    N = n + 1
    i, j, in_R1 = _prescreened_candidates(n, 0, N ** n << n)
    s = rand_s(np.random.default_rng(30 + n), n)
    parity = "odd" if n % 2 == 1 else "even"
    cands = [RootSetData(n, parity, *_candidate_sets(*row), 0) for row in zip(i, j, in_R1)]
    for k_num in range(n, 2 * N + 2):
        stacked = _stacked_Q(i, j, in_R1, k_num, s)
        assert np.array_equal(stacked, [build_Q(rs, k_num, s) for rs in cands])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_screen_forwards_only_the_two_survivors(n):
    s = rand_s(np.random.default_rng(12345), n)
    forwarded = {_candidate_sets(*row) for row in zip(*_screen_chunk(0, (n + 1) ** n << n, s))}
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


def _carries_each_index_once(cand, n):
    return sorted((j - i) % (n + 1) for (i, j) in cand[0] | cand[1]) == list(range(1, n + 1))


@pytest.mark.parametrize("n, count", [(1, 4), (2, 36), (3, 512), (4, 10000)])
def test_prescreen_is_the_index_permutation_subset(n, count):
    screened = [_candidate_sets(*row)
                for row in zip(*_prescreened_candidates(n, 0, (n + 1) ** n << n))]
    assert len(screened) == len(set(screened)) == count
    assert set(screened) == {
        c for c in _exhaustive_candidates(n) if _carries_each_index_once(c, n)
    }


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pruned_search_matches_exhaustive(n):
    # the unpruned search: every candidate, one-point screen, then confirmation
    rng = np.random.default_rng(12345)
    exhaustive = {
        c for c in _exhaustive_candidates(n)
        if _candidate_passes(*c, n, rng, 1) and _candidate_passes(*c, n, rng, 2 * (n + 2))
    }
    pruned = _search(n, time_budget=60.0)
    assert len(pruned) == 2
    assert set(pruned) == exhaustive


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


@pytest.mark.parametrize("n", [2, 3])
def test_params_of_a_stack(roots, n):
    rng = np.random.default_rng(40 + n)
    s = [rand_s(rng, n) for _ in range(5)]
    params = stokes_params_of(np.array([build_M(roots[n], x) for x in s]))
    assert params.shape == (5, n)
    for x, p in zip(s, params):
        assert np.array_equal(p, stokes_params_of(build_M(roots[n], x)))
        assert np.max(np.abs(p - x)) < 1e-10


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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_factor_routes_agree(roots, n):
    rs = roots[n]
    rng = np.random.default_rng(70 + n)
    s = rand_s(rng, n)
    for k_num in range(n + 1, 4 * (n + 1)):
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


def test_sign_table_covers_all_pairs(roots):
    for n in (1, 2, 3):
        table = roots[n].sign_table()
        assert len(table) == (n + 1) * n
        for (i, j), (c, d) in table.items():
            assert abs(c) == 1.0
            assert d == (j - i) % (n + 1)


def test_cache_round_trip(tmp_path):
    rs = derive_root_sets(1, cache_dir=str(tmp_path), force=True)
    path = tmp_path / "roots_n1.json"
    assert path.exists()
    data = json.loads(path.read_text())
    assert data["n"] == 1 and data["survivor_count"] == 2
    again = derive_root_sets(1, cache_dir=str(tmp_path))
    assert again.R1 == rs.R1 and again.R1p == rs.R1p
