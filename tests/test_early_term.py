"""Tests for the early-termination combinatorics (Algorithms 6–8)."""
from itertools import combinations
from math import prod

import pytest

from repro.core.early_term import (
    cycle_mis,
    enumerate_tplex,
    inverse_components,
    path_mis,
)


def as_lists(table) -> list[list[int]]:
    return sorted(list(mis) for mis in table)


def nbr_in_c_of(nonadj: dict[int, list[int]]) -> tuple[set[int], dict[int, set[int]]]:
    """(C, v -> C ∩ N(v)) of the candidate graph whose inverse graph is
    ``nonadj``."""
    C = set(nonadj)
    return C, {v: C - {v} - set(nonadj[v]) for v in C}


def tplex_cliques(nonadj, S=()) -> list[tuple[int, ...]]:
    return enumerate_tplex(list(S), *nbr_in_c_of(nonadj))


def brute_mis(nbrs: dict[int, set[int]], verts) -> list[list[int]]:
    """All maximal independent sets of a small graph, by subset search."""
    verts = sorted(verts)
    out = []
    for size in range(0, len(verts) + 1):
        for sub in combinations(verts, size):
            s = set(sub)
            if any(b in nbrs[a] for a, b in combinations(sub, 2)):
                continue
            if all(any(w in nbrs[v] for w in s) for v in verts if v not in s):
                out.append(sorted(sub))
    return sorted(out)


# -- paths ---------------------------------------------------------------
@pytest.mark.parametrize("k", range(1, 13))
def test_path_mis_matches_brute_force(k):
    nbrs = {i: {j for j in (i - 1, i + 1) if 0 <= j < k} for i in range(k)}
    assert as_lists(path_mis(k)) == brute_mis(nbrs, range(k))


def test_path_mis_trivial():
    assert path_mis(0) == ((),)
    assert path_mis(1) == ((0,),)
    assert as_lists(path_mis(2)) == [[0], [1]]


def test_mis_tables_are_cached_per_length():
    assert path_mis(9) is path_mis(9)
    assert cycle_mis(9) is cycle_mis(9)


# -- cycles --------------------------------------------------------------
@pytest.mark.parametrize("k", range(3, 14))
def test_cycle_mis_matches_brute_force(k):
    nbrs = {i: {(i - 1) % k, (i + 1) % k} for i in range(k)}
    assert as_lists(cycle_mis(k)) == brute_mis(nbrs, range(k))


def test_cycle_too_short():
    with pytest.raises(ValueError):
        cycle_mis(2)


# -- inverse-graph decomposition ----------------------------------------
def test_inverse_components_mixed():
    # vertices 0-9: 0,1 isolated; 2-3-4 a path; 5..8 a 4-cycle; 9-10 an edge
    nonadj = {
        0: [], 1: [],
        2: [3], 3: [2, 4], 4: [3],
        5: [6, 8], 6: [5, 7], 7: [6, 8], 8: [7, 5],
        9: [10], 10: [9],
    }
    F, comps = inverse_components(*nbr_in_c_of(nonadj))
    assert sorted(F) == [0, 1]
    got = sorted((sorted(verts), table) for verts, table in comps)
    assert got == [
        ([2, 3, 4], path_mis(3)),
        ([5, 6, 7, 8], cycle_mis(4)),
        ([9, 10], path_mis(2)),
    ]
    # Each component is a walk along its inverse edges, paths end to end.
    for verts, table in comps:
        assert all(verts[i + 1] in nonadj[verts[i]] for i in range(len(verts) - 1))
        if table is path_mis(len(verts)):
            assert len(nonadj[verts[0]]) == len(nonadj[verts[-1]]) == 1
        else:
            assert verts[0] in nonadj[verts[-1]]


def test_inverse_components_rejects_degree_three():
    nonadj = {0: [1, 2, 3], 1: [0], 2: [0], 3: [0]}
    with pytest.raises(ValueError):
        inverse_components(*nbr_in_c_of(nonadj))


# -- t-plex enumeration vs brute force ----------------------------------
def _assert_tplex_equals_brute(nonadj):
    got = sorted(tplex_cliques(nonadj))
    nbrs = {v: set(nonadj[v]) for v in nonadj}
    want = sorted(tuple(c) for c in brute_mis(nbrs, nonadj))
    assert got == want


def test_tplex_clique_case():
    # 1-plex: inverse graph empty -> single maximal clique = everything
    _assert_tplex_equals_brute({3: [], 1: [], 2: []})


def test_tplex_two_plex_case():
    # paper's Figure 3 example: F={1,2}, pairs (3,5) and (4,6)
    nonadj = {1: [], 2: [], 3: [5], 5: [3], 4: [6], 6: [4]}
    got = sorted(tplex_cliques(nonadj))
    assert got == [(1, 2, 3, 4), (1, 2, 3, 6), (1, 2, 4, 5), (1, 2, 5, 6)]


def test_tplex_three_plex_paper_example():
    # paper's Figure 4: inverse graph has path {1,2,3} and cycle {4,5,6}
    nonadj = {1: [2], 2: [1, 3], 3: [2], 4: [5, 6], 5: [4, 6], 6: [4, 5]}
    got = sorted(tplex_cliques(nonadj))
    assert got == [(1, 3, 4), (1, 3, 5), (1, 3, 6), (2, 4), (2, 5), (2, 6)]


@pytest.mark.parametrize("seed", range(10))
def test_tplex_random_inverse_graphs(seed):
    """Random graphs of max degree 2 (unions of paths/cycles/isolated)."""
    import numpy as np

    rng = np.random.default_rng(seed)
    verts = list(range(12))
    nonadj = {v: [] for v in verts}
    deg = {v: 0 for v in verts}
    for _ in range(10):
        a, b = int(rng.integers(0, 12)), int(rng.integers(0, 12))
        if a != b and deg[a] < 2 and deg[b] < 2 and b not in nonadj[a]:
            nonadj[a].append(b)
            nonadj[b].append(a)
            deg[a] += 1
            deg[b] += 1
    _assert_tplex_equals_brute(nonadj)


def test_tplex_output_count_is_product_of_components():
    # one path of 5 (4 MIS), one cycle of 6 (5 MIS), 2 isolated
    nonadj = {
        0: [1], 1: [0, 2], 2: [1, 3], 3: [2, 4], 4: [3],
        5: [6, 10], 6: [5, 7], 7: [6, 8], 8: [7, 9], 9: [8, 10], 10: [9, 5],
        11: [], 12: [],
    }
    F, comps = inverse_components(*nbr_in_c_of(nonadj))
    out = tplex_cliques(nonadj)
    assert len(out) == len(path_mis(5)) * len(cycle_mis(6))
    assert len(out) == prod(len(table) for _, table in comps)
    assert all(11 in c and 12 in c for c in out)


@pytest.mark.parametrize("seed", range(5))
def test_tplex_cliques_are_sorted_unique_and_hold_s(seed):
    """Every emitted tuple is sorted, holds S, and appears once."""
    import numpy as np

    rng = np.random.default_rng(seed)
    verts = [int(v) for v in rng.permutation(50)[:14]]
    nonadj = {v: [] for v in verts}
    for _ in range(12):
        a, b = (int(x) for x in rng.choice(verts, 2, replace=False))
        if len(nonadj[a]) < 2 and len(nonadj[b]) < 2 and b not in nonadj[a]:
            nonadj[a].append(b)
            nonadj[b].append(a)
    S = [97, 60, 55]
    out = tplex_cliques(nonadj, S)
    assert all(list(c) == sorted(c) for c in out)
    assert len(set(out)) == len(out)
    assert all(set(S) <= set(c) for c in out)
    assert sorted(tuple(sorted(set(c) - set(S))) for c in out) == sorted(tplex_cliques(nonadj))
