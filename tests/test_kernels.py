"""Correctness fuzz of the three VBBMC kernels against the reference, plus
kernel-level unit behavior."""
import pytest

from repro.core.hbbmc import run_named
from repro.core.kernels import KERNELS, Enumerator
from repro.core.localgraph import LocalGraph
from repro.graphs.generators import ba_edges, powerlaw_cluster_edges, to_local
from tests.oracles import caveman_edges, er_edges, reference_mce, verify_cliques

GRAPHS = [
    ("er-sparse", lambda s: to_local(er_edges(40, 120, s), 40)),
    ("er-dense", lambda s: to_local(er_edges(25, 200, s), 25)),
    ("ba", lambda s: to_local(ba_edges(60, 4, s), 60)),
    ("plc", lambda s: to_local(powerlaw_cluster_edges(50, 4, 0.7, s), 50)),
    ("caveman", lambda s: to_local(caveman_edges(5, 6, 6, s))),
]


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("gname,make", GRAPHS)
@pytest.mark.parametrize("seed", range(3))
def test_kernel_vertex_framework_matches_reference(kernel, gname, make, seed):
    """Each kernel on the raw graph's initial branch (∅, V, ∅), degree <= 2
    vertices included, and under both vertex roots of a planned run."""
    g = make(seed)
    ref = reference_mce(g)
    for et_t in (0, 3):
        enum = Enumerator(g.adj, kernel=kernel, et_t=et_t)
        enum.roots(None, [0])
        assert sorted(enum.out) == ref, f"{kernel}/direct/t={et_t}"
        for base in ("RDegen", "RRef"):
            r = run_named(g, base, kernel=kernel, et_t=et_t)
            assert r.cliques == ref, f"{kernel}/{base}/t={et_t}"


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kernel_direct_invocation_on_triangle(kernel):
    g = LocalGraph.from_edges([(0, 1), (1, 2), (0, 2)])
    enum = Enumerator(g.adj, kernel=kernel)
    enum.roots(None, [0])
    assert enum.out == [(0, 1, 2)]


def test_et_counters_on_clique_branch():
    """A clique candidate graph with empty X is a 1-plex branch: ET must
    apply and emit exactly one clique without recursion."""
    g = LocalGraph.from_edges([(i, j) for i in range(5) for j in range(i + 1, 5)])
    enum = Enumerator(g.adj, et_t=1)
    enum.vbb_tomita([], set(g.adj), set())
    assert enum.stats.calls == 1
    assert enum.stats.et_applied == 1
    assert enum.out == [(0, 1, 2, 3, 4)]


def test_et_counters_two_plex_branch():
    """K6 minus a perfect matching is a 2-plex with 2^3 maximal cliques; ET
    at t=2 emits them all in one call."""
    missing = {(0, 1), (2, 3), (4, 5)}
    g = LocalGraph.from_edges(
        [(i, j) for i in range(6) for j in range(i + 1, 6) if (i, j) not in missing]
    )
    enum = Enumerator(g.adj, et_t=2)
    enum.vbb_tomita([], set(g.adj), set())
    assert enum.stats.calls == 1
    assert enum.stats.et_applied == 1
    assert len(enum.out) == 8
    verify_cliques(g, enum.out)


def test_et_disabled_still_correct_but_more_calls():
    missing = {(0, 1), (2, 3), (4, 5)}
    g = LocalGraph.from_edges(
        [(i, j) for i in range(6) for j in range(i + 1, 6) if (i, j) not in missing]
    )
    on = Enumerator(g.adj, et_t=3)
    on.vbb_tomita([], set(g.adj), set())
    off = Enumerator(g.adj, et_t=0)
    off.vbb_tomita([], set(g.adj), set())
    assert sorted(on.out) == sorted(off.out)
    assert on.stats.calls < off.stats.calls
    assert off.stats.et_applied == 0


#: A triangle 0-1-2 with a pendant 3 on 0. Each branch (S, C, X) with
#: |C| <= 1 holds every common neighbour of S in C ∪ X, with its clique out
#: (or None when X blocks it) and whether ET applies to it (a |C| = 1 branch
#: is a 1-plex branch, applied iff X is empty).
PENDANT = LocalGraph.from_edges([(0, 1), (0, 2), (1, 2), (0, 3)])
LEAVES = [
    pytest.param([0], {1}, {2, 3}, None, False, id="one-blocked"),
    pytest.param([0], {3}, {1, 2}, (0, 3), False, id="one-emits-beside-x"),
    pytest.param([0, 1], {2}, set(), (0, 1, 2), True, id="one-emits-et"),
    pytest.param([0, 1, 2], set(), set(), (0, 1, 2), None, id="empty-emits"),
    pytest.param([0, 1], set(), {2}, None, None, id="empty-blocked"),
]


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("et_t", [0, 3])
@pytest.mark.parametrize("S,C,X,clique,applied", LEAVES)
def test_single_candidate_fast_path_maximality(kernel, et_t, S, C, X, clique, applied):
    """A kernel entered with |C| <= 1 settles the branch in one call: empty
    C emits S iff X is empty, C = {v} emits S ∪ {v} iff no X vertex is
    adjacent to v and counts a 1-plex branch when ET is on."""
    enum = Enumerator(PENDANT.adj, kernel=kernel, et_t=et_t)
    KERNELS[kernel](enum, S, C, X)
    plex = bool(et_t) and applied is not None
    st = enum.stats
    assert (st.calls, st.et_plex, st.et_applied) == (1, int(plex), int(plex and applied))
    assert enum.out == ([] if clique is None else [clique])


#: A hub 9 adjacent to 0..8, and among the rest the edges 0-1, 2-3, 7-8, 5-2,
#: 5-3, 6-0 and 6-1. The branch S = [9], C = {0, 1, 2, 3, 4, 7, 8}, X = {5, 6}
#: has two maximal cliques of its own, {9, 4} and {9, 7, 8}; 6 blocks
#: {9, 0, 1} and 5 blocks {9, 2, 3}. Every child it branches on has |C| <= 1.
LEAFY = LocalGraph.from_edges(
    [(9, v) for v in range(9)] + [(0, 1), (2, 3), (7, 8), (2, 5), (3, 5), (0, 6), (1, 6)]
)

#: Hand-counted (calls, et_plex, et_applied) of each kernel on that branch at
#: et_t = 3 (at et_t = 0 only ``calls`` is non-zero).
#: - tomita pivots on 5 (|C ∩ N(5)| = 2; 6 ties, larger id) and branches on
#:   0, 1, 4, 7, 8. Children: ({1}, {6}) blocked, ({}, {6, 0}) blocked,
#:   ({}, {}) emits {4, 9}, ({8}, {}) emits {7, 8, 9} (ET applied),
#:   ({}, {7}) blocked.
#: - rcd branches on 4 (emits), 0 ({1}, {6}: blocked), 1 ({}, {6, 0}), 2
#:   ({3}, {5}: blocked) and 3 ({}, {5, 2}). The t-plex test passes on the
#:   remaining C = {2, 3, 7, 8}, {3, 7, 8} and {7, 8}, but X is never empty;
#:   {7, 8} is a clique no X vertex extends, so it emits {7, 8, 9}.
#: - fac takes P = C \ N(0) = {0, 2, 3, 4, 7, 8}, never re-pivots, and
#:   branches on 0 ({1}, {6}), 2 ({3}, {5}), 3, 4 (emits), 7 ({8}, {}:
#:   emits, ET applied) and 8 ({}, {7}).
LEAFY_COUNTS = {"tomita": (6, 2, 1), "rcd": (6, 5, 0), "fac": (7, 3, 1)}


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("et_t", [0, 3])
def test_kernel_settles_leaf_children_hand_counted(kernel, et_t):
    """Every child here has |C| <= 1, so ``_branch`` hands each to
    ``_leaf``, the one leaf rule: each is one call, a |C| = 1 child is a
    1-plex branch, and a child blocked by X emits nothing."""
    enum = Enumerator(LEAFY.adj, kernel=kernel, et_t=et_t)
    KERNELS[kernel](enum, [9], {0, 1, 2, 3, 4, 7, 8}, {5, 6})
    calls, et_plex, et_applied = LEAFY_COUNTS[kernel]
    if not et_t:
        et_plex = et_applied = 0
    st = enum.stats
    assert (st.calls, st.et_plex, st.et_applied) == (calls, et_plex, et_applied)
    assert enum.out == [(4, 9), (7, 8, 9)]


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_stats_call_counting_positive(kernel):
    g = to_local(er_edges(20, 60, 0), 20)
    r = run_named(g, "RDegen", kernel=kernel)
    assert r.stats.calls > 0
    assert r.n_cliques == len(r.cliques)
