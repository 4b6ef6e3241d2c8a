"""Correctness fuzz of the four VBBMC kernels against the reference, plus
kernel-level unit behavior."""
import pytest

from repro.core.hbbmc import run_mce
from repro.core.kernels import KERNELS, Enumerator, kernel_fn
from repro.core.localgraph import LocalGraph
from repro.graphs.generators import (
    ba_edges,
    caveman_edges,
    er_edges,
    powerlaw_cluster_edges,
    to_local,
)
from repro.reference import reference_mce, verify_cliques

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
    g = make(seed)
    ref = reference_mce(g)
    for root in ("degeneracy", "global"):
        for et_t in (0, 3):
            r = run_mce(g, root=root, kernel=kernel, et_t=et_t, gr=False)
            assert r.cliques == ref, f"{kernel}/{root}/t={et_t}"


def test_ref_and_tomita_run_the_same_search():
    """``ref``'s early-exit scan picks ``tomita``'s pivot, so both kernels
    give the same counters and cliques, with and without ET."""
    for gname, make in GRAPHS:
        for seed in range(3):
            g = make(seed)
            for root in ("degeneracy", "global"):
                for et_t in (0, 3):
                    runs = [
                        run_mce(g, root=root, kernel=k, et_t=et_t, gr=False)
                        for k in ("ref", "tomita")
                    ]
                    where = f"{gname}/{seed}/{root}/t={et_t}"
                    assert runs[0].stats.as_dict() == runs[1].stats.as_dict(), where
                    assert runs[0].cliques == runs[1].cliques, where


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kernel_direct_invocation_on_triangle(kernel):
    g = LocalGraph.from_edges([(0, 1), (1, 2), (0, 2)])
    enum = Enumerator(g.adj)
    kernel_fn(enum, kernel)([], set(g.adj), set())
    assert enum.out == [(0, 1, 2)]
    assert enum.stats.cliques == 1


def test_unknown_kernel_rejected():
    enum = Enumerator({})
    with pytest.raises(ValueError, match="unknown kernel"):
        kernel_fn(enum, "nope")


def test_emit_respects_blocked_sets():
    enum = Enumerator({0: {1}, 1: {0}}, blocked={frozenset((0, 1))})
    enum.emit([0, 1])
    assert enum.out == [] and enum.stats.cliques == 0
    enum.emit([0, 1, 2])  # size 3 never blocked
    assert enum.stats.cliques == 1


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


def test_single_candidate_fast_path_maximality():
    """|C| = 1 with an X vertex adjacent to the candidate: nothing maximal."""
    g = LocalGraph.from_edges([(0, 1), (0, 2), (1, 2)])
    enum = Enumerator(g.adj)
    # S = [0], C = {1}, X = {2}: {0,1} is blocked by 2
    enum.vbb_tomita([0], {1}, {2})
    assert enum.out == []


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_stats_call_counting_positive(kernel):
    g = to_local(er_edges(20, 60, 0), 20)
    r = run_mce(g, root="degeneracy", kernel=kernel, et_t=0, gr=False)
    assert r.stats.calls > 0
    assert r.stats.cliques == len(r.cliques)
