"""Tests for the exact local peels: degeneracy and truss orderings."""
import pytest

from repro.core.localgraph import LocalGraph
from repro.core.ordering import degeneracy_order, edge_order_rank, truss_order
from repro.graphs.generators import ba_edges, caveman_edges, er_edges, to_local


def complete(k):
    return LocalGraph.from_edges([(i, j) for i in range(k) for j in range(i + 1, k)])


def path(k):
    return LocalGraph.from_edges([(i, i + 1) for i in range(k - 1)])


# -- degeneracy ----------------------------------------------------------
def test_degeneracy_of_complete_graph():
    assert degeneracy_order(complete(6)).delta == 5


def test_degeneracy_of_path():
    assert degeneracy_order(path(10)).delta == 1


def test_degeneracy_of_cycle():
    g = LocalGraph.from_edges([(i, (i + 1) % 8) for i in range(8)])
    assert degeneracy_order(g).delta == 2


def test_degeneracy_empty_graph():
    r = degeneracy_order(LocalGraph({}))
    assert r.delta == 0 and r.order == []


@pytest.mark.parametrize("seed", range(5))
def test_degeneracy_later_neighbor_bound(seed):
    """Defining property: every vertex has at most delta neighbors *after*
    it in the order."""
    g = to_local(er_edges(60, 300, seed), 60)
    r = degeneracy_order(g)
    for i, v in enumerate(r.order):
        later = sum(1 for u in g.adj[v] if r.pos[u] > i)
        assert later <= r.delta


# -- truss ---------------------------------------------------------------
def test_truss_of_complete_graph():
    r = truss_order(complete(6))
    assert r.tau == 4  # every edge of K6 has 4 common neighbors


def test_truss_of_triangle_free_graph():
    assert truss_order(path(10)).tau == 0


@pytest.mark.parametrize("seed", range(5))
def test_tau_strictly_below_delta_on_real_shapes(seed):
    """The paper's tau < delta (for graphs with at least one edge)."""
    g = to_local(ba_edges(100, 4, seed), 100)
    assert truss_order(g).tau < degeneracy_order(g).delta


@pytest.mark.parametrize("seed", range(4))
def test_truss_branch_size_bound(seed):
    """Defining property (Section III-B): for each edge e, the number of
    common neighbors w with both connecting edges ranked after e is <= tau.
    This is the bound on every root edge branch's candidate graph."""
    g = to_local(er_edges(50, 300, seed), 50)
    r = truss_order(g)
    for (u, v), rk in r.rank.items():
        c = sum(
            1
            for w in g.adj[u] & g.adj[v]
            if r.rank[(u, w) if u < w else (w, u)] > rk
            and r.rank[(v, w) if v < w else (w, v)] > rk
        )
        assert c <= r.tau


@pytest.mark.parametrize("seed", range(3))
def test_truss_greedy_min_support_invariant(seed):
    """Replaying the order must show each peeled edge had the (bucket-)
    minimum support among remaining edges at its turn."""
    g = to_local(er_edges(30, 140, seed), 30)
    r = truss_order(g)
    adj = {v: set(ns) for v, ns in g.adj.items()}
    remaining_sup = {}
    for u, v in g.edges():
        remaining_sup[(u, v)] = len(adj[u] & adj[v])
    for e in r.order:
        u, v = e
        cur_min = min(remaining_sup.values())
        assert remaining_sup[e] == cur_min
        for w in adj[u] & adj[v]:
            remaining_sup[(u, w) if u < w else (w, u)] -= 1
            remaining_sup[(v, w) if v < w else (w, v)] -= 1
        adj[u].discard(v)
        adj[v].discard(u)
        del remaining_sup[e]


# -- alternative edge orders --------------------------------------------
@pytest.mark.parametrize("kind", ["truss", "dgn", "mdg"])
def test_edge_order_rank_is_total(kind):
    g = to_local(er_edges(40, 150, 1), 40)
    rank = edge_order_rank(g, kind)
    assert set(rank.keys()) == set(g.edges())
    assert sorted(rank.values()) == list(range(g.m))


def test_edge_order_unknown_kind():
    with pytest.raises(ValueError, match="unknown edge order"):
        edge_order_rank(complete(3), "nope")


def test_orders_are_deterministic():
    g = to_local(ba_edges(60, 3, 2), 60)
    assert truss_order(g).order == truss_order(g).order
    assert degeneracy_order(g).order == degeneracy_order(g).order
