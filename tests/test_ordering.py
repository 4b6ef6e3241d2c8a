"""Tests for the one peel: the degeneracy and truss orderings, and GR's 3-core."""
import hashlib
import random

import pytest

from repro.core.localgraph import LocalGraph
from repro.core.ordering import degeneracy_order, edge_order_rank, truss_peel
from repro.core.reduction import reduce_graph
from repro.graphs.datasets import DATASET_NAMES, load_local
from repro.graphs.generators import ba_edges, to_local
from tests.oracles import core_numbers, er_edges, greedy_truss_order
from tests.test_reduction import tail_graph


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
    r = degeneracy_order(LocalGraph.from_edges([]))
    assert r.delta == 0 and r.order == r.later == []


@pytest.mark.parametrize("seed", range(5))
def test_degeneracy_later_neighbor_bound(seed):
    """Defining property: every vertex has at most delta neighbors *after*
    it in the order."""
    g = to_local(er_edges(60, 300, seed), 60)
    r = degeneracy_order(g)
    pos = {v: i for i, v in enumerate(r.order)}
    for i, v in enumerate(r.order):
        later = sum(1 for u in g.adj[v] if pos[u] > i)
        assert r.later[i] == later <= r.delta


@pytest.mark.parametrize(
    "make",
    [
        *[pytest.param(lambda s=s: to_local(er_edges(60, 300, s), 60), id=f"er60-{s}") for s in range(4)],
        pytest.param(tail_graph, id="tail"),
        *[pytest.param(lambda name=name: load_local(name, "test"), id=name) for name in DATASET_NAMES],
    ],
)
def test_vertex_peel_matches_sequential_core_numbers(make):
    """The round-synchronous vertex peel reports the sequential peel's delta
    (the largest core number), and GR, the same peel stopped before level 3,
    removes exactly the vertices of core number below 3."""
    g = make()
    core = core_numbers(g)
    assert degeneracy_order(g).delta == max(core.values(), default=0)
    kept = set(reduce_graph(g).reduced.ids.tolist())
    assert set(g.ids.tolist()) - kept == {v for v, c in core.items() if c < 3}


# -- truss ---------------------------------------------------------------
def truss_pairs(g):
    """The truss peel's edge order as (u, v) pairs, and tau."""
    pos, tau = truss_peel(g)
    return g.edges_at(pos), tau


def test_truss_of_complete_graph():
    assert truss_peel(complete(6))[1] == 4  # every edge of K6 has 4 common neighbors


def test_truss_of_triangle_free_graph():
    assert truss_peel(path(10))[1] == 0


@pytest.mark.parametrize("seed", range(5))
def test_tau_strictly_below_delta_on_real_shapes(seed):
    """The paper's tau < delta (for graphs with at least one edge)."""
    g = to_local(ba_edges(100, 4, seed), 100)
    assert truss_peel(g)[1] < degeneracy_order(g).delta


@pytest.mark.parametrize("seed", range(4))
def test_truss_branch_size_bound(seed):
    """Defining property (Section III-B): for each edge e, the number of
    common neighbors w with both connecting edges ranked after e is <= tau.
    This is the bound on every root edge branch's candidate graph."""
    g = to_local(er_edges(50, 300, seed), 50)
    order, tau = truss_pairs(g)
    rank = {e: i for i, e in enumerate(order)}
    for (u, v), rk in rank.items():
        c = sum(
            1
            for w in g.adj[u] & g.adj[v]
            if rank[(u, w) if u < w else (w, u)] > rk and rank[(v, w) if v < w else (w, v)] > rk
        )
        assert c <= tau


@pytest.mark.parametrize("seed", range(3))
def test_truss_greedy_min_support_invariant(seed):
    """Replaying the order must show each peeled edge had the (bucket-)
    minimum support among remaining edges at its turn."""
    g = to_local(er_edges(30, 140, seed), 30)
    order, _ = greedy_truss_order(g)
    adj = {v: set(ns) for v, ns in g.adj.items()}
    remaining_sup = {}
    for u, v in g.edges_at(slice(None)):
        remaining_sup[(u, v)] = len(adj[u] & adj[v])
    for e in order:
        u, v = e
        cur_min = min(remaining_sup.values())
        assert remaining_sup[e] == cur_min
        for w in adj[u] & adj[v]:
            remaining_sup[(u, w) if u < w else (w, u)] -= 1
            remaining_sup[(v, w) if v < w else (w, v)] -= 1
        adj[u].discard(v)
        adj[v].discard(u)
        del remaining_sup[e]


def replay_levels(g, order):
    """Peel ``order`` one edge at a time, returning for each step the edge's
    support at removal and the largest minimum live support seen so far."""
    adj = {v: set(ns) for v, ns in g.adj.items()}
    sup = {(u, v): len(adj[u] & adj[v]) for u, v in g.edges_at(slice(None))}
    steps, level = [], 0
    for u, v in order:
        level = max(level, min(sup.values()))
        steps.append((sup.pop((u, v)), level))
        for w in adj[u] & adj[v]:
            sup[(u, w) if u < w else (w, u)] -= 1
            sup[(v, w) if v < w else (w, v)] -= 1
        adj[u].discard(v)
        adj[v].discard(u)
    return steps


TAU_GRAPHS = [
    *[pytest.param(lambda s=s: to_local(er_edges(30, 140, s), 30), id=f"er30-{s}") for s in range(3)],
    *[pytest.param(lambda s=s: to_local(er_edges(50, 300, s), 50), id=f"er50-{s}") for s in range(4)],
    *[pytest.param(lambda s=s: to_local(ba_edges(100, 4, s), 100), id=f"ba100-{s}") for s in range(5)],
    *[pytest.param(lambda name=name: load_local(name, "test"), id=name) for name in DATASET_NAMES],
]


@pytest.mark.parametrize("make", TAU_GRAPHS)
def test_truss_levels_bound_support_and_tau_matches_greedy(make):
    """Replaying the round-synchronous order, each edge's support at removal
    is at most the largest minimum live support seen up to that step, and
    that level ends at tau: the greedy peel's tau."""
    g = make()
    order, tau = truss_pairs(g)
    steps = replay_levels(g, order)
    assert all(s <= level for s, level in steps)
    assert tau == max((level for _, level in steps), default=0)
    assert tau == greedy_truss_order(g)[1]


#: (SHA-1 of ``repr(g.edges_at(truss_peel(g)[0]))``, tau) for each surrogate at both
#: scales and for the unreduced ``tail_graph()``, recorded by running the
#: commit that made the peel round-synchronous. That commit changed every
#: order (tau stayed the same everywhere); the order is the input of every
#: edge-oriented run, so a faster peel must not move it.
PINNED_TRUSS = {
    ("NA", "test"): ("28a07bbddac35d5679f366a93717fc53bd7ed22b", 6),
    ("NA", "bench"): ("8fe2529c8e3925827fd75131caf33b9831ef225a", 10),
    ("FB", "test"): ("dc93c4a01f9d45979d6aa3d12a838324c7b4ff8a", 8),
    ("FB", "bench"): ("eb073fc6e439fdd425a4c153e78ffd8eb4548e3e", 16),
    ("WE", "test"): ("ca290d9683cb65de4f2d793dc79c1233bfe04568", 6),
    ("WE", "bench"): ("e17b92ed364ffcf60c93e248492e1feb80e4a165", 14),
    ("WK", "test"): ("77fdf96fc12758e7d9da43607c010e5441acc660", 6),
    ("WK", "bench"): ("f9f9eec2d5fec09f7b4d667c47a0d3942ed350e6", 14),
    ("SH", "test"): ("7ae32c5efc6f972c450bd7440c1e0e40405bd4f5", 5),
    ("SH", "bench"): ("dac3c7b7c0c528a3efb09da07d8d3feefbb6041c", 12),
    ("ST", "test"): ("9f7b0313e4ae963910185909ba61d684ce7171c3", 7),
    ("ST", "bench"): ("705c251959a5700120261be836df8d49f33e1cd9", 16),
    ("DB", "test"): ("dc4864c7744b1ad21e44edfb4337ba87200bfdc9", 3),
    ("DB", "bench"): ("c2b65395f6c50301ca9cd4f591913883b654794a", 10),
    ("DE", "test"): ("675569c83d0b4f73dae064b016cadf521c7abd05", 8),
    ("DE", "bench"): ("575d9e35af48feca2f1706a3b00c6c4942b6134c", 12),
    ("DG", "test"): ("7cbeb2eec7bfbc6a2a0cf94d1608d31392c27229", 10),
    ("DG", "bench"): ("2fae22f49392e8e9c9439bef521fe05758cdb621", 20),
    ("YO", "test"): ("05bfb437ebeeca6b09193e177b43d3606597352a", 6),
    ("YO", "bench"): ("6487155905e173f5357819396d1e7402eaedc984", 12),
    ("PO", "test"): ("d4dda0b49099b628281d382167e5ad2ae9439008", 8),
    ("PO", "bench"): ("367718eb752a30e5eca1089a8f1fce489be1a6ae", 16),
    ("SK", "test"): ("e335639ffef53c129fe24b28e5b79db3b458920d", 8),
    ("SK", "bench"): ("48c5f51690d42b797c31957455f5a7cf503ba9bc", 16),
    ("CN", "test"): ("c1bbbb347af58168de4999f5ac73bc58cd62b3c8", 8),
    ("CN", "bench"): ("b5220ed319271e772a6550b116ab06da251203e9", 16),
    ("BA", "test"): ("e4569328be00b55ccd1f33fded859173569619e2", 7),
    ("BA", "bench"): ("24e959163828de4728e1980d6552fef820f122eb", 14),
    ("OR", "test"): ("1f8cc434d1a26d77242f7eb51efc0d1baa9b1ecb", 10),
    ("OR", "bench"): ("4c2c6c5524ec0ca7e5bdc0ba99ac26ae4bbd04cb", 22),
    ("SO", "test"): ("982f3dbe62590ba89be2d4cebd7b9b73e8c7070e", 7),
    ("SO", "bench"): ("1288edac2f3ef12ff80de5fb7ddf31ad07cac0b8", 14),
    ("tail", None): ("83348421e9b497ed2aeba87a70c169ca910ab3b0", 8),
}


def test_truss_order_pinned():
    graphs = {(name, scale): load_local(name, scale) for name, scale in PINNED_TRUSS if scale}
    graphs[("tail", None)] = tail_graph()
    assert {name for name, _ in graphs} == {*DATASET_NAMES, "tail"}
    measured = {}
    for key, g in graphs.items():
        order, tau = truss_pairs(g)
        measured[key] = (hashlib.sha1(repr(order).encode()).hexdigest(), tau)
    assert measured == PINNED_TRUSS

# -- alternative edge orders --------------------------------------------
@pytest.mark.parametrize("kind", ["truss", "dgn", "mdg"])
def test_edge_order_rank_is_total(kind):
    g = to_local(er_edges(40, 150, 1), 40)
    order = edge_order_rank(g, kind)
    assert sorted(order.tolist()) == list(range(g.m))


def test_edge_order_unknown_kind():
    with pytest.raises(ValueError, match="unknown edge order"):
        edge_order_rank(complete(3), "nope")


def test_orders_are_deterministic():
    """The same graph gives the same orders however it was built: here from
    a shuffled edge list with half the pairs reversed, so every adjacency
    set has another insertion history."""
    edges = ba_edges(60, 3, 2).tolist()
    g = to_local(ba_edges(60, 3, 2), 60)
    random.Random(0).shuffle(edges)
    h = LocalGraph.from_edges(
        [(v, u) if i % 2 else (u, v) for i, (u, v) in enumerate(edges)], range(60)
    )
    assert h.adj == g.adj
    assert truss_pairs(g)[0] == truss_pairs(g)[0] == truss_pairs(h)[0]
    assert degeneracy_order(g).order == degeneracy_order(g).order == degeneracy_order(h).order


@pytest.mark.parametrize(
    "g,order,tau",
    [
        pytest.param(LocalGraph.from_edges([]), [], 0, id="empty"),
        pytest.param(LocalGraph.from_edges([], vertices=[3, 8]), [], 0, id="isolated"),
        pytest.param(LocalGraph.from_edges([(9, 4)]), [(4, 9)], 0, id="single-edge"),
        pytest.param(complete(3), [(0, 1), (0, 2), (1, 2)], 1, id="triangle"),
    ],
)
def test_truss_order_degenerate_inputs(g, order, tau):
    assert truss_pairs(g) == (order, tau)


def test_truss_order_huge_ids():
    """Ids offset by 10**12 give the un-offset order, shifted: vertices are
    mapped to dense indices in id order before any array is built."""
    g = load_local("OR", "test")
    off = 10**12
    shifted = LocalGraph.from_edges(
        [(u + off, v + off) for u, v in g.edges_at(slice(None))], vertices=g.ids + off
    )
    (order, tau), (order_s, tau_s) = truss_pairs(g), truss_pairs(shifted)
    assert tau_s == tau
    assert order_s == [(u + off, v + off) for u, v in order]
    assert all(type(x) is int for e in order_s for x in e)
