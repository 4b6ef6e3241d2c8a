"""Tests for the exact local peels: degeneracy and truss orderings."""
import hashlib

import pytest

from repro.core.localgraph import LocalGraph
from repro.core.ordering import degeneracy_order, edge_order_rank, truss_order
from repro.graphs.datasets import DATASET_NAMES, load_local
from repro.graphs.generators import ba_edges, caveman_edges, er_edges, to_local
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
    rank = {e: i for i, e in enumerate(r.order)}
    for (u, v), rk in rank.items():
        c = sum(
            1
            for w in g.adj[u] & g.adj[v]
            if rank[(u, w) if u < w else (w, u)] > rk and rank[(v, w) if v < w else (w, v)] > rk
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


#: (SHA-1 of ``repr(truss_order(g).order)``, tau) for each surrogate at both
#: scales and for the unreduced ``tail_graph()``, recorded by running the
#: commit whose bucket queue was a dict per support value. The order is the
#: input of every edge-oriented run, so a faster peel must not move it.
PINNED_TRUSS = {
    ("NA", "test"): ("4fc71d9e571662b22f508aa44ca31770560e5699", 6),
    ("NA", "bench"): ("1120ea20f86eabee297c869d959b187172dd615e", 10),
    ("FB", "test"): ("733f7a2dcf01c097d3adebe67556adc7d3548359", 8),
    ("FB", "bench"): ("1895a32012f5ce2c33a6a691b54a87fcc03b708b", 16),
    ("WE", "test"): ("f618e94635a35c2d51348496608efe1f8f7a720f", 6),
    ("WE", "bench"): ("6ec4717e67ba2f774c1412032a8b4ab3f7371ea0", 14),
    ("WK", "test"): ("f0cd351395a80499440d9603cf4e033dbd649484", 6),
    ("WK", "bench"): ("4f3ca3c18a8b7d929127a3d0e18b331a05e40fd7", 14),
    ("SH", "test"): ("8078bf7992523c1542e0e6d3d099f6af996adad9", 5),
    ("SH", "bench"): ("e407e0e5e89d88a09433a65cbba3098624f7917a", 12),
    ("ST", "test"): ("81ea2ccb34094e138a395e748cd461c4af3c4a00", 7),
    ("ST", "bench"): ("9b9915aeaeac1c92372359e429e62196424bdb00", 16),
    ("DB", "test"): ("4da90fb0e2792851e77d4ffbca13f6e83292d7fe", 3),
    ("DB", "bench"): ("41829a2dbde6f663666458b7f58567a98a0aaf1e", 10),
    ("DE", "test"): ("a93721e05920037865958c01450b0ff7c64bb080", 8),
    ("DE", "bench"): ("401b4daef6b7a0df6c74cc10f4c0a682f70569b2", 12),
    ("DG", "test"): ("9d8b5401064dec253cd847131f858df4681cd1b2", 10),
    ("DG", "bench"): ("8012778c67b3e4e9a4a7331357860f5ce277ad6a", 20),
    ("YO", "test"): ("fe527b246ba2dca9e2c20e2dd8c4b74e8e5cb07c", 6),
    ("YO", "bench"): ("241f5132b9f3de6c9c6cbb9ebd6c393fc935e071", 12),
    ("PO", "test"): ("d47711ae81e0ee671a8b63ab13b4dfb0a2a22340", 8),
    ("PO", "bench"): ("358edc3fec4adfb7666b952ba03b30abf3d706fc", 16),
    ("SK", "test"): ("49d8ee7d20903a494ea79568e31038e59b2b6581", 8),
    ("SK", "bench"): ("000eba8c21940c0f502dfe7ad5a24751e06878ef", 16),
    ("CN", "test"): ("63e504ec8800b3ca78fc127f664e280759be5654", 8),
    ("CN", "bench"): ("fcf645a1a748defb7e3c841585605b6e70078d6d", 16),
    ("BA", "test"): ("89b789edc2e344e4df12f5bafd4e8aafb7137832", 7),
    ("BA", "bench"): ("19dc6035893caf9d45bdff8a1b75803e802d279f", 14),
    ("OR", "test"): ("4e7f24a057fbfe0fdb939424cf1f690a11d23f27", 10),
    ("OR", "bench"): ("d8c1f08965ad0101f0945e82b8fe7c0c57e19f1d", 22),
    ("SO", "test"): ("b101bbef60db51af485e9f400c2b1db04b21b60a", 7),
    ("SO", "bench"): ("5a3caec8d5d6b9975c161610e5da934a4f9d29cf", 14),
    ("tail", None): ("b48c399f2bd033ce49d0ff1775f2f8054599b566", 8),
}


def test_truss_order_pinned():
    graphs = {(name, scale): load_local(name, scale) for name, scale in PINNED_TRUSS if scale}
    graphs[("tail", None)] = tail_graph()
    assert {name for name, _ in graphs} == {*DATASET_NAMES, "tail"}
    measured = {}
    for key, g in graphs.items():
        r = truss_order(g)
        measured[key] = (hashlib.sha1(repr(r.order).encode()).hexdigest(), r.tau)
    assert measured == PINNED_TRUSS

# -- alternative edge orders --------------------------------------------
@pytest.mark.parametrize("kind", ["truss", "dgn", "mdg"])
def test_edge_order_rank_is_total(kind):
    g = to_local(er_edges(40, 150, 1), 40)
    order = edge_order_rank(g, kind)
    assert sorted(order) == sorted(g.edges())


def test_edge_order_unknown_kind():
    with pytest.raises(ValueError, match="unknown edge order"):
        edge_order_rank(complete(3), "nope")


def test_orders_are_deterministic():
    g = to_local(ba_edges(60, 3, 2), 60)
    assert truss_order(g).order == truss_order(g).order
    assert degeneracy_order(g).order == degeneracy_order(g).order
