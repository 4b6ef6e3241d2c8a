"""Tests for graph reduction (GR) and its blocked-set bookkeeping."""
import numpy as np
import pytest

from repro.core.localgraph import LocalGraph
from repro.core.reduction import reduce_graph
from repro.graphs.generators import ba_edges, social_edges, to_local
from tests.oracles import er_edges, reference_mce


def tail_graph(seed: int = 5) -> LocalGraph:
    """A long low-degree tail, as in the ``sparse-local`` benchmark input: a
    tree-like part (``m_attach=1``) carrying one dense core, disjoint-unioned
    with an ``m_attach=2`` part, both with small 2-plex caves. 3,096
    vertices; GR removes all but 172 of them."""
    a = social_edges(1500, 1, seed, caves=(4, 12, 5), core=(30, 0.3))
    b = social_edges(1500, 2, seed + 1, caves=(4, 12, 5))
    return to_local(np.concatenate([a, b + int(a.max()) + 1]))


def full_output(g, red, extra=()):
    """GR cliques + cliques of the reduced graph (filtered by blocked),
    which is what the runners assemble."""
    rest = [c for c in reference_mce(red.reduced) if c not in red.blocked]
    return sorted(list(red.cliques) + rest)


@pytest.mark.parametrize("seed", range(8))
def test_reduction_plus_rest_equals_reference(seed):
    g = to_local(ba_edges(60, 2, seed), 60)
    red = reduce_graph(g)
    assert red.removed > 0  # BA(m=2) has plenty of low-degree vertices
    assert full_output(g, red) == reference_mce(g)


@pytest.mark.parametrize("seed", range(8))
def test_reduction_on_denser_graphs(seed):
    g = to_local(er_edges(50, 140, seed), 50)
    red = reduce_graph(g)
    assert full_output(g, red) == reference_mce(g)


def test_isolated_vertex():
    g = LocalGraph.from_edges([], vertices=[7])
    red = reduce_graph(g)
    assert red.cliques == [(7,)]
    assert red.reduced.n == 0


def test_pendant_edge_chain():
    # path 0-1-2-3: maximal cliques are the three edges
    g = LocalGraph.from_edges([(0, 1), (1, 2), (2, 3)])
    red = reduce_graph(g)
    assert full_output(g, red) == [(0, 1), (1, 2), (2, 3)]


def test_triangle_with_pendant():
    # triangle {1,2,3} + pendant 0-1: cliques {0,1}, {1,2,3}
    g = LocalGraph.from_edges([(1, 2), (2, 3), (1, 3), (0, 1)])
    red = reduce_graph(g)
    assert full_output(g, red) == [(0, 1), (1, 2, 3)]


def test_blocked_pair_suppression():
    """Degree-2 triangle rule: after removing v from triangle {v,a,b}, a
    later emission of exactly {a,b} must be suppressed (phantom blocker v).
    Chain: z-v-a triangle... build K3 {0,1,2} plus K3 {1,2,3}: removing 0
    (deg 2) emits {0,1,2} and blocks {1,2}; removing 3 emits {1,2,3}; the
    remaining edge (1,2) must NOT be emitted."""
    g = LocalGraph.from_edges([(0, 1), (0, 2), (1, 2), (3, 1), (3, 2)])
    red = reduce_graph(g)
    assert full_output(g, red) == [(0, 1, 2), (1, 2, 3)]


def test_star_graph():
    # star center 0 with leaves 1..4: cliques are the 4 edges
    g = LocalGraph.from_edges([(0, i) for i in range(1, 5)])
    red = reduce_graph(g)
    assert full_output(g, red) == [(0, 1), (0, 2), (0, 3), (0, 4)]
    assert red.reduced.n == 0  # fully peeled (cascade)


def test_two_triangles_sharing_an_edge_cascade():
    """Bowtie minus center... K4 minus one edge: vertices 0..3, missing
    (0,3): cliques {0,1,2} and {1,2,3}."""
    g = LocalGraph.from_edges([(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    red = reduce_graph(g)
    assert full_output(g, red) == [(0, 1, 2), (1, 2, 3)]


# -- GR by its order-free definition --------------------------------------
#: A star and a tree (BA with one edge per new vertex): GR consumes both.
STAR = np.array([(0, i) for i in range(1, 8)])
TREE = ba_edges(60, 1, 3)
#: K6 minus the 6-cycle 0-1-2-3-4-5, plus one degree-2 vertex on each of its
#: 2-cliques {0,3}, {1,4}, {2,5}. GR emits the three ear triangles and blocks
#: those pairs, which the core's search then reaches.
HEXAGON_EARS = np.array(
    [(i, j) for i in range(6) for j in range(i + 1, 6) if (j - i) % 6 not in (1, 5)]
    + [(u, a) for u, pair in zip((6, 7, 8), ((0, 3), (1, 4), (2, 5))) for a in pair]
)

GR_GRAPHS = [
    *[pytest.param(lambda s=s: to_local(ba_edges(60, 2, s), 60), id=f"ba-{s}") for s in range(8)],
    *[pytest.param(lambda s=s: to_local(er_edges(50, 140, s), 50), id=f"er-{s}") for s in range(8)],
    pytest.param(tail_graph, id="tail"),
    # Degenerate inputs.
    pytest.param(lambda: LocalGraph.from_edges([]), id="empty"),
    pytest.param(lambda: to_local(np.zeros((0, 2), dtype=np.int64), 5), id="isolated"),
    pytest.param(lambda: LocalGraph.from_edges([(9, 4)]), id="single-edge"),
    pytest.param(lambda: to_local(STAR), id="star"),
    pytest.param(lambda: to_local(TREE), id="tree"),
    pytest.param(lambda: to_local(ba_edges(60, 2, 0) + 10**12), id="huge-ids"),
]


def three_core(g):
    """Vertices of the 3-core, by repeatedly dropping any vertex with fewer
    than three neighbours left."""
    core = set(g.adj)
    while drop := {v for v in core if len(g.adj[v] & core) < 3}:
        core -= drop
    return core


@pytest.mark.parametrize("make", GR_GRAPHS)
def test_gr_removes_exactly_the_complement_of_the_3_core(make):
    g = make()
    core = three_core(g)
    red = reduce_graph(g)
    assert red.removed == g.n - len(core)
    assert red.reduced.adj == {v: g.adj[v] & core for v in core}


@pytest.mark.parametrize("make", GR_GRAPHS)
def test_gr_cliques_are_the_cliques_through_removed_vertices(make):
    g = make()
    red = reduce_graph(g)
    core = set(red.reduced.adj)
    assert len(set(red.cliques)) == len(red.cliques)
    assert set(red.cliques) == {c for c in reference_mce(g) if not set(c) <= core}


@pytest.mark.parametrize("make", GR_GRAPHS)
def test_gr_core_blocked_sets(make):
    """Each removed w blocks every nonempty clique in N(w) ∩ core. The
    search on the core never emits a singleton (every core vertex has three
    core neighbours), so GR keeps only the pairs: N(w) ∩ core itself when it
    is an edge."""
    g = make()
    red = reduce_graph(g)
    core = set(red.reduced.adj)
    want = set()
    for w in set(g.adj) - core:
        nc = g.adj[w] & core
        if len(nc) == 2:
            a, b = sorted(nc)
            if b in g.adj[a]:
                want.add((a, b))
    assert red.blocked == want


@pytest.mark.parametrize("make", GR_GRAPHS)
def test_gr_leaves_the_input_untouched(make):
    g = make()
    before = {v: set(nbrs) for v, nbrs in g.adj.items()}
    arrays = [a.copy() for a in (g.ids, g.deg, g.eu, g.ev)]
    red = reduce_graph(g)
    assert g.adj == before
    assert not {id(s) for s in g.adj.values()} & {id(s) for s in red.reduced.adj.values()}
    assert all(np.array_equal(a, b) for a, b in zip(arrays, (g.ids, g.deg, g.eu, g.ev)))
