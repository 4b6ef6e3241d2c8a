"""Tests for the deterministic graph generators."""
import numpy as np
import pytest

from repro.graphs.generators import ba_edges, powerlaw_cluster_edges, social_edges, to_local
from tests.oracles import caveman_edges, er_edges

#: Each generator under a short name, which the test ids carry.
GENERATORS = {
    "er": er_edges,
    "ba": ba_edges,
    "plc": powerlaw_cluster_edges,
    "caveman": caveman_edges,
    "social": social_edges,
}

CASES = [
    ("er", dict(n=50, m=200)),
    ("ba", dict(n=60, m_attach=3)),
    ("plc", dict(n=60, m_attach=3, p_triad=0.6)),
    ("caveman", dict(n_caves=4, cave_size=5, n_chords=3)),
    ("social", dict(n=60, m_attach=3, caves=(2, 8, 3), core=(15, 0.4), bicore=(8, 8, 0.5))),
]


@pytest.mark.parametrize("model,params", CASES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_canonical_form(model, params, seed):
    e = GENERATORS[model](seed=seed, **params)
    assert e.ndim == 2 and e.shape[1] == 2
    assert (e[:, 0] < e[:, 1]).all(), "edges must be oriented src < dst"
    assert len({tuple(r) for r in e.tolist()}) == len(e), "no duplicate edges"
    assert (np.lexsort((e[:, 1], e[:, 0])) == np.arange(len(e))).all(), "rows sorted by (u, v)"


@pytest.mark.parametrize("model,params", CASES)
def test_deterministic_in_seed(model, params):
    generate = GENERATORS[model]
    a = generate(seed=7, **params)
    b = generate(seed=7, **params)
    assert np.array_equal(a, b)
    c = generate(seed=8, **params)
    assert not np.array_equal(a, c)


def test_er_edge_count():
    e = er_edges(100, 500, seed=0)
    assert len(e) == 500


def test_er_caps_at_complete_graph():
    e = er_edges(5, 100, seed=0)
    assert len(e) == 10


def test_ba_growth_degree():
    g = to_local(ba_edges(200, 4, seed=1), 200)
    assert g.n == 200
    # every non-seed vertex attaches to >= min(m_attach, predecessors) targets
    assert g.m >= 4 * (200 - 8)


def test_plc_has_more_triangles_than_ba():
    def tri_count(g):
        return sum(
            1
            for u in g.adj
            for v in g.adj[u]
            if u < v
            for w in g.adj[u] & g.adj[v]
            if v < w
        )

    ba = to_local(ba_edges(300, 4, seed=2), 300)
    plc = to_local(powerlaw_cluster_edges(300, 4, 0.9, seed=2), 300)
    assert tri_count(plc) > tri_count(ba)


def test_caveman_structure():
    g = to_local(caveman_edges(5, 6, 0, seed=0))
    # every cave is a 6-clique: first cave vertices 0..5 pairwise adjacent
    for i in range(6):
        for j in range(i + 1, 6):
            assert j in g.adj[i]


def test_social_caves_are_two_plexes():
    e = social_edges(40, 3, seed=3, caves=(2, 10, 4))
    g = to_local(e)
    # cave vertices are 40..49 and 50..59; each has >= k-2 neighbors inside
    for base in (40, 50):
        ids = set(range(base, base + 10))
        for v in ids:
            assert len(g.adj[v] & ids) >= 8
def test_social_removes_exact_matching():
    e = social_edges(40, 3, seed=3, caves=(1, 10, 4))
    g = to_local(e)
    ids = set(range(40, 50))
    missing = [(i, j) for i in ids for j in ids if i < j and j not in g.adj[i]]
    assert len(missing) == 4  # a matching of 4 pairs was removed
    used = [v for p in missing for v in p]
    assert len(set(used)) == 8  # and it is a matching


def test_social_bicore_is_bipartite_overlay():
    base = to_local(ba_edges(60, 3, seed=5), 60)
    full = to_local(social_edges(60, 3, seed=5, bicore=(10, 10, 1.0)))
    extra = full.m - base.m
    assert extra > 50  # p=1.0: close to 100 new cross edges (minus overlaps)


def test_to_local_isolated_padding():
    g = to_local(er_edges(10, 5, seed=0), n=20)
    assert g.n == 20
