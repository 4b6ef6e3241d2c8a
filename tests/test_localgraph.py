"""Unit tests for LocalGraph: its canonical edge arrays and adjacency sets."""
import numpy as np
import pytest

from repro.core.localgraph import LocalGraph


@pytest.fixture
def tri():
    return LocalGraph.from_edges([(0, 1), (1, 2), (0, 2)])


def test_from_edges_basic(tri):
    assert tri.n == 3
    assert tri.m == 3
    assert tri.adj[0] == {1, 2}


def test_from_edges_drops_self_loops():
    g = LocalGraph.from_edges([(0, 0), (0, 1)])
    assert g.m == 1
    assert 0 not in g.adj[0]


def test_from_edges_dedups_reversed():
    g = LocalGraph.from_edges([(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


def test_isolated_vertices_via_vertices_param():
    g = LocalGraph.from_edges([(0, 1)], vertices=[0, 1, 5])
    assert g.n == 3
    assert len(g.adj[5]) == 0


def test_vertices_sorted():
    g = LocalGraph.from_edges([(3, 1), (2, 1)])
    assert g.ids.tolist() == [1, 2, 3]


def test_edges_canonical(tri):
    assert sorted(tri.edges_at(slice(None))) == [(0, 1), (0, 2), (1, 2)]


def test_density(tri):
    assert tri.density() == pytest.approx(1.0)
    assert LocalGraph.from_edges([]).density() == 0.0


def test_from_edges_array_matches_list():
    """An (m, 2) array with self-loops, reversed and repeated rows, huge
    ids and extra ``vertices`` gives the graph the list of pairs gives."""
    rows = [(3, 1), (1, 3), (2, 2), (1, 2), (3, 1), (2, 1), (10**12, 1)]
    a = LocalGraph.from_edges(np.array(rows), vertices=[0, 2, 7])
    b = LocalGraph.from_edges(rows, vertices=[0, 2, 7])
    want = {0: set(), 1: {2, 3, 10**12}, 2: {1}, 3: {1}, 7: set(), 10**12: {1}}
    assert a.adj == b.adj == want
    assert (a.n, a.m) == (b.n, b.m) == (6, 3)
    assert a.edges_at(slice(None)) == b.edges_at(slice(None)) == [(1, 2), (1, 3), (1, 10**12)]

