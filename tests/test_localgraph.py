"""Unit tests for the LocalGraph adjacency structure."""
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
    assert g.vertices() == [1, 2, 3]


def test_edges_canonical(tri):
    assert sorted(tri.edges()) == [(0, 1), (0, 2), (1, 2)]


def test_density(tri):
    assert tri.density() == pytest.approx(1.0)
    assert LocalGraph({}).density() == 0.0
