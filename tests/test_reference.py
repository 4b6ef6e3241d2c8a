"""The reference Bron–Kerbosch is itself validated against brute force."""
import pytest

from repro.core.localgraph import LocalGraph
from repro.graphs.generators import to_local
from tests.oracles import brute_force_mce, er_edges, reference_mce, verify_cliques


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("n,m", [(8, 12), (10, 25), (12, 40)])
def test_reference_matches_brute_force(seed, n, m):
    g = to_local(er_edges(n, m, seed), n)
    assert reference_mce(g) == brute_force_mce(g)


def test_reference_triangle():
    g = LocalGraph.from_edges([(0, 1), (1, 2), (0, 2)])
    assert reference_mce(g) == [(0, 1, 2)]


def test_reference_isolated_vertex_is_1_clique():
    g = LocalGraph.from_edges([(0, 1)], vertices=[0, 1, 2])
    assert reference_mce(g) == [(0, 1), (2,)]


def test_reference_empty_graph():
    assert reference_mce(LocalGraph.from_edges([])) == []


def test_verify_accepts_reference_output():
    g = to_local(er_edges(12, 30, 0), 12)
    verify_cliques(g, reference_mce(g))


def test_verify_rejects_duplicates():
    g = LocalGraph.from_edges([(0, 1), (1, 2), (0, 2)])
    with pytest.raises(AssertionError, match="duplicate"):
        verify_cliques(g, [(0, 1, 2), (0, 1, 2)])


def test_verify_rejects_non_clique():
    g = LocalGraph.from_edges([(0, 1), (1, 2)])
    with pytest.raises(AssertionError, match="not a clique"):
        verify_cliques(g, [(0, 1, 2)])


def test_verify_rejects_non_maximal():
    g = LocalGraph.from_edges([(0, 1), (1, 2), (0, 2)])
    with pytest.raises(AssertionError, match="not maximal"):
        verify_cliques(g, [(0, 1)])


def test_verify_rejects_missing():
    g = LocalGraph.from_edges([(0, 1), (2, 3)])
    with pytest.raises(AssertionError, match="missing"):
        verify_cliques(g, [(0, 1)])


def test_brute_force_refuses_large():
    with pytest.raises(ValueError):
        brute_force_mce(to_local(er_edges(30, 60, 0), 30))
