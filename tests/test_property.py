"""Property-based testing: on arbitrary small graphs, every algorithm
configuration enumerates exactly the reference's maximal cliques."""
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hbbmc import run_named
from repro.core.localgraph import LocalGraph
from tests.oracles import reference_mce
from tests.test_hbbmc import EBBMC_D

# A graph as a set of edges over up to 14 vertices (possibly disconnected,
# possibly empty, isolated vertices included via the vertex range).
edge_sets = st.sets(
    st.tuples(st.integers(0, 13), st.integers(0, 13)).filter(lambda e: e[0] != e[1]),
    max_size=45,
)


def build(edges):
    return LocalGraph.from_edges(edges, vertices=range(14))


@given(edge_sets)
@settings(max_examples=120, deadline=None)
def test_hbbmcpp_matches_reference(edges):
    g = build(edges)
    assert run_named(g, "HBBMC++").cliques == reference_mce(g)


@given(edge_sets, st.sampled_from(["tomita", "rcd", "fac"]))
@settings(max_examples=80, deadline=None)
def test_vertex_kernels_match_reference(edges, kernel):
    g = build(edges)
    r = run_named(g, "VBBMC-dgn", kernel=kernel)
    assert r.cliques == reference_mce(g)


@given(edge_sets, st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_depth_sweep_matches_reference(edges, d):
    g = build(edges)
    assert run_named(g, "HBBMC++", d=d).cliques == reference_mce(g)


@given(edge_sets)
@settings(max_examples=60, deadline=None)
def test_pure_ebbmc_matches_reference(edges):
    g = build(edges)
    r = run_named(g, "HBBMC+", d=EBBMC_D)
    assert r.cliques == reference_mce(g)
