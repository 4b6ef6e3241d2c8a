"""Tests for the 16 Table I surrogate datasets."""
import pytest

from repro.graphs.datasets import (
    DATASET_NAMES,
    PAPER_STATS,
    SURROGATES,
    compute_stats,
    condition_holds,
    load_edges,
    load_local,
)
from repro.core.hbbmc import run_named
from tests.oracles import reference_mce


def test_sixteen_datasets_in_table_order():
    assert DATASET_NAMES == list(PAPER_STATS)
    assert len(DATASET_NAMES) == 16


@pytest.mark.parametrize("name", DATASET_NAMES)
def test_test_scale_loads_and_is_modest(name):
    g = load_local(name, "test")
    assert 0 < g.n < 600
    assert g.m > 0


@pytest.mark.parametrize("name", DATASET_NAMES)
def test_deterministic(name):
    a = load_edges(name, "test")
    b = load_edges(name, "test")
    assert (a == b).all()


@pytest.mark.parametrize("name", DATASET_NAMES)
def test_hbbmcpp_correct_on_test_scale(name):
    """End-to-end correctness of the full default pipeline (GR + truss
    ordering + hybrid branching + ET) on every surrogate at test scale."""
    g = load_local(name, "test")
    assert run_named(g, "HBBMC++").cliques == reference_mce(g)


@pytest.mark.parametrize("name", DATASET_NAMES)
def test_stats_sane(name):
    st = compute_stats(load_local(name, "test"))
    assert st["tau"] < st["delta"] or st["delta"] <= 2
    assert st["rho"] > 0


def test_condition_matches_paper_on_paper_stats():
    """Our condition evaluator reproduces the paper's claim on the paper's
    own Table I numbers: it holds for most graphs, and fails for the
    near-degenerate tau ~ delta web/collaboration graphs WE and DB."""
    holds = {
        name: condition_holds(p["delta"], p["tau"], p["rho"])
        for name, p in PAPER_STATS.items()
    }
    assert not holds["WE"]
    assert not holds["DB"]
    assert sum(holds.values()) >= 12


def test_surrogate_metadata_complete():
    for s in SURROGATES.values():
        assert s.category and s.full_name
        assert set(s.bench) >= {"n", "m_attach", "seed"}
