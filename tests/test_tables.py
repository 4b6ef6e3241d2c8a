"""Smoke-run the table harnesses at test scale (benchmarks/bench_tables.py
runs them at bench scale), check the committed results/ rows against one
bench-scale dataset, and check EXPERIMENTS.md against results/."""
import importlib.util
import json
from pathlib import Path

import pytest

from repro import tables

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"

SUBSET = ["NA", "DB"]


def test_table1_rows():
    rows = tables.table1(names=SUBSET, scale="test")
    assert [r["dataset"] for r in rows] == SUBSET
    for r in rows:
        assert r["paper_delta"] > 0 and r["delta"] > 0
        assert isinstance(r["condition"], bool)


def test_table2_rows():
    rows = tables.table2(names=SUBSET, scale="test")
    for r in rows:
        assert r["cliques"] > 0
        assert r["hbbmcpp_s"] > 0 and r["rdegen_s"] > 0
        assert r["hbbmcpp_paper_s"] is not None


def test_table3_rows():
    rows = tables.table3(names=SUBSET, scale="test")
    for r in rows:
        assert {"hbbmcpp_s", "hbbmcp_s", "rdegen_s", "rcdpp_s", "facpp_s"} <= set(r)
        # Ref++ is not run: only the paper's time is carried.
        assert "refpp_s" not in r and r["refpp_paper_s"] > 0


def test_table4_rows():
    rows = tables.table4(names=SUBSET, scale="test")
    for r in rows:
        assert r["d1_calls"] > 0 and r["d3_calls"] > 0
        assert r["d1_paper_s"] is not None


def test_table5_rows():
    rows = tables.table5(names=SUBSET, scale="test")
    for r in rows:
        assert r["t0_ratio"] is None
        assert 0 <= r["t3_ratio"] <= 100
        assert r["t3_calls"] <= r["t0_calls"]


def test_table6_rows():
    rows = tables.table6(names=SUBSET, scale="test")
    for r in rows:
        assert {"hbbmcpp_s", "vbbmc_dgn_s", "hbbmc_dgn_s", "hbbmc_mdg_s"} <= set(r)


@pytest.mark.parametrize("n", sorted(tables.TABLES))
def test_columns_match_committed_results(n):
    """The committed NA row of results/tableN.json is this program's output:
    every column but the times (``*_s``) holds the value a bench-scale run
    gives now. scripts/make_experiments.py renders the rows by column name,
    so the columns and their order are part of the output too."""
    committed_rows = json.loads((RESULTS / f"table{n}.json").read_text())
    (committed,) = [r for r in committed_rows if r["dataset"] == "NA"]
    (row,) = tables.TABLES[n](names=["NA"], scale="bench")
    assert list(row) == list(committed)
    untimed = [k for k in row if not k.endswith("_s")]
    assert {k: row[k] for k in untimed} == {k: committed[k] for k in untimed}


def test_experiments_md_is_rendered_from_results():
    """EXPERIMENTS.md is generated from results/; a results file changed
    without regenerating the document fails here."""
    script = ROOT / "scripts" / "make_experiments.py"
    spec = importlib.util.spec_from_file_location("make_experiments", script)
    make_experiments = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_experiments)
    assert make_experiments.render() == (ROOT / "EXPERIMENTS.md").read_text()
