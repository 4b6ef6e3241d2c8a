"""Smoke-run the table harnesses at test scale (they are the engines behind
jobs/ and benchmarks/)."""
import json
import re
import subprocess
import sys
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
        assert {"hbbmcpp_s", "hbbmcp_s", "rdegen_s", "refpp_s", "rcdpp_s", "facpp_s"} <= set(r)


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


def test_format_markdown():
    md = tables.format_markdown([{"a": 1, "b": "x"}])
    assert md.splitlines()[0] == "| a | b |"
    assert "| 1 | x |" in md


@pytest.mark.parametrize("n", sorted(tables.TABLES))
def test_columns_match_committed_results(n):
    """scripts/make_experiments.py renders results/tableN.json by column
    name, so a table's columns and their order are part of its output."""
    committed = json.loads((RESULTS / f"table{n}.json").read_text())
    rows = tables.TABLES[n](names=["NA"], scale="test")
    assert list(rows[0]) == list(committed[0])


def test_tier1_count_literals_match_the_suite():
    """README.md and the summary that scripts/make_experiments.py writes
    into EXPERIMENTS.md state the tier-1 test count as a literal."""
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "tests/", "--collect-only", "-q", "-p", "no:cacheprovider"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    collected = re.search(r"^(\d+) tests? collected", out.stdout, re.M)
    assert collected, out.stdout[-2000:] + out.stderr[-2000:]
    readme = re.search(r"^tests/ +(\d+) tests ", (ROOT / "README.md").read_text(), re.M)
    script = re.search(r"in the (\d+) tier-1 tests", (ROOT / "scripts" / "make_experiments.py").read_text())
    assert (int(readme[1]), int(script[1])) == (int(collected[1]),) * 2
