"""Smoke-run the table harnesses at test scale (benchmarks/bench_tables.py
runs them at bench scale), count the sweep's runs, check the time claims'
tie rule, and check the committed results/ rows against a bench-scale run
and each other, and EXPERIMENTS.md."""
import importlib.util
import json
from pathlib import Path
from statistics import median

import pytest

from repro import tables
from repro.core.hbbmc import resolve_config, run_named

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"

SUBSET = ["NA", "DB"]


def test_table1_rows():
    rows = tables.table1(names=SUBSET, scale="test")
    assert [r["dataset"] for r in rows] == SUBSET
    for r in rows:
        assert r["paper_delta"] > 0 and r["delta"] > 0
        assert isinstance(r["condition"], bool)


@pytest.fixture(scope="module")
def smoke():
    """Tables II–VI at test scale on ``SUBSET``, from one sweep."""
    return tables.sweep(names=SUBSET, scale="test")


@pytest.fixture(scope="module")
def bench_na():
    """Every table's bench-scale NA rows; Tables II–VI from one sweep."""
    return {1: tables.table1(names=["NA"], scale="bench"), **tables.sweep(names=["NA"], scale="bench")}


def test_table2_rows(smoke):
    for r in smoke[2]:
        assert r["cliques"] > 0
        assert r["hbbmcpp_s"] > 0 and r["rdegen_s"] > 0
        assert r["hbbmcpp_paper_s"] is not None


def test_table3_rows(smoke):
    for r in smoke[3]:
        assert {"hbbmcpp_s", "hbbmcp_s", "rdegen_s", "rcdpp_s", "facpp_s"} <= set(r)
        # Ref++ is not run: only the paper's time is carried.
        assert "refpp_s" not in r and r["refpp_paper_s"] > 0


def test_table4_rows(smoke):
    for r in smoke[4]:
        assert r["d1_calls"] > 0 and r["d3_calls"] > 0
        assert r["d1_paper_s"] is not None


def test_table5_rows(smoke):
    for r in smoke[5]:
        assert r["t0_ratio"] is None
        assert 0 <= r["t3_ratio"] <= 100
        assert r["t3_calls"] <= r["t0_calls"]


def test_table6_rows(smoke):
    for r in smoke[6]:
        assert {"hbbmcpp_s", "vbbmc_dgn_s", "hbbmc_dgn_s", "hbbmc_mdg_s"} <= set(r)


def test_sweep_warms_up_then_interleaves_rounds(monkeypatch):
    """Per dataset the sweep makes one warm-up ``run_named`` call, then
    ``ROUNDS`` rounds of one call per distinct configuration of Tables II–VI;
    each column shows the median, min and max of its configuration's timed
    runs, whose calls agree."""
    calls = []

    def counted(g, name, **overrides):
        calls.append((resolve_config(name, overrides), run_named(g, name, **overrides)))
        return calls[-1][1]

    monkeypatch.setattr(tables, "run_named", counted)
    out = tables.sweep(names=["NA"], scale="test")
    configs = list(tables.CONFIGS)
    assert len(configs) == 15
    assert [cfg for cfg, _ in calls] == configs[:1] + configs * tables.ROUNDS
    timed = calls[1:]
    for n, t in tables.TABLES.items():
        for c in filter(lambda c: c.algorithm, t.columns):
            rs = [r for cfg, r in timed if cfg == c.config()]
            secs = [r.seconds for r in rs]
            (row,) = out[n]
            assert [row[f"{c.prefix}_{k}"] for k in ("s", "min_s", "max_s")] == [
                round(median(secs), 4), round(min(secs), 4), round(max(secs), 4)
            ]
            assert {r.stats.calls for r in rs} == {row[f"{c.prefix}_calls"]}


def test_time_claims_count_a_win_only_beyond_the_spread():
    """A time claim wins where its slowest run beats the other's fastest,
    loses where the other's slowest beats its fastest, and ties on
    overlapping ranges and on equal times; an exact claim counts the rows
    its predicate holds on."""
    faster = tables.Faster(6, "a is faster than b", "a", ("b",))
    calls = tables.Exact(6, "a makes fewer calls than b", lambda r: r["a_calls"] < r["b_calls"])

    def row(a, b, a_calls, b_calls):
        return {"a_min_s": a[0], "a_max_s": a[1], "b_min_s": b[0], "b_max_s": b[1],
                "a_calls": a_calls, "b_calls": b_calls}

    rows = [
        row((1.0, 1.2), (1.3, 1.5), 5, 9),  # win
        row((1.3, 1.5), (1.0, 1.2), 9, 5),  # loss
        row((1.0, 1.4), (1.3, 1.5), 5, 5),  # overlapping ranges: tie
        row((1.0, 1.0), (1.0, 1.0), 4, 9),  # equal times: tie
    ]
    assert [faster.outcome(r) for r in rows] == ["win", "loss", "tie", "tie"]
    # Against two others, one overlap is enough to keep a win from counting.
    three = tables.Faster(4, "a is faster than b and c", "a", ("b", "c"))
    r = {**rows[0], "c_min_s": 1.1, "c_max_s": 2.0}
    assert three.outcome(r) == "tie"
    assert three.outcome({**r, "c_min_s": 1.25}) == "win"
    assert three.outcome({**r, "c_min_s": 0.8, "c_max_s": 0.9}) == "loss"
    assert sum(calls.holds(r) for r in rows) == 2


def test_shared_configs_hold_one_run_in_committed_results():
    """Columns, in any tables, that resolve to one configuration hold the
    same time and calls in every committed row: one run serves them all."""
    seen = {}
    for n, t in tables.TABLES.items():
        for r in json.loads((RESULTS / f"table{n}.json").read_text()):
            for c in filter(lambda c: c.algorithm, t.columns):
                got = (r[f"{c.prefix}_s"], r[f"{c.prefix}_calls"])
                first = seen.setdefault((r["dataset"], c.config()), (n, c.prefix, got))
                assert first[2] == got, f"{r['dataset']}: {first} vs {(n, c.prefix, got)}"


@pytest.mark.parametrize("n", range(1, 7))
def test_columns_match_committed_results(bench_na, n):
    """The committed NA row of results/tableN.json is this program's output:
    every column but the times (``*_s``) holds the value a bench-scale run
    gives now. scripts/make_experiments.py renders the rows by column name,
    so the columns and their order are part of the output too."""
    committed_rows = json.loads((RESULTS / f"table{n}.json").read_text())
    (committed,) = [r for r in committed_rows if r["dataset"] == "NA"]
    (row,) = bench_na[n]
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
