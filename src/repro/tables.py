"""Harnesses reproducing the paper's evaluation tables (I–VI).

Each ``tableN`` function runs the right algorithm set over the surrogate
datasets and returns one dict per table row, with the paper's reported
number (seconds, from the tables in Section V) next to the measured one, so
EXPERIMENTS.md and the jobs can print paper-vs-measured directly.

Execution mode:

- ``mode="local"`` (default): the sequential runners of ``repro.core`` —
  this matches the paper's single-machine setting and is what the recorded
  EXPERIMENTS.md numbers use;
- ``mode="dist"``: every run goes through the Spark root-branch-partitioned
  job in ``repro.dist.mce`` (requires a SparkSession). Times then include
  Spark scheduling overhead, which at surrogate scale dominates; the
  distributed path's purpose is validated scale-out, not kernel timing.

All runs in a table assert they produce the same number of maximal cliques.
"""
from __future__ import annotations

from typing import Callable

from .core.hbbmc import MceRun, run_named
from .graphs.datasets import (
    DATASET_NAMES,
    PAPER_STATS,
    SURROGATES,
    compute_stats,
    condition_holds,
    load_local,
)

# Paper numbers (seconds) from Tables II, III, IV, V and VI.
PAPER_T2 = {  # HBBMC++, RRef, RDegen, RRcd, RFac
    "NA": (0.33, 0.58, 0.48, 0.46, 0.61), "FB": (1.10, 1.78, 1.67, 1.24, 1.70),
    "WE": (0.02, 0.11, 0.08, 0.12, 0.17), "WK": (0.57, 1.12, 1.03, 1.01, 1.68),
    "SH": (0.45, 1.05, 0.98, 0.78, 1.15), "ST": (1.26, 2.15, 1.70, 1.67, 5.07),
    "DB": (0.16, 0.53, 0.47, 0.49, 0.83), "DE": (3.82, 8.29, 7.47, 5.76, 9.91),
    "DG": (239.58, 1441.22, 1046.40, 1518.36, 1603.08), "YO": (1.47, 2.85, 2.32, 2.19, 6.45),
    "PO": (19.31, 32.47, 25.96, 26.38, 31.66), "SK": (25.15, 65.27, 47.11, 44.90, 71.96),
    "CN": (6.03, 14.07, 11.18, 12.65, 20.37), "BA": (13.81, 28.67, 22.61, 20.59, 36.51),
    "OR": (884.20, 2297.57, 2200.54, 2410.93, 2749.32), "SO": (21.12, 40.58, 39.61, 37.44, 42.91),
}
PAPER_T3 = {  # HBBMC++, HBBMC+, RDegen, Ref++, Rcd++, Fac++
    "NA": (0.33, 0.42, 0.48, 0.40, 0.38, 0.42), "FB": (1.10, 1.40, 1.67, 1.17, 0.99, 1.20),
    "WE": (0.02, 0.06, 0.08, 0.04, 0.05, 0.06), "WK": (0.57, 0.78, 1.03, 0.68, 0.63, 0.94),
    "SH": (0.45, 0.88, 0.98, 0.48, 0.43, 0.53), "ST": (1.26, 1.45, 1.70, 1.60, 1.49, 3.74),
    "DB": (0.16, 0.38, 0.47, 0.18, 0.20, 0.29), "DE": (3.82, 5.53, 7.47, 4.23, 3.53, 5.07),
    "DG": (239.58, 521.98, 1046.40, 426.28, 363.25, 412.58), "YO": (1.47, 1.92, 2.32, 1.80, 1.66, 4.08),
    "PO": (19.31, 22.33, 25.96, 24.15, 23.54, 23.55), "SK": (25.15, 40.81, 47.11, 34.85, 28.78, 54.45),
    "CN": (6.03, 7.50, 11.18, 7.59, 8.19, 10.88), "BA": (13.81, 18.73, 22.61, 17.51, 15.09, 16.89),
    "OR": (884.20, 1433.02, 2200.54, 923.39, 1162.74, 1104.95), "SO": (21.12, 32.16, 39.61, 21.63, 23.95, 22.88),
}
PAPER_T4 = {  # (time, calls) for d = 1, 2, 3; calls in raw units
    "NA": ((0.33, 365e3), (0.99, 1.57e6), (4.99, 13.3e6)),
    "FB": ((1.10, 2.15e6), (1.46, 3.47e6), (2.45, 6.82e6)),
    "WE": ((0.02, 205e3), (0.11, 467e3), (1.29, 1.45e6)),
    "WK": ((0.57, 1.76e6), (1.04, 2.91e6), (2.35, 5.83e6)),
    "SH": ((0.45, 1.57e6), (0.72, 3.27e6), (1.91, 10.6e6)),
    "ST": ((1.26, 1.69e6), (1.83, 3.56e6), (11.12, 14.7e6)),
    "DB": ((0.16, 537e3), (0.27, 1.43e6), (3.05, 3.61e6)),
    "DE": ((3.82, 1.29e6), (33.28, 17.4e6), (313.02, 279.1e6)),
    "DG": ((239.58, 1.54e9), (583.76, 1.89e9), (798.05, 2.07e9)),
    "YO": ((1.47, 3.97e6), (1.58, 6.25e6), (1.75, 8.24e6)),
    "PO": ((19.31, 27.9e6), (21.48, 39.0e6), (25.48, 65.1e6)),
    "SK": ((25.15, 53.8e6), (30.86, 76.8e6), (59.09, 104.5e6)),
    "CN": ((6.03, 16.6e6), (13.57, 24.9e6), (16.57, 39.8e6)),
    "BA": ((13.81, 25.1e6), (25.18, 35.4e6), (26.43, 53.5e6)),
    "OR": ((884.20, 5.58e9), (1391.90, 6.11e9), (1829.41, 6.70e9)),
    "SO": ((21.12, 42.5e6), (28.51, 61.3e6), (38.23, 108.8e6)),
}
PAPER_T5 = {  # (time, calls, ratio%) for t = 0, 1, 2, 3
    "NA": ((0.42, 552e3, None), (0.38, 374e3, 19.47), (0.34, 366e3, 19.83), (0.33, 365e3, 19.72)),
    "FB": ((1.40, 4.08e6, None), (1.33, 3.45e6, 75.47), (1.25, 2.77e6, 74.90), (1.10, 2.15e6, 65.92)),
    "WE": ((0.06, 321e3, None), (0.04, 217e3, 59.14), (0.03, 206e3, 59.23), (0.02, 205e3, 57.39)),
    "WK": ((0.78, 3.36e6, None), (0.64, 2.76e6, 84.72), (0.60, 2.20e6, 83.06), (0.57, 1.76e6, 76.35)),
    "SH": ((0.88, 2.31e6, None), (0.66, 1.72e6, 53.98), (0.52, 1.66e6, 52.91), (0.45, 1.57e6, 49.47)),
    "ST": ((1.45, 2.61e6, None), (1.36, 1.99e6, 64.94), (1.29, 1.76e6, 60.98), (1.26, 1.69e6, 57.17)),
    "DB": ((0.38, 993e3, None), (0.29, 571e3, 57.71), (0.22, 550e3, 55.92), (0.16, 537e3, 52.47)),
    "DE": ((5.53, 2.26e6, None), (4.94, 1.30e6, 4.23), (4.02, 1.29e6, 4.63), (3.82, 1.29e6, 4.63)),
    "DG": ((521.98, 2.36e9, None), (419.62, 2.06e9, 73.76), (347.80, 1.78e9, 71.38), (239.58, 1.54e9, 64.50)),
    "YO": ((1.92, 6.30e6, None), (1.74, 5.00e6, 82.16), (1.57, 4.37e6, 78.91), (1.47, 3.97e6, 74.79)),
    "PO": ((22.33, 38.6e6, None), (21.20, 33.4e6, 63.58), (20.03, 30.2e6, 61.97), (19.31, 27.9e6, 57.25)),
    "SK": ((40.81, 102e6, None), (35.83, 82.3e6, 82.65), (30.45, 69.1e6, 83.11), (25.15, 53.8e6, 77.81)),
    "CN": ((7.50, 25.1e6, None), (6.86, 20.6e6, 78.74), (6.57, 18.2e6, 76.07), (6.03, 16.6e6, 71.92)),
    "BA": ((18.73, 36.4e6, None), (15.49, 31.1e6, 73.33), (14.39, 27.6e6, 71.19), (13.81, 25.1e6, 66.88)),
    "OR": ((1433.02, 8.99e9, None), (1034.83, 7.73e9, 69.29), (966.22, 6.78e9, 67.12), (884.20, 5.58e9, 62.90)),
    "SO": ((32.16, 63.9e6, None), (26.03, 53.2e6, 71.11), (18.22, 47.0e6, 68.45), (21.12, 42.5e6, 62.69)),
}
PAPER_T6 = {  # HBBMC++, VBBMC-dgn, HBBMC-dgn, HBBMC-mdg
    "NA": (0.33, 0.44, 0.45, 0.37), "FB": (1.10, 1.42, 1.43, 1.26),
    "WE": (0.02, 0.04, 0.04, 0.05), "WK": (0.57, 0.76, 0.77, 0.73),
    "SH": (0.45, 0.66, 0.68, 0.55), "ST": (1.26, 1.81, 1.89, 1.57),
    "DB": (0.16, 0.27, 0.28, 0.23), "DE": (3.82, 6.81, 6.96, 5.13),
    "DG": (239.58, 594.27, 596.55, 486.02), "YO": (1.47, 2.42, 2.51, 2.53),
    "PO": (19.31, 25.99, 26.58, 20.64), "SK": (25.15, 37.58, 38.71, 32.30),
    "CN": (6.03, 11.91, 12.36, 7.83), "BA": (13.81, 16.78, 17.19, 16.58),
    "OR": (884.20, 1505.95, 1550.6, 1204.22), "SO": (21.12, 36.03, 37.33, 27.66),
}


def _runner(mode: str, spark) -> Callable[..., MceRun]:
    """Dispatch a (graph, algorithm, overrides) runner for the mode."""
    if mode == "local":
        def run(g, edges_df_, name, **ov):
            return run_named(g, name, **ov)
        return run
    if mode == "dist":
        if spark is None:
            raise ValueError("mode='dist' needs a SparkSession")
        import time

        from .dist.mce import mce_distributed

        def run(g, edges_df_, name, **ov):
            t0 = time.perf_counter()
            res = mce_distributed(spark, edges_df_, name, **ov)
            secs = time.perf_counter() - t0
            return MceRun(cliques=None, stats=res.stats, seconds=secs)
        return run
    raise ValueError(f"unknown mode {mode!r}")


def _materialize(names, scale, mode, spark):
    """Load each dataset once per table run (graph and, for dist mode, the
    Spark edge DataFrame)."""
    out = []
    for name in names:
        g = load_local(name, scale)
        edf = None
        if mode == "dist":
            from .graphs.edgelist import edges_df
            from .graphs.datasets import load_edges

            edf = edges_df(spark, load_edges(name, scale)).cache()
            edf.count()
        out.append((name, g, edf))
    return out


def table1(names=None, scale: str = "bench") -> list[dict]:
    """Table I: dataset statistics (measured surrogate vs paper original)."""
    rows = []
    for name in names or DATASET_NAMES:
        s = SURROGATES[name]
        st = compute_stats(load_local(name, scale))
        p = PAPER_STATS[name]
        rows.append(
            dict(
                dataset=name,
                full_name=s.full_name,
                category=s.category,
                **{k: st[k] for k in ("n", "m", "delta", "tau", "rho", "condition")},
                paper_n=p["n"],
                paper_m=p["m"],
                paper_delta=p["delta"],
                paper_tau=p["tau"],
                paper_rho=p["rho"],
                paper_condition=condition_holds(p["delta"], p["tau"], p["rho"]),
            )
        )
    return rows


def _alg_table(
    algs: list[str],
    paper: dict[str, tuple],
    names,
    scale,
    mode,
    spark,
    overrides_per_alg=None,
) -> list[dict]:
    """Shared driver for Tables II, III and VI: run ``algs`` per dataset,
    check clique counts agree, report seconds/calls with paper seconds."""
    rows = []
    run = _runner(mode, spark)
    for name, g, edf in _materialize(names or DATASET_NAMES, scale, mode, spark):
        row: dict = {"dataset": name}
        counts = set()
        for i, alg in enumerate(algs):
            ov = (overrides_per_alg or {}).get(alg, {})
            r = run(g, edf, alg, **ov)
            key = alg.lower().replace("+", "p").replace("-", "_")
            row[f"{key}_s"] = round(r.seconds, 4)
            row[f"{key}_calls"] = r.stats.calls
            row[f"{key}_paper_s"] = paper[name][i] if name in paper else None
            counts.add(r.n_cliques)
        assert len(counts) == 1, f"{name}: clique counts disagree: {counts}"
        row["cliques"] = counts.pop()
        rows.append(row)
    return rows


def table2(names=None, scale="bench", mode="local", spark=None) -> list[dict]:
    """Table II: HBBMC++ vs the four VBBMC+GR baselines."""
    return _alg_table(
        ["HBBMC++", "RRef", "RDegen", "RRcd", "RFac"], PAPER_T2, names, scale, mode, spark
    )


def table3(names=None, scale="bench", mode="local", spark=None) -> list[dict]:
    """Table III: ablation (HBBMC+, RDegen) and hybrid-with-other-kernels."""
    return _alg_table(
        ["HBBMC++", "HBBMC+", "RDegen", "Ref++", "Rcd++", "Fac++"],
        PAPER_T3,
        names,
        scale,
        mode,
        spark,
    )


def table4(names=None, scale="bench", mode="local", spark=None) -> list[dict]:
    """Table IV: edge-oriented branching depth d ∈ {1, 2, 3}."""
    rows = []
    run = _runner(mode, spark)
    for name, g, edf in _materialize(names or DATASET_NAMES, scale, mode, spark):
        row: dict = {"dataset": name}
        counts = set()
        for d in (1, 2, 3):
            r = run(g, edf, "HBBMC++", d=d)
            pt = PAPER_T4.get(name)
            row[f"d{d}_s"] = round(r.seconds, 4)
            row[f"d{d}_calls"] = r.stats.calls
            row[f"d{d}_paper_s"] = pt[d - 1][0] if pt else None
            row[f"d{d}_paper_calls"] = pt[d - 1][1] if pt else None
            counts.add(r.n_cliques)
        assert len(counts) == 1, f"{name}: clique counts disagree across d"
        row["cliques"] = counts.pop()
        rows.append(row)
    return rows


def table5(names=None, scale="bench", mode="local", spark=None) -> list[dict]:
    """Table V: early-termination threshold t ∈ {0, 1, 2, 3} with the b0/b
    ratio."""
    rows = []
    run = _runner(mode, spark)
    for name, g, edf in _materialize(names or DATASET_NAMES, scale, mode, spark):
        row: dict = {"dataset": name}
        counts = set()
        for t in (0, 1, 2, 3):
            r = run(g, edf, "HBBMC++", et_t=t)
            pt = PAPER_T5.get(name)
            row[f"t{t}_s"] = round(r.seconds, 4)
            row[f"t{t}_calls"] = r.stats.calls
            row[f"t{t}_ratio"] = round(100 * r.stats.ratio(), 2) if t else None
            row[f"t{t}_paper_s"] = pt[t][0] if pt else None
            row[f"t{t}_paper_ratio"] = pt[t][2] if pt else None
            counts.add(r.n_cliques)
        assert len(counts) == 1, f"{name}: clique counts disagree across t"
        row["cliques"] = counts.pop()
        rows.append(row)
    return rows


def table6(names=None, scale="bench", mode="local", spark=None) -> list[dict]:
    """Table VI: initial-branch ordering (truss vs dgn vs mdg vs vertex)."""
    return _alg_table(
        ["HBBMC++", "VBBMC-dgn", "HBBMC-dgn", "HBBMC-mdg"], PAPER_T6, names, scale, mode, spark
    )


TABLES = {1: table1, 2: table2, 3: table3, 4: table4, 5: table5, 6: table6}


def format_markdown(rows: list[dict]) -> str:
    """Render table rows as a GitHub-flavored markdown table."""
    if not rows:
        return "(no rows)"
    cols = list(rows[0])
    lines = ["| " + " | ".join(cols) + " |", "|" + "---|" * len(cols)]
    for r in rows:
        lines.append("| " + " | ".join(str(r.get(c, "")) for c in cols) + " |")
    return "\n".join(lines)
