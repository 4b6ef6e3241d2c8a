"""Harnesses reproducing the paper's evaluation tables (I–VI).

``table1`` gives Table I's statistics. ``TABLES`` declares each column of
Tables II–VI once, and ``sweep`` runs each distinct configuration ``ROUNDS``
times per surrogate dataset, interleaved round by round after one untimed
warm-up run, and returns every table's rows, with the paper's number
(seconds, Section V) next to the measured median and the range of the
rounds. ``CLAIMS`` declares once each shape of Section V that EXPERIMENTS.md
counts over those rows: a claim on untimed keys is counted exactly, and a
time claim counts a win only where it clears the rounds' spread.
``benchmarks/bench_tables.py`` records the rows in ``results/tableN.json``,
and ``scripts/make_experiments.py`` renders those files, with the claims,
into EXPERIMENTS.md.

Every run is in process, on one core, as the paper times its tables on one
machine, and builds every clique it finds. All runs of a dataset, across the
whole sweep, assert they produce the same number of maximal cliques and the
same clique set; a row's times are those of runs whose clique sets were
checked.
"""
from __future__ import annotations

import hashlib
from dataclasses import replace
from statistics import median
from typing import Callable, NamedTuple

from .core.hbbmc import MceConfig, resolve_config, run_named
from .core.reduction import reduce_graph
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
PAPER_T3 = {  # HBBMC++, HBBMC+, RDegen, Ref++ (not run), Rcd++, Fac++
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


def table1(names=None, scale: str = "bench") -> list[dict]:
    """Table I: dataset statistics (measured surrogate vs paper original)."""
    rows = []
    for name in names or DATASET_NAMES:
        s = SURROGATES[name]
        g = load_local(name, scale)
        st = compute_stats(g)
        p = PAPER_STATS[name]
        rows.append(
            dict(
                dataset=name,
                full_name=s.full_name,
                category=s.category,
                **{k: st[k] for k in ("n", "m", "delta", "tau", "rho", "condition")},
                gr_removed=reduce_graph(g).removed,
                paper_n=p["n"],
                paper_m=p["m"],
                paper_delta=p["delta"],
                paper_tau=p["tau"],
                paper_rho=p["rho"],
                paper_condition=condition_holds(p["delta"], p["tau"], p["rho"]),
            )
        )
    return rows


class Column(NamedTuple):
    """A column of Tables II–VI: its row keys' ``prefix``, rendered ``label``,
    and the run it shows (``algorithm`` ``None``: the paper's time only)."""

    prefix: str
    label: str
    algorithm: str | None
    overrides: dict = {}

    def config(self) -> MceConfig:
        return resolve_config(self.algorithm, self.overrides)


class Table(NamedTuple):
    """Paper numbers (one entry per column), columns, and the cells
    ``cells(column, run, paper entry)`` adds after a run's time and calls."""

    paper: dict[str, tuple]
    columns: list[Column]
    cells: Callable = lambda c, r, p: {"paper_s": p}


TABLES: dict[int, Table] = {
    2: Table(PAPER_T2, [  # HBBMC++ vs the four VBBMC+GR baselines
        Column("hbbmcpp", "HBBMC++", "HBBMC++"),
        Column("rref", "BK_Pivot + GR", "RRef"),
        Column("rdegen", "RDegen", "RDegen"),
        Column("rrcd", "RRcd", "RRcd"),
        Column("rfac", "RFac", "RFac"),
    ]),
    # Ablation (HBBMC+, RDegen) and hybrids with other kernels; Ref++ (the
    # hybrid with Naudé's refined pivot [12]) is not reproduced.
    3: Table(PAPER_T3, [
        Column("hbbmcpp", "HBBMC++", "HBBMC++"),
        Column("hbbmcp", "HBBMC+", "HBBMC+"),
        Column("rdegen", "RDegen", "RDegen"),
        Column("refpp", "Ref++", None),
        Column("rcdpp", "Rcd++", "Rcd++"),
        Column("facpp", "Fac++", "Fac++"),
    ]),
    4: Table(  # edge-oriented branching depth d
        PAPER_T4,
        [Column(f"d{d}", f"d={d}", "HBBMC++", {"d": d}) for d in (1, 2, 3)],
        lambda c, r, p: {"paper_s": p[0], "paper_calls": p[1]},
    ),
    5: Table(  # early-termination threshold t, with the b0/b ratio
        PAPER_T5,
        [Column(f"t{t}", f"t={t}", "HBBMC++", {"et_t": t}) for t in range(4)],
        lambda c, r, p: {
            "ratio": round(100 * r.stats.ratio(), 2) if c.overrides["et_t"] else None,
            "paper_s": p[0],
            "paper_calls": p[1],
            "paper_ratio": p[2],
        },
    ),
    6: Table(PAPER_T6, [  # initial-branch ordering: truss vs dgn vs mdg vs vertex
        Column("hbbmcpp", "HBBMC++ (truss)", "HBBMC++"),
        Column("vbbmc_dgn", "VBBMC-dgn", "VBBMC-dgn"),
        Column("hbbmc_dgn", "HBBMC-dgn", "HBBMC-dgn"),
        Column("hbbmc_mdg", "HBBMC-mdg", "HBBMC-mdg"),
    ]),
}


#: The sweep's run set: each distinct configuration, with a column naming it.
CONFIGS = {c.config(): c for t in TABLES.values() for c in t.columns if c.algorithm}

#: Timed runs of each configuration per dataset; a row shows their median.
ROUNDS = 3


class Exact(NamedTuple):
    """A claim on Table ``table``'s untimed keys, which holds on a row where
    ``holds(row)`` does."""

    table: int
    text: str
    holds: Callable[[dict], bool]


class Faster(NamedTuple):
    """A time claim on Table ``table``: column ``a`` is faster than each of
    ``others`` (column prefixes). It wins on a row when ``a``'s slowest round
    beats every other column's fastest, loses when some other column's
    slowest beats ``a``'s fastest, and ties otherwise."""

    table: int
    text: str
    a: str
    others: tuple[str, ...]

    def outcome(self, r: dict) -> str:
        if all(r[f"{self.a}_max_s"] < r[f"{o}_min_s"] for o in self.others):
            return "win"
        if any(r[f"{o}_max_s"] < r[f"{self.a}_min_s"] for o in self.others):
            return "loss"
        return "tie"


class Value(NamedTuple):
    """A number ``of(row)`` per row of Table ``table``, stated by ``text``, a
    ``str.format`` template over ``median``, ``min``, ``max``, ``argmax`` (the
    dataset of the max) and each dataset's own value by name."""

    table: int
    text: str
    of: Callable[[dict], float]


_BASELINES = ("rref", "rdegen", "rrcd", "rfac")  # Table II's VBBMC columns


def _best_baseline(r: dict, key: str):
    return min(r[f"{a}_{key}"] for a in _BASELINES)


#: Each shape of Section V that EXPERIMENTS.md counts, declared once.
CLAIMS: dict[str, Exact | Faster | Value] = {
    "condition": Exact(1, "the condition δ≥max(3,τ+3lnρ/ln3) holds on the surrogate", lambda r: r["condition"]),
    "paper_condition": Exact(1, "the condition holds on the paper's graph", lambda r: r["paper_condition"]),
    "tau_below": Exact(1, "τ < δ, as Theorem 1 of [19] requires", lambda r: r["tau"] < r["delta"]),
    "gr_inert": Exact(1, "GR (graph reduction, which peels every vertex outside the 3-core) removes no vertex,"
                      " so every algorithm searches the whole graph", lambda r: r["gr_removed"] == 0),
    "fewest_calls": Exact(2, "HBBMC++ makes the fewest calls among the Table II algorithms",
                          lambda r: r["hbbmcpp_calls"] <= _best_baseline(r, "calls")),
    "call_ratio": Value(2, "fewest-baseline calls / HBBMC++ calls: median **{median:.2f}×**, max **{max:.2f}×**"
                        " ({argmax})", lambda r: _best_baseline(r, "calls") / max(1, r["hbbmcpp_calls"])),
    "fastest": Faster(2, "HBBMC++ is faster than every Table II baseline", "hbbmcpp", _BASELINES),
    "faster_than_rdegen": Faster(2, "HBBMC++ is faster than RDegen", "hbbmcpp", ("rdegen",)),
    "time_ratio": Value(2, "fastest-baseline / HBBMC++ time: median {median:.2f}×, range {min:.2f}–{max:.2f}×",
                        lambda r: _best_baseline(r, "s") / r["hbbmcpp_s"]),
    "et_calls": Exact(3, "ET ablation: HBBMC++ makes fewer calls than HBBMC+",
                      lambda r: r["hbbmcpp_calls"] < r["hbbmcp_calls"]),
    # One pair of runs: Table V's t=3 and t=0 are Table III's HBBMC++ and HBBMC+.
    "et_time": Faster(3, "ET ablation: HBBMC++ (t=3) is faster than HBBMC+ (t=0)", "hbbmcpp", ("hbbmcp",)),
    "d1_time": Faster(4, "d=1 is faster than d=2 and d=3", "d1", ("d2", "d3")),
    "d1_calls": Exact(4, "d=1 makes the fewest calls", lambda r: r["d1_calls"] <= min(r["d2_calls"], r["d3_calls"])),
    "calls_rise_with_d": Exact(4, "#calls rise with d (d=1 ≤ d=2 ≤ d=3)",
                               lambda r: r["d1_calls"] <= r["d2_calls"] <= r["d3_calls"]),
    "calls_fall_with_t": Exact(5, "#calls do not rise with t",
                               lambda r: r["t0_calls"] >= r["t1_calls"] >= r["t2_calls"] >= r["t3_calls"]),
    "et_gain": Value(5, "t=3 against t=0 in time on the two largest: DG {DG:+.0f}%, OR {OR:+.0f}%",
                     lambda r: 100 * (r["t3_s"] / r["t0_s"] - 1)),
    "ratio_range": Value(5, "the b0/b ratios at t=3 land in {min:.0f}–{max:.0f}% (the paper: graph-dependent"
                         " 5–85%)", lambda r: r["t3_ratio"]),
    "ratio_below": Exact(5, "the b0/b ratio at t=3 is below 100%", lambda r: r["t3_ratio"] < 100),
    "cut_range": Value(5, "t=2 alone removes {min:.0f}–{max:.0f}% of the calls of t=0",
                       lambda r: 100 * (1 - r["t2_calls"] / r["t0_calls"])),
    "cut_half": Exact(5, "t=2 removes more than half of the calls of t=0",
                      lambda r: 2 * r["t2_calls"] < r["t0_calls"]),
    "truss_calls": Exact(6, "HBBMC++ makes the fewest calls among the hybrid orderings",
                         lambda r: r["hbbmcpp_calls"] <= min(r["hbbmc_dgn_calls"], r["hbbmc_mdg_calls"])),
    "truss_time": Faster(6, "HBBMC++ is faster than the other hybrid orderings", "hbbmcpp", ("hbbmc_dgn", "hbbmc_mdg")),
    "mdg_calls": Exact(6, "HBBMC-mdg makes fewer calls than HBBMC++",
                       lambda r: r["hbbmc_mdg_calls"] < r["hbbmcpp_calls"]),
    "mdg_time": Faster(6, "HBBMC-mdg is faster than HBBMC++", "hbbmc_mdg", ("hbbmcpp",)),
    "dgn_close": Exact(6, "HBBMC-dgn is within 10% of HBBMC++'s #calls",
                       lambda r: abs(r["hbbmc_dgn_calls"] - r["hbbmcpp_calls"]) <= 0.1 * r["hbbmcpp_calls"]),
    "vbbmc_calls": Exact(6, "HBBMC++ makes fewer calls than VBBMC-dgn (the vertex framework with the same ET and"
                         " GR)", lambda r: r["hbbmcpp_calls"] < r["vbbmc_dgn_calls"]),
    "vbbmc_time": Faster(6, "HBBMC++ is faster than VBBMC-dgn", "hbbmcpp", ("vbbmc_dgn",)),
}


def sweep(names=None, scale: str = "bench") -> dict[int, list[dict]]:
    """Tables II–VI's rows from one sweep. Per dataset: one untimed warm-up
    run, then ``ROUNDS`` rounds that each run every one of ``CONFIGS``; all
    the timed runs must give one clique count and clique set, and the rounds
    of a configuration the same calls. A row holds each run column's
    ``{prefix}_s`` (the median of its rounds), ``{prefix}_min_s``,
    ``{prefix}_max_s``, ``{prefix}_calls`` and cells, then ``cliques``, then
    the paper-only columns' ``{prefix}_paper_s``."""
    out: dict[int, list[dict]] = {n: [] for n in TABLES}
    for name in names or DATASET_NAMES:
        g = load_local(name, scale)
        warm = next(iter(CONFIGS.values()))
        run_named(g, warm.algorithm, **warm.overrides)
        runs: dict[MceConfig, list] = {cfg: [] for cfg in CONFIGS}
        outputs = set()
        for _ in range(ROUNDS):
            for cfg, c in CONFIGS.items():
                r = run_named(g, c.algorithm, **c.overrides)
                outputs.add((r.n_cliques, hashlib.sha1(repr(r.cliques).encode()).hexdigest()))
                # Keep no run's cliques past its digest: one run's at a time in memory.
                runs[cfg].append(replace(r, cliques=[]))
        assert len(outputs) == 1, f"{name}: clique counts or sets disagree: {outputs}"
        ((cliques, _),) = outputs
        for cfg, rs in runs.items():
            assert len({r.stats.calls for r in rs}) == 1, f"{name} {CONFIGS[cfg]}: calls differ"
        for n, t in TABLES.items():
            row: dict = {"dataset": name}
            cols = list(zip(t.columns, t.paper[name]))
            for c, p in cols:
                if c.algorithm:
                    rs = runs[c.config()]
                    secs = [r.seconds for r in rs]
                    cells = {
                        "s": round(median(secs), 4),
                        "min_s": round(min(secs), 4),
                        "max_s": round(max(secs), 4),
                        "calls": rs[0].stats.calls,
                        **t.cells(c, rs[0], p),
                    }
                    row.update({f"{c.prefix}_{k}": v for k, v in cells.items()})
            row["cliques"] = cliques
            row.update({f"{c.prefix}_paper_s": p for c, p in cols if not c.algorithm})
            out[n].append(row)
    return out
