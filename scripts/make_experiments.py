"""Generate EXPERIMENTS.md from results/table*.json and results/dist.json
(written by ``pytest benchmarks/ --benchmark-only``).

Usage: python scripts/make_experiments.py
"""
from __future__ import annotations

import json
import pathlib

from repro.tables import CONFIGS, TABLES

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"


def load(name: str):
    return json.loads((RESULTS / f"{name}.json").read_text())


def md(header: list[str], rows: list[list]) -> str:
    out = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    for r in rows:
        out.append("| " + " | ".join(str(x) for x in r) + " |")
    return "\n".join(out)


def fmt(x, nd=2):
    if isinstance(x, float):
        return f"{x:.{nd}f}"
    return str(x)


def where(rows, pred) -> list[str]:
    """The datasets whose row satisfies ``pred``."""
    return [r["dataset"] for r in rows if pred(r)]


def tally(rows, hits: list[str]) -> str:
    """``k/n``, then the datasets outside ``hits`` (or inside them, when
    they are the fewer)."""
    rest = [r["dataset"] for r in rows if r["dataset"] not in hits]
    if not rest or not hits:
        return f"{len(hits)}/{len(rows)}"
    if len(rest) <= len(hits):
        return f"{len(hits)}/{len(rows)} (not {', '.join(rest)})"
    return f"{len(hits)}/{len(rows)} ({', '.join(hits)})"


def cells(r, n: int, *keys: str) -> list[str]:
    """Row ``r``'s cell per column of Table ``n``: the column's ``keys``, shown
    joined by `` / ``; a column that is not run shows its paper time only."""
    show = {"paper_s": fmt, "s": lambda x: fmt(x, 3), "paper_calls": kfmt, "calls": kfmt}
    return [
        " / ".join(show[k](r[f"{c.prefix}_{k}"]) for k in keys)
        if c.algorithm
        else f"{fmt(r[f'{c.prefix}_paper_s'])} / not reproduced"
        for c in TABLES[n].columns
    ]


def kfmt(c):
    c = float(c)
    for unit, div in (("B", 1e9), ("M", 1e6), ("K", 1e3)):
        if c >= div:
            return f"{c / div:.2f}{unit}"
    return str(int(c))


def render() -> str:
    """EXPERIMENTS.md's text, from the committed results files."""
    t1, t2, t3, t4, t5, t6 = (load(f"table{i}") for i in range(1, 7))
    parts: list[str] = []
    parts.append(HEADER)

    # ---------------- Table I ----------------
    rows = [
        [
            r["dataset"], r["full_name"],
            f"{r['n']} / {r['paper_n']:,}",
            f"{r['m']} / {r['paper_m']:,}",
            f"{r['delta']} / {r['paper_delta']}",
            f"{r['tau']} / {r['paper_tau']}",
            f"{r['rho']} / {r['paper_rho']}",
            f"{'T' if r['condition'] else 'F'} / {'T' if r['paper_condition'] else 'F'}",
            r["gr_removed"],
        ]
        for r in t1
    ]
    ok = sum(1 for r in t1 if r["condition"])
    pok = sum(1 for r in t1 if r["paper_condition"])
    inert = where(t1, lambda r: r["gr_removed"] == 0)
    parts.append(
        "## Table I — dataset statistics (surrogate / paper)\n\n"
        + md(["ds", "graph", "n", "m", "δ", "τ", "ρ", "δ≥max(3,τ+3lnρ/ln3)", "GR removed"], rows)
        + f"\n\nCondition holds on **{ok}/{len(t1)} surrogates** vs"
        f" **{pok}/{len(t1)} paper graphs**. τ < δ on {tally(t1, tau_below(t1))}, as"
        " Theorem 1 of [19] requires. GR (graph reduction, which peels every vertex"
        f" outside the 3-core) removes no vertex on {tally(t1, inert)} surrogates,"
        " so on those every algorithm searches the whole graph.\n"
    )

    # ---------------- Table II ----------------
    rows = [[r["dataset"], *cells(r, 2, "paper_s", "s", "calls"), r["cliques"]] for r in t2]
    parts.append(
        "## Table II — comparison with baselines (paper s / measured s / measured #calls)\n\n"
        + md(["ds", *(c.label for c in TABLES[2].columns), "#cliques"], rows)
        + "\n\n"
        + t2_narrative(t2)
    )

    # ---------------- Table III ----------------
    rows = [[r["dataset"], *cells(r, 3, "paper_s", "s", "calls")] for r in t3]
    et_call_wins = where(t3, lambda r: r["hbbmcpp_calls"] < r["hbbmcp_calls"])
    parts.append(
        "## Table III — ablation and hybrid variants (paper s / measured s / #calls)\n\n"
        + md(["ds", *(c.label for c in TABLES[3].columns)], rows)
        + f"\n\nET ablation (HBBMC++ vs HBBMC+): fewer calls on **{tally(t3, et_call_wins)}**"
        f" datasets, faster on **{tally(t3, et_faster(t5))}** (the paper: faster on 16/16)."
        " Ref++ is the hybrid with Naudé's refined pivot, which is not reproduced:"
        " its column shows the paper's time only."
        " Rcd++ and Fac++ branch differently; among the hybrid kernel variants the"
        " ranking is data-dependent in the paper too.\n"
    )

    # ---------------- Table IV ----------------
    rising = where(t4, lambda r: r["d1_calls"] <= r["d2_calls"] <= r["d3_calls"])
    cols = TABLES[4].columns
    rows = [
        [r["dataset"], *cells(r, 4, "paper_s", "s"), *cells(r, 4, "paper_calls", "calls")]
        for r in t4
    ]
    parts.append(
        "## Table IV — edge-oriented depth d (paper / measured)\n\n"
        + md(["ds", *(f"{c.label} s" for c in cols), *(f"{c.label} #calls" for c in cols)], rows)
        + f"\n\n**Shape.** In the paper d=1 is fastest on 16/16 datasets. Here d=1"
        f" has the least time on **{tally(t4, d1_time(t4))}** datasets and the fewest"
        f" calls on **{tally(t4, d1_calls(t4))}**. #calls rise with d (d=1 ≤ d=2 ≤"
        f" d=3) on {tally(t4, rising)}.\n"
    )

    # ---------------- Table V ----------------
    cols = TABLES[5].columns
    rows = [
        [r["dataset"], *cells(r, 5, "paper_s", "s"), *cells(r, 5, "paper_calls", "calls")]
        + [f"{fmt(r['t3_paper_ratio'])} / {fmt(r['t3_ratio'])}"]
        for r in t5
    ]
    parts.append(
        "## Table V — early-termination threshold t (paper / measured; ratio % at t=3)\n\n"
        + md(["ds", *(f"{c.label} s" for c in cols), *(f"{c.label} #calls" for c in cols), "ratio(t=3)"], rows)
        + t5_narrative(t5)
    )

    # ---------------- Table VI ----------------
    rows = [[r["dataset"], *cells(r, 6, "paper_s", "s", "calls")] for r in t6]
    dgn_close = where(
        t6, lambda r: abs(r["hbbmc_dgn_calls"] - r["hbbmcpp_calls"]) <= 0.1 * r["hbbmcpp_calls"]
    )
    mdg_calls = where(t6, lambda r: r["hbbmc_mdg_calls"] < r["hbbmcpp_calls"])
    mdg_time = where(t6, lambda r: r["hbbmc_mdg_s"] < r["hbbmcpp_s"])
    parts.append(
        "## Table VI — initial-branch ordering (paper s / measured s / #calls)\n\n"
        + md(["ds", *(c.label for c in TABLES[6].columns)], rows)
        + "\n\n**Shape.** The truss ordering's *defining guarantee* — every root"
        " branch's candidate set bounded by τ < δ — is verified directly"
        " (`tests/test_hbbmc.py::test_branch_bound_tau_respected`), and the orderings"
        " never change the clique sets. In the paper the truss ordering is fastest"
        " among the hybrid variants on 16/16 graphs. Here HBBMC++ makes the fewest"
        f" calls among them on {tally(t6, truss_calls(t6))} and has the least time on"
        f" {tally(t6, truss_time(t6))}; HBBMC-mdg makes fewer calls than HBBMC++ on"
        f" {tally(t6, mdg_calls)} and is faster on {tally(t6, mdg_time)}. HBBMC-dgn"
        f" is within 10% of HBBMC++'s #calls on {tally(t6, dgn_close)}. Against the"
        " vertex framework with the same ET and GR, HBBMC++ makes fewer calls than"
        f" VBBMC-dgn on **{tally(t6, vs_vbbmc_calls(t6))}**, and VBBMC-dgn is faster"
        f" on **{tally(t6, vbbmc_faster(t6))}**.\n"
    )

    # ---------------- Distributed execution ----------------
    if (RESULTS / "dist.json").exists():
        dist = load("dist")
        spark_s = dist["spark_s"]  # task count (a string key) -> seconds
        local_s = dist["in_process_s"]
        most = max(spark_s, key=int)
        spark_most = spark_s[most]
        if spark_most < local_s:
            vs_local = f"{local_s / spark_most:.2f}× faster than the in-process run on one core"
        else:
            vs_local = (
                f"{spark_most / local_s:.2f}× slower than the in-process run: Spark's"
                f" fixed costs outweigh what {most} tasks save"
            )
        times = ", ".join(
            f"**{t} s in {n} task{'' if n == '1' else 's'}**" for n, t in spark_s.items()
        )
        parts.append(
            "## Distributed execution (the repro's Spark layer)\n\n"
            "The whole algorithm suite also runs as a Spark job partitioned by root"
            " branch (`repro.dist.mce`; `tests/test_dist_mce.py` asserts identical"
            " clique sets and counters to the local runner for every algorithm name"
            f" and any partitioning). On the heavyweight {dist['dataset']} surrogate"
            f" ({dist['n_cliques']:,} cliques), {dist['algorithm']} takes {times} on a"
            f" {dist['parallelism']}-slot session, against **{local_s} s in process**"
            " (`run_named`, cliques built). Each time is the minimum of"
            f" {dist['rounds']} rounds after one untimed warm-up call"
            f" (`benchmarks/bench_dist.py`). {most} tasks are"
            f" {spark_s['1'] / spark_most:.1f}× faster than 1 and {vs_local}. The part that"
            " does not scale out runs on the driver: the edge collect (`to_local`),"
            " GR and the truss-ordering peel, plus Spark's fixed cost per job and per"
            " task. The result is the checkpointed clique DataFrame, which the"
            " driver does not collect. The tables are timed in process,"
            " one core per run, as the paper times its tables on one machine"
            " (DESIGN.md §5)."
        )

    parts.append(footer(t1, t2, t3, t4, t5, t6))
    return "\n\n".join(parts)


def main() -> None:
    (ROOT / "EXPERIMENTS.md").write_text(render())
    print("wrote", ROOT / "EXPERIMENTS.md")


def tau_below(t1) -> list[str]:
    """Table I: tau < delta, as Theorem 1 of [19] requires."""
    return where(t1, lambda r: r["tau"] < r["delta"])


def best_baseline(r, key: str):
    """The least ``key`` (``"calls"`` or ``"s"``) of a Table II row's baselines."""
    return min(r[f"{a}_{key}"] for a in ("rref", "rdegen", "rrcd", "rfac"))


def fewest_calls(t2) -> list[str]:
    """Table II: HBBMC++ makes no more calls than any baseline."""
    return where(t2, lambda r: r["hbbmcpp_calls"] <= best_baseline(r, "calls"))


def fastest(t2) -> list[str]:
    """Table II: HBBMC++ is faster than every baseline."""
    return where(t2, lambda r: r["hbbmcpp_s"] < best_baseline(r, "s"))


def d1_time(t4) -> list[str]:
    return where(t4, lambda r: r["d1_s"] <= min(r["d2_s"], r["d3_s"]))


def d1_calls(t4) -> list[str]:
    return where(t4, lambda r: r["d1_calls"] <= min(r["d2_calls"], r["d3_calls"]))


_EDGE_ORDERS = ("hbbmcpp", "hbbmc_dgn", "hbbmc_mdg")


def truss_calls(t6) -> list[str]:
    """Table VI: HBBMC++ makes the fewest calls among the hybrid orderings."""
    return where(t6, lambda r: r["hbbmcpp_calls"] <= min(r[f"{a}_calls"] for a in _EDGE_ORDERS))


def truss_time(t6) -> list[str]:
    return where(t6, lambda r: r["hbbmcpp_s"] <= min(r[f"{a}_s"] for a in _EDGE_ORDERS))


def vs_vbbmc_calls(t6) -> list[str]:
    """Table VI: HBBMC++ makes fewer calls than VBBMC-dgn."""
    return where(t6, lambda r: r["hbbmcpp_calls"] < r["vbbmc_dgn_calls"])


def vbbmc_faster(t6) -> list[str]:
    return where(t6, lambda r: r["vbbmc_dgn_s"] < r["hbbmcpp_s"])


def t2_narrative(t2) -> str:
    import statistics

    cr = {r["dataset"]: best_baseline(r, "calls") / max(1, r["hbbmcpp_calls"]) for r in t2}
    top = max(cr, key=cr.get)
    tr = [best_baseline(r, "s") / r["hbbmcpp_s"] for r in t2]
    vs_rdegen = where(t2, lambda r: r["hbbmcpp_s"] < r["rdegen_s"])
    return (
        "The paper's RRef column (BK_Ref + GR) is measured here as BK_Pivot + GR:"
        " Naudé's refined pivot is not reproduced (DESIGN.md §4).\n\n"
        "**Shape.** In the paper HBBMC++ is fastest on 16/16 datasets (1.1–6×). Here"
        f" HBBMC++ makes the fewest calls on **{tally(t2, fewest_calls(t2))}** datasets;"
        " fewest-baseline calls / HBBMC++ calls: median"
        f" **{statistics.median(cr.values()):.2f}×**, max **{cr[top]:.2f}×** ({top})."
        " In wall time HBBMC++ is faster"
        f" than every baseline on **{tally(t2, fastest(t2))}** and faster than RDegen"
        f" on **{tally(t2, vs_rdegen)}**; fastest-baseline / HBBMC++ time: median"
        f" {statistics.median(tr):.2f}×, range {min(tr):.2f}–{max(tr):.2f}×.\n"
    )


def t2_cut(r) -> float:
    """The share of calls, in percent, that ET with t=2 removes (Table V)."""
    return 100 * (1 - r["t2_calls"] / r["t0_calls"])


def calls_monotone(t5) -> list[str]:
    """Table V: #calls do not rise with t."""
    return where(t5, lambda r: r["t0_calls"] >= r["t1_calls"] >= r["t2_calls"] >= r["t3_calls"])


def et_faster(t5) -> list[str]:
    """Table V: t=3 beats t=0 on wall time."""
    return where(t5, lambda r: r["t3_s"] < r["t0_s"])


def ratio_below(t5) -> list[str]:
    """Table V: the b0/b ratio at t=3 is below 100%."""
    return where(t5, lambda r: r["t3_ratio"] < 100)


def cut_half(t5) -> list[str]:
    """Table V: ET with t=2 removes more than half of the calls."""
    return where(t5, lambda r: t2_cut(r) > 50)


def t5_narrative(t5) -> str:
    gain = {r["dataset"]: 100 * (1 - r["t3_s"] / r["t0_s"]) for r in t5}
    heavy_txt = ", ".join(f"{k} {-gain[k]:+.0f}%" for k in ("DG", "OR") if k in gain)
    ratios = [r["t3_ratio"] for r in t5]
    cut = [t2_cut(r) for r in t5]
    return (
        f"\n\n**Shape: #calls do not rise with t on {tally(t5, calls_monotone(t5))}**"
        f" datasets (paper: fall on 16/16), and t=3 beats t=0 on wall time on"
        f" **{tally(t5, et_faster(t5))}** (t=3 against t=0 on the two largest: {heavy_txt})."
        f" The b0/b ratios at t=3 land in {min(ratios):.0f}–{max(ratios):.0f}% vs the"
        " paper's graph-dependent 5–85%, and are below 100% on"
        f" {tally(t5, ratio_below(t5))}. ET still cuts calls: t=2 alone removes"
        f" {min(cut):.0f}–{max(cut):.0f}% of calls here, more than half on"
        f" {tally(t5, cut_half(t5))} datasets (the paper's drop from t=0 to t=3).\n"
    )


HEADER = """# EXPERIMENTS — paper vs reproduction

Every table of the paper's evaluation (Section V), reproduced on the 16
synthetic surrogate datasets of `repro.graphs.datasets` (bench scale,
~1000× smaller than the paper's real graphs — see DESIGN.md §4) with the
pure-Python kernels of `repro.core` (timed in-process, matching the paper's
single-machine setting; the Spark root-branch job in `repro.dist` is
validated for identical output and benchmarked separately in
`benchmarks/bench_dist.py`).

Regenerate with:

```bash
pytest benchmarks/bench_tables.py --benchmark-only -q   # Table I, then one sweep for Tables II–VI: results/table*.json
pytest benchmarks/bench_dist.py --benchmark-only -q     # writes results/dist.json
python scripts/make_experiments.py                      # rewrites this file
```

**How to read the numbers.** Cells are `paper / measured` (and `/ #calls`
where noted). Absolute times are incomparable by construction (C++ on
multi-GB graphs vs Python on MB-scale surrogates); the reproduction targets
are the *shapes*: which configuration wins, monotonicity in the sweep
parameters, the ET ratio behaviour, and the δ/τ/ρ condition. Each note
counts, from the rows, on which datasets a shape holds and names the ones
where it does not. Tables II–VI show one run per configuration and dataset,
and every run builds its cliques; all runs of a dataset report the same
maximal clique set, so each time is that of a run whose set was checked.
The clique *sets* of all algorithms are also checked against a reference
Bron–Kerbosch at test scale in `tests/`."""

def footer(t1, t2, t3, t4, t5, t6) -> str:
    """The summary checklist; its counts come from the table rows."""

    def on_all(t, fn) -> bool:
        return len(fn(t)) == len(t)

    def mark(*holds: bool) -> str:
        return "✅" if all(holds) else "⚠️"

    cond = f"{sum(r['condition'] for r in t1)}/{len(t1)}"
    paper_cond = f"{sum(r['paper_condition'] for r in t1)}/{len(t1)}"
    beats = mark(
        on_all(t2, fewest_calls), on_all(t2, fastest), on_all(t6, vs_vbbmc_calls),
        not vbbmc_faster(t6),
    )
    et_mark = mark(on_all(t5, ratio_below), 2 * len(cut_half(t5)) > len(t5))
    return f"""## Summary of shape reproduction

| Paper claim | Status here |
|---|---|
| Maximal clique sets identical across all {len(CONFIGS)} algorithm configurations | ✅ the sweep behind Tables II–VI checks that its configurations give one clique count and one clique set per dataset (SHA-1 of the sorted cliques of the timed run, which builds them); the tier-1 tests (`tests/`, test scale) check clique sets against the reference BK |
| τ < δ on all graphs; condition δ≥max(3,τ+3lnρ/ln3) holds for most | {mark(on_all(t1, tau_below))} τ < δ on {tally(t1, tau_below(t1))}; the condition holds on {cond} surrogates (paper: {paper_cond} of these graphs) |
| HBBMC++ beats VBBMC baselines | {beats} fewest calls among the Table II algorithms on {tally(t2, fewest_calls(t2))} (Table II) and fewer calls than VBBMC-dgn on {tally(t6, vs_vbbmc_calls(t6))} (Table VI); faster than every Table II baseline on {tally(t2, fastest(t2))}, and VBBMC-dgn is faster than HBBMC++ on {tally(t6, vbbmc_faster(t6))} |
| ET (t=3) reduces branches and time; larger t better | {mark(on_all(t5, calls_monotone), on_all(t5, et_faster))} #calls do not rise with t on {tally(t5, calls_monotone(t5))}; t=3 beats t=0 on wall time on {tally(t5, et_faster(t5))} (Table V note) |
| d=1 (edge-oriented only at the root) is optimal | {mark(on_all(t4, d1_time), on_all(t4, d1_calls))} d=1 has the least time on {tally(t4, d1_time(t4))} and the fewest calls on {tally(t4, d1_calls(t4))} (Table IV note) |
| Truss ordering beats dgn/mdg edge orderings | {mark(on_all(t6, truss_calls), on_all(t6, truss_time))} the τ branch-width guarantee is verified; among the hybrid orderings HBBMC++ makes the fewest calls on {tally(t6, truss_calls(t6))} and has the least time on {tally(t6, truss_time(t6))} (Table VI note) |
| ET ratio b0/b below 100% yet ET removes most branches | {et_mark} the ratio at t=3 is below 100% on {tally(t5, ratio_below(t5))}; t=2 removes more than half of the calls on {tally(t5, cut_half(t5))} (Table V note) |
| Distributed enumeration (the repro's Spark layer) emits the same cliques | ✅ `tests/test_dist_mce.py`, any partitioning |
"""


if __name__ == "__main__":
    main()
