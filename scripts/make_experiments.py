"""Generate EXPERIMENTS.md from results/table*.json and results/dist.json
(written by ``pytest benchmarks/ --benchmark-only``). Each table's note and
the summary count the shapes declared in ``repro.tables.CLAIMS``.

Usage: python scripts/make_experiments.py
"""
from __future__ import annotations

import json
import pathlib
import statistics

from repro.tables import CLAIMS, CONFIGS, ROUNDS, TABLES, Exact, Value

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"
ROMAN = dict(enumerate("I II III IV V VI".split(), 1))
OUTCOMES = {"win": "wins", "tie": "ties", "loss": "losses"}  # a time claim's outcomes, plural


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
    t = {i: load(f"table{i}") for i in range(1, 7)}
    t1 = [
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
        for r in t[1]
    ]

    def labels(n: int, *suffixes: str) -> list[str]:
        return [f"{c.label}{x}" for x in suffixes for c in TABLES[n].columns]

    def s_then_calls(n: int) -> list[list]:
        return [[r["dataset"], *cells(r, n, "paper_s", "s"), *cells(r, n, "paper_calls", "calls")] for r in t[n]]

    sections = [  # (table, title, header, rows, what the paper reports)
        (1, "dataset statistics (surrogate / paper)",
         ["graph", "n", "m", "δ", "τ", "ρ", "δ≥max(3,τ+3lnρ/ln3)", "GR removed"], t1,
         "Under the paper's condition δ≥max(3,τ+3lnρ/ln3), HBBMC's worst-case bound beats the"
         " best VBBMC bound."),
        (2, "comparison with baselines (paper s / measured s / measured #calls)", [*labels(2, ""), "#cliques"],
         [[r["dataset"], *cells(r, 2, "paper_s", "s", "calls"), r["cliques"]] for r in t[2]],
         "The paper's RRef column (BK_Ref + GR) is measured here as BK_Pivot + GR: Naudé's refined"
         " pivot is not reproduced (DESIGN.md §4). In the paper HBBMC++ is fastest on 16/16"
         " datasets (1.1–6×)."),
        (3, "ablation and hybrid variants (paper s / measured s / #calls)", labels(3, ""),
         [[r["dataset"], *cells(r, 3, "paper_s", "s", "calls")] for r in t[3]],
         "In the paper HBBMC++ is faster than HBBMC+ on 16/16. Ref++ is the hybrid with Naudé's"
         " refined pivot, which is not reproduced: its column shows the paper's time only. Rcd++"
         " and Fac++ branch differently; among the hybrid kernel variants the ranking is"
         " data-dependent in the paper too."),
        (4, "edge-oriented depth d (paper / measured)", labels(4, " s", " #calls"), s_then_calls(4),
         "In the paper d=1 is fastest on 16/16 datasets."),
        (5, "early-termination threshold t (paper / measured; ratio % at t=3)",
         [*labels(5, " s", " #calls"), "ratio(t=3)"],
         [row + [f"{fmt(r['t3_paper_ratio'])} / {fmt(r['t3_ratio'])}"] for r, row in zip(t[5], s_then_calls(5))],
         "In the paper #calls fall with t on 16/16 datasets. t=3 against t=0 is Table III's ET"
         " ablation (HBBMC++ against HBBMC+), counted there."),
        (6, "initial-branch ordering (paper s / measured s / #calls)", labels(6, ""),
         [[r["dataset"], *cells(r, 6, "paper_s", "s", "calls")] for r in t[6]],
         "The truss ordering's *defining guarantee* — every root branch's candidate set bounded by"
         " τ < δ — is verified directly (`tests/test_hbbmc.py::test_branch_bound_tau_respected`),"
         " and the orderings never change the clique sets. In the paper the truss ordering is"
         " fastest among the hybrid variants on 16/16 graphs."),
    ]
    parts = [HEADER] + [
        f"## Table {ROMAN[n]} — {title}\n\n{md(['ds', *header], rows)}\n\n{paper}{note(t, n)}"
        for n, title, header, rows, paper in sections
    ]

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

    parts.append(summary(t))
    return "\n\n".join(parts)


def main() -> None:
    (ROOT / "EXPERIMENTS.md").write_text(render())
    print("wrote", ROOT / "EXPERIMENTS.md")


def state(claim, rows) -> tuple[str, bool]:
    """``claim``'s sentence with its count over ``rows``, and whether it holds
    on every dataset (a time claim: wins on every dataset)."""
    if isinstance(claim, Value):
        v = {r["dataset"]: claim.of(r) for r in rows}
        stats = dict(median=statistics.median(v.values()), min=min(v.values()), max=max(v.values()))
        return claim.text.format(**stats, argmax=max(v, key=v.get), **v), False
    if isinstance(claim, Exact):
        hits = [r["dataset"] for r in rows if claim.holds(r)]
        return f"{claim.text}: **{tally(rows, hits)}**", len(hits) == len(rows)
    got = {o: [r["dataset"] for r in rows if claim.outcome(r) == o] for o in OUTCOMES}
    most = max(got, key=lambda o: len(got[o]))
    count = ", ".join(
        f"{len(ds)} {o if len(ds) == 1 else OUTCOMES[o]}"
        + (f" ({', '.join(ds)})" if ds and o != most else "")
        for o, ds in got.items()
    )
    return f"{claim.text}: **{count} of {len(rows)}**", len(got["win"]) == len(rows)


def note(t: dict, n: int) -> str:
    """Table ``n``'s note: each of ``CLAIMS`` on it, counted over its rows."""
    lines = [state(c, t[n])[0] for c in CLAIMS.values() if c.table == n]
    return " Here:\n\n" + "".join(f"- {x}.\n" for x in lines)


HEADER = f"""# EXPERIMENTS — paper vs reproduction

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
where it does not; the shapes are declared once, in `repro.tables.CLAIMS`.
Tables II–VI time each configuration {ROUNDS} times per dataset, interleaved
round by round after one untimed warm-up run, and show the median. A claim
that one configuration is faster than others wins on a dataset only when its
slowest run beats their fastest, loses when one of theirs beats its fastest,
and ties otherwise. Every run builds its cliques; all runs of a dataset
report the same maximal clique set, so each time is that of a run whose set
was checked. The clique *sets* of all algorithms are also checked against a
reference Bron–Kerbosch at test scale in `tests/`."""

#: The summary's rows: the paper's claim, the ``CLAIMS`` it rests on, and
#: what else checks it.
SUMMARY = [
    (
        f"Maximal clique sets identical across all {len(CONFIGS)} algorithm configurations", (),
        "the sweep behind Tables II–VI checks that its configurations give one clique count and"
        " one clique set per dataset (SHA-1 of the sorted cliques of every timed run, which"
        " builds them); the tier-1 tests (`tests/`, test scale) check clique sets against the"
        " reference BK",
    ),
    ("τ < δ on all graphs", ("tau_below",), ""),
    ("HBBMC++ beats VBBMC baselines", ("fewest_calls", "vbbmc_calls", "fastest", "vbbmc_time"), ""),
    ("ET (t=3) reduces branches and time; larger t better", ("calls_fall_with_t", "et_time"), ""),
    ("d=1 (edge-oriented only at the root) is optimal", ("d1_time", "d1_calls"), ""),
    (
        "Truss ordering beats dgn/mdg edge orderings", ("truss_calls", "truss_time"),
        "the τ branch-width guarantee is verified",
    ),
    ("ET ratio b0/b below 100% yet ET removes most branches", ("ratio_below", "cut_half"), ""),
    (
        "Distributed enumeration (the repro's Spark layer) emits the same cliques", (),
        "`tests/test_dist_mce.py`, any partitioning",
    ),
]


def summary(t: dict) -> str:
    """The summary checklist: a row is ✅ only when every claim it names holds
    on every dataset."""
    lines = ["## Summary of shape reproduction\n", "| Paper claim | Status here |", "|---|---|"]
    for paper, names, checked in SUMMARY:
        said = [state(CLAIMS[k], t[CLAIMS[k].table]) for k in names]
        status = [f"{x} (Table {ROMAN[CLAIMS[k].table]})" for k, (x, _) in zip(names, said)]
        mark = "✅" if all(ok for _, ok in said) else "⚠️"
        lines.append(f"| {paper} | {mark} {'; '.join(filter(None, [checked, *status]))} |")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    main()
