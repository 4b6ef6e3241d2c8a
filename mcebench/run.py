"""MCE benchmark: time to enumerate every maximal clique, end to end and
layer by layer, for HBBMC++ and its built-in control RDegen.

    python3 mcebench/run.py --workload dense-local --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout of the repository; the program is
imported from its ``src`` directory. Each run

1. sets up several times (inputs from ``--seed``, the expected clique sets
   from an in-process run of both algorithms, and for Spark a session,
   cached edge DataFrames and a checked warm-up job) and
   reports the median as ``setup_s``;
2. runs jobs in a closed loop for ``--seconds``: one MCE job at a time,
   every input through both algorithms per round, whole rounds only;
3. checks every job's clique set outside the timed region;
4. prints each metric by name and unit, then, as its last line, one JSON
   object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Times are stated at a reference speed of the machine, measured with a fixed
loop between jobs (see ``speed.py``); the raw figures are recorded too.

With ``--trace 0`` the metrics are the end-to-end ones in BENCHMARK.json.
With ``--trace 1`` they are the per-layer ones: the run alternates untraced
and traced jobs, records spans around the calls into each layer (see
``tracing.py``) and, for Spark, reads the session's event log (see
``sparklog.py``). The full record, with the run context, goes to
``.bench_out/`` in the checkout.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import re
import resource
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from importlib import metadata
from pathlib import Path

import numpy as np

from measure import Expected, check_output, clique_set, median, tail
from runners import LocalRunner, SparkRunner
from sparklog import job_phases, read_events, skew
from speed import factor, readings_after, reference_s
from tracing import Tracer, duration, installed, self_time
from workloads import ALGORITHMS, PREFIX, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Upper bound on Spark task slots, whatever the machine offers.
MAX_SLOTS = 4
#: Names of the per-layer metrics that are times.
TIME_METRIC = re.compile(r"_s(\.|$)")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _other(alg: str) -> str:
    return next(a for a in ALGORITHMS if a != alg)


# -- set-up -------------------------------------------------------------------


def _expected(inp):
    """Run both algorithms in process on one input and record what every
    later job on it must return."""
    from repro.core.hbbmc import run_named
    from repro.graphs.generators import to_local

    g = to_local(inp.edges)
    exp = Expected(count=-1)
    for alg in ALGORITHMS:
        run = run_named(g, alg)
        exp.sets[alg] = clique_set(run.cliques)
        exp.calls[alg] = run.stats.calls
        exp.count = run.n_cliques
    return exp


def set_up(workload, seed: int, runner, readings):
    """Set up ``SETUP_REPEATS`` times; keep the last. Returns the inputs,
    handles, expected outputs, set-up times and whether every set-up check
    passed. Appends readings of the reference loop after each set-up to
    ``readings``."""
    samples, ok = [], True
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = workload.inputs(seed)
        expected = {inp.name: _expected(inp) for inp in inputs}
        ok &= all(e.agree() for e in expected.values())
        handles = runner.prepare(inputs)
        if runner.kind == "spark":
            # The first Spark jobs of a session pay for JIT and worker
            # start-up; they belong to set-up, not to the timed jobs. One
            # checked warm-up job per algorithm and set-up.
            runner.tag("setup")
            for alg in ALGORITHMS:
                n, _, res = runner.call(handles[0], alg)
                ok &= not check_output(alg, n, runner.cliques(res), expected[inputs[0].name], _other(alg))
        samples.append(time.perf_counter() - t0)
        readings.extend(readings_after(samples[-1]))
    return inputs, handles, expected, samples, ok


# -- timed jobs -----------------------------------------------------------------


def run_job(runner, inp, handle, alg, exp, rnd, traced, tracer, idx):
    job = {"id": f"mce-{idx}", "round": rnd, "input": inp.name, "alg": alg, "traced": traced}
    runner.tag(job["id"])
    tracer.job = job["id"]
    # Leave no garbage of earlier jobs for this one's collections.
    gc.collect()
    try:
        with installed(tracer) if traced else nullcontext():
            w0, t0 = time.time(), time.perf_counter()
            n, stats, result = runner.call(handle, alg, tracer if traced else None)
            job["seconds"] = time.perf_counter() - t0
            job["wall"] = (w0, time.time())
        job["n_cliques"] = n
        job["stats"] = stats.as_dict()
        job["failed_checks"] = check_output(alg, n, runner.cliques(result), exp, _other(alg))
    except Exception:  # one failed job must not end the run: count it
        job["failed_checks"] = ["raised"]
        job["error"] = traceback.format_exc()
        print(job["error"], file=sys.stderr)
    return job


def measure(runner, inputs, handles, expected, seconds, traced_run, tracer, readings):
    """Closed loop: whole rounds until ``seconds`` have passed. In a traced
    run every job runs twice, untraced and traced, in alternating order.
    Appends readings of the reference loop after each job to ``readings``."""
    jobs, rnd = [], 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        for inp, handle in zip(inputs, handles):
            for alg in ALGORITHMS:
                kinds = (False,) if not traced_run else ((False, True) if rnd % 2 == 0 else (True, False))
                for traced in kinds:
                    jobs.append(run_job(runner, inp, handle, alg, expected[inp.name], rnd, traced, tracer, len(jobs)))
                    readings.extend(readings_after(jobs[-1].get("seconds", 0.0)))
        rnd += 1
    return jobs


# -- metrics --------------------------------------------------------------------


def end_to_end(jobs, setup_samples, job_speed, setup_speed):
    """End-to-end metrics, their times (and the rate) stated at the reference
    speed: raw seconds times ``job_speed``, or ``setup_speed`` for set-up (see
    ``speed.py``). The figures from raw seconds are kept too, under a
    ``raw.`` prefix."""
    plain = [j for j in jobs if not j["traced"]]
    ok = [j for j in plain if not j["failed_checks"]]
    raw, samples = {}, {}
    for alg in ALGORITHMS:
        p = PREFIX[alg]
        xs = [j["seconds"] for j in ok if j["alg"] == alg]
        value, pct, n = tail(xs) if xs else (0.0, 0.0, 0)
        raw[f"{p}.job_s.p50"] = median(xs)
        raw[f"{p}.job_s.tail"] = value
        samples[f"{p}.job_s.p50"] = {"n": n}
        samples[f"{p}.job_s.tail"] = {"n": n, "percentile": pct}
    busy = sum(j["seconds"] for j in ok)
    raw["cliques_per_s"] = sum(j["n_cliques"] for j in ok) / busy if busy else 0.0
    raw["setup_s"] = median(setup_samples)
    out = {k: v / job_speed if k == "cliques_per_s" else v * job_speed for k, v in raw.items()}
    out["setup_s"] = raw["setup_s"] * setup_speed
    out.update({f"raw.{k}": v for k, v in raw.items()})
    out["ok_share"] = len(ok) / len(plain) if plain else 0.0
    out["failed_share"] = 1.0 - out["ok_share"] if plain else 1.0
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples["setup_s"] = {"n": len(setup_samples)}
    return out, samples


def _round_row(alg, js, spans, phases, expected, slots):
    """Layer figures of one round of traced jobs of one algorithm (each
    input once): times and counts summed, ratios taken of the sums."""
    sp = [s for j in js for s in spans.get(j["id"], [])]

    def total(name, key=None):
        return sum((s[key] if key else duration(s)) for s in sp if s["name"] == name)

    def ratio(a, b):
        return a / b if b else 0.0

    st = {k: sum(j["stats"][k] for j in js) for k in js[0]["stats"]}
    n_total = sum(j["n_cliques"] for j in js)
    ph = [phases[j["id"]] for j in js if j["id"] in phases]
    tasks = [d for p in ph for d in p["kernel_task_s"]]
    k_stage = sum(p["kernel_stage_s"] for p in ph)
    job_s = sum(j["seconds"] for j in js)
    stages = sum(p[k] for p in ph for k in ("driver_prep_s", "branch_stage_s", "kernel_stage_s", "result_s"))
    if ph:  # Spark: the search runs inside the kernel-stage tasks
        search_s = sum(p["kernel_run_s"] for p in ph)
    else:
        search_s = sum(self_time(s, sp) for s in sp if s["name"] == "mce")
    row = {
        "job_s": job_s,
        "graphs.build_s": total("graphs.build"),
        "graphs.to_local_s": total("graphs.to_local"),
        "reduction.gr_s": total("reduction.gr"),
        "reduction.removed_share": ratio(total("reduction.gr", "removed"), total("reduction.gr", "n")),
        "reduction.gr_clique_share": ratio(st["gr_cliques"], n_total),
        "ordering.truss_s": total("ordering.truss"),
        "ordering.degeneracy_s": total("ordering.degeneracy"),
        "search.self_s": search_s,
        "search.calls": st["calls"],
        "search.calls_local": sum(expected[j["input"]].calls[alg] for j in js),
        "search.root_branches": st["root_branches"],
        "search.cliques_per_call": ratio(st["cliques"], st["calls"]),
        "early_term.tplex_s": total("early_term.tplex"),
        "early_term.clique_share": ratio(total("early_term.tplex", "cliques"), n_total),
        "early_term.applied_ratio": ratio(st["et_applied"], st["et_plex"]),
        "dist.stage_share": ratio(stages, job_s) if ph else 0.0,
        "dist.kernel_task_s.p50": median(tasks),
        "dist.kernel_task_s.max": max(tasks, default=0.0),
        "dist.kernel_task_skew": skew(tasks),
        "dist.kernel_slot_busy_share": ratio(sum(tasks), k_stage * slots),
    }
    for k in ("driver_prep_s", "branch_stage_s", "kernel_stage_s", "result_s", "kernel_tasks", "shuffle_bytes", "failed_tasks"):
        row[f"dist.{k}"] = sum(p[k] for p in ph)
    return row


def per_layer(jobs, spans_list, phases, expected, slots, speed):
    """Per-layer metrics; times are stated at the reference speed, as in
    ``end_to_end``."""
    spans = defaultdict(list)
    for s in spans_list:
        spans[s["job"]].append(s)
    rounds = defaultdict(list)
    for j in jobs:
        if not j["failed_checks"]:
            rounds[(j["alg"], j["traced"], j["round"])].append(j)
    out = {}
    for alg in ALGORITHMS:
        p = PREFIX[alg]
        rows = [_round_row(alg, js, spans, phases, expected, slots) for (a, tr, _), js in rounds.items() if a == alg and tr]
        plain = [sum(j["seconds"] for j in js) for (a, tr, _), js in rounds.items() if a == alg and not tr]
        for key in rows[0] if rows else ():
            out[f"{p}.{key}"] = median([r[key] for r in rows])
        out[f"{p}.trace_overhead_s"] = out.get(f"{p}.job_s", 0.0) - median(plain)
    # GR is the same for both algorithms; report it once.
    for key in ("reduction.removed_share", "reduction.gr_clique_share"):
        out[key] = out.get(f"{PREFIX[ALGORITHMS[0]]}.{key}", 0.0)
    return {k: v * speed if TIME_METRIC.search(k) else v for k, v in out.items()}


# -- main -----------------------------------------------------------------------


def main(argv=None) -> int:
    args = _parse(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "dist" / "mce.py").is_file() or not spec_path.is_file():
        print("mcebench: no program to measure: run it inside a checkout that has src/repro", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    work = ROOT / ".bench_out"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(work / "tmp")
    tempfile.tempdir = None
    sys.path.insert(0, str(ROOT / "src"))

    workload = WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    slots = min(MAX_SLOTS, nproc)

    tracer = Tracer()
    setup_readings = [reference_s()]
    t0 = time.perf_counter()
    runner = SparkRunner(ROOT, work, slots, event_log=bool(args.trace)) if workload.spark else LocalRunner()
    start_s = time.perf_counter() - t0
    try:
        inputs, handles, expected, setup_samples, setup_ok = set_up(workload, args.seed, runner, setup_readings)
        # Starting the runner (for Spark: the JVM and session) is part of the
        # first set-up.
        setup_samples[0] += start_s
        context = runner.context()
        # Set-up's objects (the expected clique sets above all) stay alive
        # all run; keep the jobs' collections from scanning them.
        gc.collect()
        gc.freeze()
        job_readings = []
        jobs = measure(runner, inputs, handles, expected, args.seconds, bool(args.trace), tracer, job_readings)
    finally:
        log = runner.event_log() if workload.spark else None
        runner.close()
    phases = {}
    if log is not None:
        walls = {j["id"]: j["wall"] for j in jobs if j["traced"] and "wall" in j}
        phases = job_phases(read_events(log), walls, slots)

    job_speed, setup_speed = factor(job_readings), factor(setup_readings)
    e2e, samples = end_to_end(jobs, setup_samples, job_speed, setup_speed)
    layer = per_layer(jobs, tracer.spans, phases, expected, slots, job_speed) if args.trace else {}
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    computed = layer if args.trace else e2e
    missing = [m["name"] for m in declared if m["name"] not in computed]
    if missing:
        print(f"mcebench: metrics not computed: {missing}", file=sys.stderr)
        return 3
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in declared}

    attempted = len(jobs)
    failed = sum(1 for j in jobs if j["failed_checks"])
    context.update(
        workload=workload.name,
        why=next(w["why"] for w in spec["workloads"] if w["name"] == workload.name),
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        nproc=nproc,
        task_slots=slots if workload.spark else None,
        python=platform.python_version(),
        pyspark=metadata.version("pyspark"),
        numpy=np.__version__,
        machine=platform.machine(),
        inputs=[{"name": i.name, "n": i.n, "m": i.m} for i in inputs],
        setup_s_samples=setup_samples,
        setup_checks_ok=setup_ok,
        reference_s={"setup": setup_readings, "jobs": job_readings},
        speed_factor={"setup": setup_speed, "jobs": job_speed},
        rounds=1 + max((j["round"] for j in jobs), default=-1),
        samples=samples,
    )
    record = {
        "context": context,
        "metrics": metrics,
        "end_to_end": e2e,
        "per_layer": layer,
        "jobs": jobs,
    }
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (work / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if args.trace:
        with open(work / f"{stem}-spans.jsonl", "w") as f:
            for s in tracer.spans:
                f.write(json.dumps(s) + "\n")

    for key in ("workload", "seed", "nproc", "python", "pyspark", "inputs", "rounds"):
        print(f"# {key}: {context[key]}")
    for key in ("spark_master", "spark_default_parallelism", "spark_shuffle_partitions", "spark_aqe_coalesce_partitions"):
        if key in context:
            print(f"# {key}: {context[key]}")
    for name, m in metrics.items():
        extra = samples.get(name)
        print(f"{name:40s} {m['value']:>14.6g} {m['unit']:<12s} {json.dumps(extra) if extra else ''}".rstrip())
    if not args.trace:
        print(f"{'failed_share':40s} {e2e['failed_share']:>14.6g} share")
        for name, value in e2e.items():
            if name.startswith("raw."):
                print(f"# {name:38s} {value:>14.6g}")
    print(
        f"# speed_factor: jobs {job_speed:.4g}, set-up {setup_speed:.4g}"
        f" (reference loop, medians of {len(job_readings)} and {len(setup_readings)} readings)"
    )
    result = {
        "correct": setup_ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
