"""Self-tests of the benchmark's own parsing and checks.

    python -m pytest mcebench -q

They use hand-made inputs and one tiny in-process MCE run; they never start
the timed runs or a SparkSession.
"""
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from measure import Expected, check_output, clique_set, tail  # noqa: E402
from run import TIME_METRIC, end_to_end  # noqa: E402
from sparklog import job_phases, read_events, skew  # noqa: E402
from speed import REF_S, SHARE, factor, readings_after, reference_s  # noqa: E402
from tracing import Tracer, installed, self_time  # noqa: E402

# -- .tail rule -------------------------------------------------------------


def test_tail_leaves_exactly_ten_samples_beyond():
    xs = [float(i) for i in range(100, 0, -1)]  # 1..100, unsorted
    value, pct, n = tail(xs)
    assert (value, pct, n) == (90.0, 90.0, 100)
    assert sum(1 for x in xs if x > value) == 10


def test_tail_at_eleven_samples_is_the_smallest():
    value, pct, n = tail([float(i) for i in range(11)])
    assert value == 0.0 and n == 11
    assert pct == pytest.approx(100 / 11)


@pytest.mark.parametrize("n", [1, 5, 10])
def test_tail_of_a_short_sample_is_its_maximum(n):
    assert tail([float(i) for i in range(n)]) == (float(n - 1), 100.0, n)


def test_tail_of_nothing_raises():
    with pytest.raises(ValueError):
        tail([])


# -- output check -------------------------------------------------------------


def _expected(cliques):
    s = clique_set(cliques)
    return Expected(count=len(cliques), sets={"A": s, "B": s})


def test_check_ignores_order_of_and_inside_cliques():
    exp = _expected([(1, 2, 3), (3, 4)])
    assert check_output("A", 2, [(4, 3), (3, 1, 2)], exp, "B") == []


def test_check_names_every_failed_check():
    exp = _expected([(1, 2, 3), (3, 4)])
    assert check_output("A", 1, [(1, 2, 3)], exp, "B") == ["count", "same_as_B", "same_as_local"]
    # The right count from the wrong set still fails on the set.
    assert check_output("A", 2, [(1, 2, 3), (3, 5)], exp, "B") == ["same_as_B", "same_as_local"]
    # A duplicated clique shows in the delivered count.
    assert check_output("A", 2, [(1, 2, 3), (1, 2, 3), (3, 4)], exp, "B") == ["count"]


def test_check_compares_with_the_other_algorithm_separately():
    exp = Expected(count=1, sets={"A": clique_set([(1, 2)]), "B": clique_set([(1, 3)])})
    assert not exp.agree()
    assert check_output("A", 1, [(1, 2)], exp, "B") == ["same_as_B"]


def test_expected_rejects_duplicates_at_set_up():
    exp = Expected(count=3, sets={"A": clique_set([(1, 2), (2, 1), (3,)])})
    assert not exp.agree()


# -- event-log reader -----------------------------------------------------------


def _stage(sid, submit, done, ops):
    return {
        "Event": "SparkListenerStageCompleted",
        "Stage Info": {
            "Stage ID": sid,
            "Submission Time": submit,
            "Completion Time": done,
            "RDD Info": [{"Name": "x", "Scope": json.dumps({"id": "1", "name": op})} for op in ops],
        },
    }


def _task(sid, launch, finish, shuffle=0, reason="Success", run_ms=0):
    return {
        "Event": "SparkListenerTaskEnd",
        "Stage ID": sid,
        "Task End Reason": {"Reason": reason},
        "Task Info": {"Launch Time": launch, "Finish Time": finish},
        "Task Metrics": {
            "Executor Run Time": run_ms,
            "Shuffle Write Metrics": {"Shuffle Bytes Written": shuffle},
        },
    }


def _job(jid, group, stages):
    return {
        "Event": "SparkListenerJobStart",
        "Job ID": jid,
        "Stage IDs": stages,
        "Properties": {"spark.jobGroup.id": group},
    }


def _log(tmp_path):
    """One MCE job (group ``g``) from t=1000 s to t=1010 s: edge collect,
    a branch stage that shuffles, a kernel stage of three tasks (one of
    them failed), counter collect; plus another group's stage."""
    t = 1_000_000  # ms
    # The branch rows come from a Python list, so this stage has a PythonRDD;
    # it must not be taken for the kernel stage.
    branch = _stage(1, t + 2000, t + 2500, ["parallelize", "Exchange"])
    branch["Stage Info"]["RDD Info"].append({"Name": "PythonRDD"})
    events = [
        _job(0, "g", [0]),
        _stage(0, t + 100, t + 300, ["InMemoryTableScan"]),
        _task(0, t + 110, t + 290),
        _job(1, "g", [1]),
        branch,
        _task(1, t + 2010, t + 2400, shuffle=700),
        _task(1, t + 2010, t + 2450, shuffle=300),
        _job(2, "g", [2, 3]),
        _stage(3, t + 2600, t + 8600, ["AQEShuffleRead", "FlatMapGroupsInPandas"]),
        _task(3, t + 2600, t + 4600, run_ms=1500),
        _task(3, t + 2600, t + 8600, run_ms=5500),
        _task(3, t + 2600, t + 2700, reason="ExceptionFailure"),
        _job(3, "g", [4]),
        _stage(4, t + 8700, t + 9000, ["checkpoint"]),
        _task(4, t + 8700, t + 8990),
        _job(4, "other", [5]),
        _stage(5, t + 100, t + 9000, ["FlatMapGroupsInPandas"]),
        _task(5, t + 100, t + 9000, shuffle=5),
    ]
    path = tmp_path / "app"
    path.write_text("\n".join(json.dumps(e) for e in events) + "\n")
    return path


def test_event_log_phases(tmp_path):
    events = read_events(_log(tmp_path))
    row = job_phases(events, {"g": (1000.0, 1010.0), "absent": (0.0, 1.0)}, slots=4)["g"]
    assert row["driver_prep_s"] == pytest.approx(2.0)
    assert row["branch_stage_s"] == pytest.approx(0.5)
    assert row["kernel_stage_s"] == pytest.approx(6.0)
    assert row["result_s"] == pytest.approx(1.4)
    assert row["kernel_tasks"] == 3
    assert row["kernel_task_s"] == pytest.approx([2.0, 6.0, 0.1])
    assert row["kernel_run_s"] == pytest.approx(7.0)
    assert row["kernel_slot_busy_share"] == pytest.approx(8.1 / (6.0 * 4))
    assert row["shuffle_bytes"] == 1000
    assert row["failed_tasks"] == 1


def test_event_log_group_without_stages_reads_zero(tmp_path):
    row = job_phases(read_events(_log(tmp_path)), {"absent": (0.0, 1.0)}, slots=4)["absent"]
    assert row["kernel_tasks"] == 0
    assert row["driver_prep_s"] == row["kernel_stage_s"] == row["result_s"] == 0.0


def test_skew():
    assert skew([]) == 0.0
    assert skew([2.0]) == 1.0
    assert skew([1.0, 2.0, 6.0]) == 3.0


# -- reference speed ---------------------------------------------------------


def test_factor_states_times_at_the_reference_speed():
    assert factor([REF_S] * 3) == pytest.approx(1.0)
    # Readings twice as slow as on the reference core halve every time.
    assert factor([2 * REF_S, 2 * REF_S, 10 * REF_S]) == pytest.approx(0.5)


def test_reference_loop_keeps_the_collector_state():
    import gc

    assert gc.isenabled()
    assert reference_s() > 0
    assert gc.isenabled()


def test_long_work_gets_more_readings():
    assert len(readings_after(0.0)) == 1
    xs = readings_after(40 * REF_S / SHARE)
    assert sum(xs) >= 40 * REF_S and len(xs) > 1


def _timed_job(alg, seconds, n=10, failed=()):
    return {"alg": alg, "seconds": seconds, "n_cliques": n, "traced": False, "failed_checks": list(failed)}


def test_end_to_end_scales_times_and_keeps_raw_figures():
    jobs = [
        _timed_job("HBBMC++", 1.0),
        _timed_job("HBBMC++", 3.0),
        _timed_job("RDegen", 2.0),
        _timed_job("RDegen", 9.0, failed=["count"]),
    ]
    out, samples = end_to_end(jobs, [4.0, 5.0, 6.0], job_speed=0.5, setup_speed=0.25)
    assert out["raw.hbbmc.job_s.p50"] == 2.0 and out["hbbmc.job_s.p50"] == 1.0
    assert out["raw.rdegen.job_s.p50"] == 2.0  # the failed job is not timed
    assert out["setup_s"] == 1.25 and out["raw.setup_s"] == 5.0
    assert out["raw.cliques_per_s"] == pytest.approx(30 / 6.0)
    assert out["cliques_per_s"] == pytest.approx(30 / 3.0)
    assert out["ok_share"] == pytest.approx(0.75)
    assert samples["hbbmc.job_s.tail"] == {"n": 2, "percentile": 100.0}


@pytest.mark.parametrize(
    "name,is_time",
    [
        ("hbbmc.search.self_s", True),
        ("rdegen.dist.kernel_task_s.p50", True),
        ("hbbmc.trace_overhead_s", True),
        ("hbbmc.dist.kernel_task_skew", False),
        ("hbbmc.dist.kernel_slot_busy_share", False),
        ("hbbmc.search.calls", False),
        ("reduction.removed_share", False),
    ],
)
def test_per_layer_times_are_the_ones_scaled(name, is_time):
    assert bool(TIME_METRIC.search(name)) == is_time


# -- spans ------------------------------------------------------------------------


def test_spans_wrap_layer_calls_and_restore_them():
    import repro.core.hbbmc as hbbmc
    import repro.core.kernels as kernels
    from repro.core.hbbmc import run_named
    from repro.graphs.generators import social_edges, to_local

    g = to_local(social_edges(60, 3, 1, caves=(3, 9, 4), core=(20, 0.4)))
    before = (hbbmc.reduce_graph, hbbmc.edge_order_rank, kernels.enumerate_tplex)
    tracer = Tracer()
    tracer.job = "j"
    with installed(tracer):
        with tracer.span("mce") as top:
            run = run_named(g, "HBBMC++")
    assert (hbbmc.reduce_graph, hbbmc.edge_order_rank, kernels.enumerate_tplex) == before

    names = {s["name"] for s in tracer.spans}
    assert {"mce", "reduction.gr", "ordering.truss", "early_term.tplex"} <= names
    assert all(s["job"] == "j" and s["end"] >= s["start"] for s in tracer.spans)
    kids = [s for s in tracer.spans if s["parent"] == top["id"]]
    assert kids and all(s["name"] != "mce" for s in kids)
    assert 0 <= self_time(top, tracer.spans) <= top["end"] - top["start"]
    et = sum(s["cliques"] for s in tracer.spans if s["name"] == "early_term.tplex")
    assert 0 < et <= run.n_cliques
    (gr,) = [s for s in tracer.spans if s["name"] == "reduction.gr"]
    assert gr["n"] == g.n and gr["gr_cliques"] == run.stats.gr_cliques
