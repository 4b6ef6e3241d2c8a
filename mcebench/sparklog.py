"""Per-job stage and task numbers from a Spark event log.

The benchmark tags every MCE job it submits with its own Spark job group
(``SparkContext.setJobGroup``) and records the job's wall-clock start and
end. The event log (one uncompressed JSON event per line) then tells, for
each group, which stages ran, when, and what their tasks did. An MCE job is
split into four consecutive phases on the wall clock:

- ``driver_prep``: job start to the first branch-stage submission (edge
  collect, GR, ordering peel, planning and broadcast on the driver);
- ``branch_stage``: the stages that shuffle the root-branch rows to the
  kernel, i.e. those that write shuffle data before the kernel stage starts;
- ``kernel_stage``: the stage that runs the Python search over the groups;
- ``result``: kernel-stage end to job end (counter rows, clique count).

Whatever falls between two phases (scheduler gaps) is left out, so the sum
of the four shows how much of the job the stages account for.
"""
from __future__ import annotations

import json
import statistics
from pathlib import Path

#: SQL operators that run Python code over a partition; a stage that
#: contains one is the kernel stage of an MCE job. The job uses
#: ``applyInPandas`` today; the others keep the kernel stage found if it moves
#: to another of them. (Plain ``PythonRDD``s do not count: the stage that
#: turns the driver's branch rows into a DataFrame has one.)
PYTHON_OPERATORS = frozenset(
    {
        "FlatMapGroupsInPandas",
        "FlatMapGroupsInArrow",
        "FlatMapCoGroupsInPandas",
        "MapInPandas",
        "MapInArrow",
        "PythonMapInArrow",
        "ArrowEvalPython",
        "BatchEvalPython",
    }
)


def read_events(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def _operators(stage_info: dict) -> set[str]:
    return {json.loads(r["Scope"]).get("name", "") for r in stage_info.get("RDD Info", []) if r.get("Scope")}


def _shuffle_bytes(task_end: dict) -> int:
    metrics = task_end.get("Task Metrics") or {}
    return int((metrics.get("Shuffle Write Metrics") or {}).get("Shuffle Bytes Written", 0))


def job_phases(events: list[dict], jobs: dict[str, tuple[float, float]], slots: int) -> dict[str, dict]:
    """Phase times and kernel-task figures for each tagged MCE job.

    ``jobs`` maps a job group id to the job's (start, end) wall-clock time
    in seconds since the epoch; ``slots`` is the number of task slots, for
    the kernel stage's busy share. Groups absent from the log get zeros.
    """
    stage_group: dict[int, str] = {}
    stages: dict[int, dict] = {}
    tasks: dict[int, list[dict]] = {}
    for ev in events:
        kind = ev.get("Event")
        if kind == "SparkListenerJobStart":
            group = (ev.get("Properties") or {}).get("spark.jobGroup.id")
            for sid in ev.get("Stage IDs", []):
                stage_group[sid] = group
        elif kind == "SparkListenerStageCompleted":
            info = ev["Stage Info"]
            stages[info["Stage ID"]] = info
        elif kind == "SparkListenerTaskEnd":
            tasks.setdefault(ev["Stage ID"], []).append(ev)

    out = {}
    for group, (t0, t1) in jobs.items():
        mine = sorted(
            (s for sid, s in stages.items() if stage_group.get(sid) == group and s.get("Submission Time")),
            key=lambda s: s["Submission Time"],
        )
        kernel = [s for s in mine if _operators(s) & PYTHON_OPERATORS]
        k_start = min((s["Submission Time"] for s in kernel), default=None)
        branch = [
            s
            for s in mine
            if k_start is not None
            and s["Submission Time"] < k_start
            and any(_shuffle_bytes(t) > 0 for t in tasks.get(s["Stage ID"], []))
        ]
        group_tasks = [t for s in mine for t in tasks.get(s["Stage ID"], [])]
        k_tasks = [t for s in kernel for t in tasks.get(s["Stage ID"], [])]
        durations = [(t["Task Info"]["Finish Time"] - t["Task Info"]["Launch Time"]) / 1e3 for t in k_tasks]
        run_s = sum((t.get("Task Metrics") or {}).get("Executor Run Time", 0) for t in k_tasks) / 1e3

        t0_ms, t1_ms = t0 * 1e3, t1 * 1e3
        row = {
            "driver_prep_s": 0.0,
            "branch_stage_s": 0.0,
            "kernel_stage_s": 0.0,
            "result_s": 0.0,
            "kernel_tasks": len(k_tasks),
            "kernel_task_s": durations,
            "kernel_run_s": run_s,
            "kernel_slot_busy_share": 0.0,
            "shuffle_bytes": sum(_shuffle_bytes(t) for t in group_tasks),
            "failed_tasks": sum(
                1 for t in group_tasks if (t.get("Task End Reason") or {}).get("Reason") != "Success"
            ),
        }
        if kernel:
            k_end = max(s["Completion Time"] for s in kernel)
            first = min((s["Submission Time"] for s in branch), default=k_start)
            row["driver_prep_s"] = max(0.0, first - t0_ms) / 1e3
            if branch:
                row["branch_stage_s"] = (max(s["Completion Time"] for s in branch) - first) / 1e3
            row["kernel_stage_s"] = (k_end - k_start) / 1e3
            row["result_s"] = max(0.0, t1_ms - k_end) / 1e3
            if row["kernel_stage_s"] > 0:
                row["kernel_slot_busy_share"] = sum(durations) / (row["kernel_stage_s"] * slots)
        out[group] = row
    return out


def skew(durations: list[float]) -> float:
    """Slowest task over the median task (1.0 for a single task)."""
    if not durations:
        return 0.0
    med = statistics.median(durations)
    return max(durations) / med if med > 0 else 0.0
