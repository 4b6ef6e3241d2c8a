"""Distributed MCE job partitioned by root branches.

Architecture (DESIGN.md §2, the standard distributed-MCE layout of e.g.
Xu et al. [17]):

1. The driver collects the (small) canonical edge list and calls
   ``repro.core.hbbmc.plan_roots``: graph reduction (GR), the exact ordering
   peel (truss-based edge order for hybrid/edge frameworks, degeneracy order
   for vertex frameworks), the root-branch list with balance costs, and the
   cliques the initial branch finds by itself (GR's and the isolated
   vertices). The plan is broadcast to every task.
2. The root branches become rows of a DataFrame, salted round-robin in
   descending order of balance cost so every partition gets a balanced mix
   of heavy and light branches.
3. ``groupBy(salt).applyInPandas`` calls ``repro.core.hbbmc.run_root`` on
   each of the group's branches — the same executor the local runner loops
   over — and emits one row per maximal clique (``kind='clique'``, payload
   = comma-joined vertex ids) plus one counter row per group
   (``kind='stats'``, payload = JSON) — strings, so results stay
   orderable/joinable.
4. The driver adds the plan's own cliques and counters, and returns a
   clique DataFrame and the merged ``BranchStats``.

Every ``ALGORITHMS`` name runs through this path; ``tests/test_dist_mce.py``
asserts that the distributed clique set and counters are identical to the
local runner's.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from ..core.hbbmc import plan_roots, resolve_config, run_root
from ..core.stats import BranchStats
from ..graphs.edgelist import to_local

_RESULT_SCHEMA = "kind string, payload string, size long"


@dataclass
class DistMceResult:
    cliques_df: DataFrame  # columns: clique (csv string), size
    stats: BranchStats
    n_cliques: int


def mce_distributed(
    spark: SparkSession,
    edges: DataFrame,
    algorithm: str = "HBBMC++",
    *,
    num_partitions: int | None = None,
    **overrides,
) -> DistMceResult:
    """Run a named algorithm (Tables II–VI labels) distributed by root
    branch. ``overrides`` tweak the configuration (``d``, ``et_t``, ``gr``,
    ``edge_order`` …) exactly like ``repro.core.hbbmc.run_named``."""
    cfg = resolve_config(algorithm, overrides)  # a bad config fails before the collect
    plan = plan_roots(to_local(edges), cfg)
    bc = spark.sparkContext.broadcast(plan)

    n_parts = num_partitions or min(64, max(1, len(plan.branches)))
    # Salt round-robin by descending balance cost.
    ordered = sorted(plan.branches, key=lambda b: (-b[1], b[0]))
    rows = [(bid, i % n_parts) for i, (bid, _) in enumerate(ordered)]
    branch_df = spark.createDataFrame(rows, "branch_id long, salt int")

    def run_group(pdf: pd.DataFrame) -> pd.DataFrame:
        plan = bc.value
        enum = plan.enumerator()
        for bid in sorted(pdf["branch_id"].tolist()):
            run_root(enum, plan, bid)
        out = pd.DataFrame(
            {
                "kind": ["clique"] * len(enum.out),
                "payload": [",".join(map(str, c)) for c in enum.out],
                "size": [len(c) for c in enum.out],
            }
        )
        srow = pd.DataFrame(
            {
                "kind": ["stats"],
                "payload": [json.dumps(enum.stats.as_dict())],
                "size": [0],
            }
        )
        return pd.concat([out, srow], ignore_index=True)

    result = (
        branch_df.groupBy("salt")
        .applyInPandas(run_group, schema=_RESULT_SCHEMA)
        .localCheckpoint(eager=True)
    )
    stats = plan.stats
    for row in result.where(F.col("kind") == "stats").select("payload").collect():
        stats.merge(BranchStats.from_dict(json.loads(row["payload"])))

    worker_cliques = result.where(F.col("kind") == "clique").select(
        F.col("payload").alias("clique"), "size"
    )
    if plan.cliques:
        driver_df = spark.createDataFrame(
            [(",".join(map(str, c)), len(c)) for c in plan.cliques], "clique string, size long"
        )
        cliques_df = worker_cliques.unionAll(driver_df)
    else:
        cliques_df = worker_cliques
    n = cliques_df.count()
    return DistMceResult(cliques_df=cliques_df, stats=stats, n_cliques=n)
