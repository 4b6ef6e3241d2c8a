"""Distributed MCE job partitioned by root branches.

Architecture (DESIGN.md §2, the standard distributed-MCE layout of e.g.
Xu et al. [17]):

1. The driver collects the (small) edge list with ``to_local``, which
   canonicalizes it (the rows may come in either orientation, repeated, or
   as self-loops), and calls ``repro.core.hbbmc.plan_roots``: graph
   reduction (GR), the exact ordering peel of the config's ``root`` (an
   edge order for the hybrid framework, the degeneracy order for the vertex
   framework) and the balance cost of each root branch. It returns the
   plan, which holds only what a root branch reads, and beside it the
   driver's own share: GR's cliques and the planning's counters.
2. The driver deals the root branch ids round-robin, in descending order of
   balance cost, into one group per task, so every task gets a balanced mix
   of heavy and light branches. There is one task per slot of the session
   (``defaultParallelism``) unless ``num_partitions`` says otherwise, and
   never more tasks than branches. The plan and the groups are broadcast
   once, as they are.
3. ``spark.range(n_tasks, numPartitions=n_tasks).mapInPandas`` runs task
   ``t`` over group ``t``: it calls ``repro.core.hbbmc.run_roots`` once on
   the group's branch ids — the same executor the local runner calls once on
   every id; it sweeps the plan's root order (edges or vertices) up to the
   group's largest id and returns the group's cliques and counters — emits
   one ``(clique, size)`` row per maximal clique (the clique as comma-joined
   vertex ids, a string, so results stay orderable/joinable), and adds the
   counters to a per-call accumulator. The job runs no shuffle at all, so
   adaptive query execution cannot coalesce the tasks into fewer
   partitions. Each task ends by
   dropping the zip finders from ``sys.path_importer_cache``
   (``_drop_zip_finders``): PySpark calls ``importlib.invalidate_caches()``
   before every task, and on CPython 3.11 and 3.12 each cached
   ``zipimporter`` then re-reads its whole archive, about 0.25 s of CPU per
   task on a warm worker before any MCE code runs.
4. The stage runs once, in the one job of ``localCheckpoint(eager=True)``,
   and that checkpointed DataFrame is the clique DataFrame (with GR's
   cliques unioned in when there are any), so reading the result re-runs
   no kernel. The broadcast is destroyed as soon as the checkpoint returns.
   The counters are exact: the checkpoint job is a single result stage with
   no shuffle, the DAGScheduler applies a result task's accumulator update
   only for the first successful attempt of each partition, and the values
   of failed attempts of a Python accumulator are not counted. So
   ``acc.value``, read after the job, holds each task's counters once; the
   driver adds the planning's own and returns them with the clique DataFrame.

Every ``ALGORITHMS`` name runs through this path; ``tests/test_dist_mce.py``
asserts that the distributed clique set and counters are identical to the
local runner's.
"""
from __future__ import annotations

import sys
import zipimport
from collections.abc import Iterator
from dataclasses import dataclass

import pandas as pd
from pyspark.accumulators import AccumulatorParam, _accumulatorRegistry
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import LongType, StringType, StructField, StructType

from ..core.hbbmc import plan_roots, resolve_config, run_roots
from ..core.stats import BranchStats
from ..graphs.edgelist import to_local

#: The clique DataFrame's schema: the kernel tasks' rows and the driver's.
_CLIQUE_SCHEMA = StructType([StructField("clique", StringType()), StructField("size", LongType())])


def _drop_zip_finders() -> None:
    """Delete every ``zipimporter`` from ``sys.path_importer_cache``.

    A reused PySpark worker runs ``worker_util.setup_spark_files`` before
    each task, which calls ``importlib.invalidate_caches()``. On CPython
    3.11 and 3.12, ``zipimporter.invalidate_caches`` re-reads the archive's
    whole central directory (3.13 only drops a cache entry). A warm worker
    caches about 16 zip finders, over ``pyspark.zip`` (1,328 entries), the
    spark-core jar (5,359) and py4j, so each task would spend about 0.25 s
    of CPU re-reading them. The entries are only a cache: the import system
    rebuilds any it needs from zipimport's own directory cache without
    reading the archive, so imports keep working and the next task's
    invalidation finds almost nothing to re-read. Call it only inside a
    Spark task; it can go once the workers' interpreter stops re-reading.
    """
    cache = sys.path_importer_cache
    for path in [p for p, f in cache.items() if isinstance(f, zipimport.zipimporter)]:
        del cache[path]


def _clique_frame(cliques: list[tuple[int, ...]]) -> pd.DataFrame:
    """Rows of ``_CLIQUE_SCHEMA`` for ``cliques``."""
    return pd.DataFrame(
        {"clique": [",".join(map(str, c)) for c in cliques], "size": [len(c) for c in cliques]}
    )


class _StatsParam(AccumulatorParam):
    """Adds the kernel tasks' ``BranchStats`` up on the driver."""

    def zero(self, value: BranchStats) -> BranchStats:
        return BranchStats()

    def addInPlace(self, value1: BranchStats, value2: BranchStats) -> BranchStats:
        value1.merge(value2)
        return value1


@dataclass
class DistMceResult:
    cliques_df: DataFrame  # columns: clique (csv string), size
    stats: BranchStats

    @property
    def n_cliques(self) -> int:
        return self.stats.cliques + self.stats.gr_cliques


def mce_distributed(
    spark: SparkSession,
    edges: DataFrame,
    algorithm: str = "HBBMC++",
    *,
    num_partitions: int | None = None,
    **overrides,
) -> DistMceResult:
    """Run a named algorithm (Tables II–VI labels) distributed by root
    branch. ``edges`` has long columns ``src`` and ``dst``; an edge may come
    in either orientation, repeated, or as a self-loop. ``overrides`` tweak
    the configuration (``root``, ``kernel``, ``d``, ``et_t``) exactly like
    ``repro.core.hbbmc.run_named``.
    ``num_partitions`` is the number of kernel tasks (default: the session's
    task slots), never more than the number of root branches."""
    if num_partitions is not None and (
        isinstance(num_partitions, bool) or not isinstance(num_partitions, int) or num_partitions < 1
    ):
        raise ValueError(f"num_partitions must be None or an int >= 1, got {num_partitions!r}")
    cfg = resolve_config(algorithm, overrides)  # a bad config fails before the collect
    plan, gr_cliques, stats = plan_roots(to_local(edges), cfg)

    sc = spark.sparkContext
    n_tasks = num_partitions or sc.defaultParallelism
    costs = plan.costs
    n_tasks = max(1, min(n_tasks, len(costs)))
    # Deal round-robin by descending balance cost.
    ordered = sorted(range(len(costs)), key=lambda i: (-costs[i], i))
    groups = [sorted(ordered[t::n_tasks]) for t in range(n_tasks)]
    bc = sc.broadcast((plan, groups))
    acc = sc.accumulator(BranchStats(), _StatsParam())

    def run_tasks(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        plan, groups = bc.value
        for batch in batches:
            for t in batch["id"].tolist():
                out, st = run_roots(plan, groups[t])
                acc.add(st)
                yield _clique_frame(out)
        _drop_zip_finders()

    # The eager checkpoint is the one job that runs the kernels; its output
    # no longer reads the broadcast, so the driver file goes right after.
    try:
        cliques_df = (
            spark.range(n_tasks, numPartitions=n_tasks)
            .mapInPandas(run_tasks, schema=_CLIQUE_SCHEMA)
            .localCheckpoint(eager=True)
        )
    finally:
        bc.destroy()
    if gr_cliques:
        # From pandas, not a Python list: with Arrow on, the rows travel as
        # one Arrow batch instead of a pickled PythonRDD.
        driver_df = spark.createDataFrame(_clique_frame(gr_cliques), _CLIQUE_SCHEMA)
        cliques_df = cliques_df.unionAll(driver_df)
    stats.merge(acc.value)
    # PySpark's private driver-side registry keeps every accumulator until
    # the session stops; the checkpoint job has merged all of this one's
    # updates, so nothing reads it again.
    _accumulatorRegistry.pop(acc.aid, None)
    return DistMceResult(cliques_df=cliques_df, stats=stats)
