"""The two ways a job reaches the program: in process, or through the Spark
root-branch job on a benchmark-owned local SparkSession.

A runner turns set-up inputs into handles (edge arrays, or cached edge
DataFrames) and runs one MCE job on a handle, returning the job's reported
clique count, its ``BranchStats`` and whatever the clique set can be read
from after the timed region.
"""
from __future__ import annotations

import os
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


class LocalRunner:
    kind = "local"

    def __init__(self) -> None:
        from repro.core.hbbmc import run_named
        from repro.graphs.generators import to_local

        self._run_named = run_named
        self._to_local = to_local

    def context(self) -> dict:
        return {}

    def prepare(self, inputs) -> list:
        return [inp.edges for inp in inputs]

    def tag(self, group: str) -> None:
        pass

    def call(self, edges, alg: str, tracer=None):
        with _span(tracer, "graphs.build"):
            g = self._to_local(edges)
        with _span(tracer, "mce"):
            run = self._run_named(g, alg)
        return run.n_cliques, run.stats, run.cliques

    @staticmethod
    def cliques(result) -> list:
        return result

    def close(self) -> None:
        pass


class SparkRunner:
    """Owns one local SparkSession with at most ``slots`` task slots.

    Everything Spark writes (local dirs, temp files, the event log) stays
    under ``work``. The event log is written, uncompressed and in one file,
    only when ``event_log`` is set.
    """

    kind = "spark"

    def __init__(self, root: Path, work: Path, slots: int, event_log: bool) -> None:
        tmp = work / "tmp"
        local = work / "spark-local"
        for d in (tmp, local):
            d.mkdir(parents=True, exist_ok=True)
        # Read when the JVMs launch, so it must precede the pyspark import.
        # The tool options reach spark-submit's launcher JVM too, which would
        # otherwise write to the system temp directory.
        os.environ["PYSPARK_SUBMIT_ARGS"] = f"--master local[{slots}] --driver-memory 1g pyspark-shell"
        os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
        os.environ["SPARK_LOCAL_DIRS"] = str(local)
        os.environ["SPARK_LOCAL_IP"] = "127.0.0.1"
        os.environ["PYSPARK_PYTHON"] = sys.executable
        from pyspark.sql import SparkSession

        from repro.dist.mce import mce_distributed
        from repro.graphs.edgelist import edges_df

        self._mce = mce_distributed
        self._edges_df = edges_df
        self.slots = slots
        self.event_dir = work / "eventlog" if event_log else None
        builder = (
            SparkSession.builder.appName("mcebench")
            .config("spark.ui.enabled", "false")
            .config("spark.ui.showConsoleProgress", "false")
            .config("spark.driver.host", "127.0.0.1")
            .config("spark.driver.bindAddress", "127.0.0.1")
            .config("spark.local.dir", str(local))
            .config("spark.sql.warehouse.dir", str(work / "spark-warehouse"))
            # Python workers import the program from the checkout; without
            # this every applyInPandas task fails to import ``repro``.
            .config("spark.executorEnv.PYTHONPATH", str(root / "src"))
            .config("spark.sql.shuffle.partitions", str(slots))
            .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        )
        if self.event_dir is not None:
            # Keep only this run's log.
            self.event_dir.mkdir(parents=True, exist_ok=True)
            for old in self.event_dir.iterdir():
                old.unlink()
            builder = (
                builder.config("spark.eventLog.enabled", "true")
                .config("spark.eventLog.dir", self.event_dir.as_uri())
                .config("spark.eventLog.compress", "false")
                .config("spark.eventLog.rolling.enabled", "false")
            )
        self.spark = builder.getOrCreate()
        self.spark.sparkContext.setLogLevel("ERROR")
        self.app_id = self.spark.sparkContext.applicationId
        self._cached: list = []

    def context(self) -> dict:
        sc = self.spark.sparkContext
        conf = self.spark.conf
        return {
            "spark_master": sc.master,
            "spark_default_parallelism": sc.defaultParallelism,
            "spark_shuffle_partitions": conf.get("spark.sql.shuffle.partitions"),
            "spark_aqe_enabled": conf.get("spark.sql.adaptive.enabled"),
            "spark_aqe_coalesce_partitions": conf.get("spark.sql.adaptive.coalescePartitions.enabled"),
            "spark_app_id": self.app_id,
        }

    def prepare(self, inputs) -> list:
        for df in self._cached:
            df.unpersist()
        self.tag("setup")
        self._cached = []
        for inp in inputs:
            df = self._edges_df(self.spark, inp.edges).cache()
            df.count()
            self._cached.append(df)
        return list(self._cached)

    def tag(self, group: str) -> None:
        self.spark.sparkContext.setJobGroup(group, group)

    def call(self, df, alg: str, tracer=None):
        with _span(tracer, "mce"):
            res = self._mce(self.spark, df, alg)
        return res.n_cliques, res.stats, res

    def cliques(self, res) -> list:
        self.tag("check")
        return [tuple(int(v) for v in c.split(",")) for c in res.cliques_df.toPandas()["clique"]]

    def event_log(self) -> Path | None:
        if self.event_dir is None:
            return None
        return self.event_dir / self.app_id

    def close(self) -> None:
        """Stop the session, then the JVM it runs in, and wait for it."""
        from pyspark import SparkContext

        self.spark.stop()
        gateway = SparkContext._gateway
        if gateway is None:
            return
        proc = getattr(gateway, "proc", None)
        gateway.shutdown()
        SparkContext._gateway = None
        SparkContext._jvm = None
        if proc is not None:
            if proc.stdin is not None:
                proc.stdin.close()
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=30)
