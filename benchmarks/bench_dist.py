"""Benchmarks of the distributed root-branch-partitioned MCE job.

Times include Spark scheduling overhead (dominant at surrogate scale; see
EXPERIMENTS.md "Distributed execution"). The serial-vs-parallel pair on the
heavyweight OR surrogate records the scale-out behaviour of the branch
partitioning into results/dist.json.
"""
import time

import pytest

from benchmarks._common import save
from repro.dist.mce import mce_distributed
from repro.graphs.datasets import load_edges
from repro.graphs.edgelist import edges_df


@pytest.fixture(scope="module")
def or_edges(spark):
    df = edges_df(spark, load_edges("OR", "bench")).cache()
    df.count()
    return df


def test_distributed_hbbmcpp_scaleout(benchmark, spark, or_edges):
    """One round of OR through the Spark job with 1 task vs the default
    (one task per slot); the recorded pair shows the branch partitioning
    actually parallelizes the kernel work."""

    def run_pair():
        t0 = time.perf_counter()
        serial = mce_distributed(spark, or_edges, "HBBMC++", num_partitions=1)
        t1 = time.perf_counter()
        parallel = mce_distributed(spark, or_edges, "HBBMC++")
        t2 = time.perf_counter()
        assert serial.n_cliques == parallel.n_cliques
        return dict(
            dataset="OR",
            algorithm="HBBMC++",
            n_cliques=parallel.n_cliques,
            serial_s=round(t1 - t0, 3),
            parallel_s=round(t2 - t1, 3),
            parallelism=spark.sparkContext.defaultParallelism,
        )

    row = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    save("dist.json", row)
    assert row["n_cliques"] > 0
