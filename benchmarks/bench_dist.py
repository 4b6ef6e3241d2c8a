"""Benchmark of the distributed root-branch-partitioned MCE job.

HBBMC++ on the heavyweight OR surrogate through the Spark job with 1, 2 and
4 tasks, beside the in-process ``run_named`` on the same graph, into
results/dist.json. One untimed warm-up call comes first: the first Spark
MCE job of a session pays for the Python workers' start-up. Each time is
the minimum of ``ROUNDS`` rounds, and the rounds interleave the
configurations so that host drift reaches all of them alike.
"""
import time

from benchmarks._common import save
from repro.core.hbbmc import run_named
from repro.dist.mce import mce_distributed
from repro.graphs.datasets import load_edges
from repro.graphs.edgelist import edges_df
from repro.graphs.generators import to_local

ROUNDS = 3
TASKS = (1, 2, 4)


def test_distributed_hbbmcpp_scaleout(benchmark, spark):
    """Spark with 1, 2 and 4 tasks against in process: the recorded times
    show how far the branch partitioning parallelizes the kernel work and
    what the serial remainder costs."""
    edges = load_edges("OR", "bench")
    df = edges_df(spark, edges).cache()
    df.count()
    g = to_local(edges)

    def timed(fn):
        t0 = time.perf_counter()
        n = fn().n_cliques
        return time.perf_counter() - t0, n

    def run_all():
        mce_distributed(spark, df, "HBBMC++")  # warm-up, untimed
        runs = {
            n: lambda n=n: mce_distributed(spark, df, "HBBMC++", num_partitions=n) for n in TASKS
        }
        runs["local"] = lambda: run_named(g, "HBBMC++")
        best = dict.fromkeys(runs, float("inf"))
        counts = set()
        for _ in range(ROUNDS):
            for key, fn in runs.items():
                s, n = timed(fn)
                best[key] = min(best[key], s)
                counts.add(n)
        assert len(counts) == 1, f"clique counts disagree: {counts}"
        return dict(
            dataset="OR",
            algorithm="HBBMC++",
            n_cliques=counts.pop(),
            rounds=ROUNDS,
            spark_s={str(n): round(best[n], 3) for n in TASKS},
            in_process_s=round(best["local"], 3),
            parallelism=spark.sparkContext.defaultParallelism,
        )

    row = benchmark.pedantic(run_all, rounds=1, iterations=1)
    save("dist.json", row)
    assert row["n_cliques"] > 0
