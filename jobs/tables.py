"""spark-submit entrypoint reproducing one evaluation table (I–VI).

Runs the harness ``repro.tables.TABLES[N]`` and prints its rows (aligned
text or markdown). A SparkSession is created only when the distributed mode
is requested; the default local mode matches the paper's single-machine
timing setting. Table I only computes dataset statistics, so it has no
distributed mode.

Usage: python jobs/tables.py --table N [--scale bench|test] [--mode local|dist]
       [--datasets NA FB ...] [--markdown]
"""
from __future__ import annotations

import argparse

from _common import emit

from repro.tables import TABLES


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser()
    p.add_argument("--table", type=int, choices=sorted(TABLES), required=True,
                   help="evaluation table to reproduce (1-6)")
    p.add_argument("--scale", choices=["test", "bench"], default="bench",
                   help="surrogate dataset scale (test is ~10x smaller)")
    p.add_argument("--mode", choices=["local", "dist"], default="local",
                   help="local sequential runners or the Spark root-branch job")
    p.add_argument("--datasets", nargs="*", default=None,
                   help="subset of dataset short names (default: all 16)")
    p.add_argument("--markdown", action="store_true", help="emit a markdown table")
    args = p.parse_args(argv)
    if args.table == 1 and args.mode == "dist":
        p.error("table 1 (dataset statistics) runs no search and has no dist mode")
    return args


def main(argv=None) -> None:
    args = parse_args(argv)
    spark = None
    kwargs = {}
    if args.table != 1:
        if args.mode == "dist":
            from pyspark.sql import SparkSession

            spark = SparkSession.builder.appName("repro-mce").getOrCreate()
        kwargs = dict(mode=args.mode, spark=spark)
    rows = TABLES[args.table](names=args.datasets, scale=args.scale, **kwargs)
    emit(rows, args)
    if spark is not None:
        spark.stop()


if __name__ == "__main__":
    main()
