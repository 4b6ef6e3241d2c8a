"""Shared plumbing for the spark-submit table jobs.

Each job reproduces one evaluation table: it runs the harness from
``repro.tables`` and prints the rows (aligned text or markdown). A
SparkSession is created only when the distributed mode is requested; the
default local mode matches the paper's single-machine timing setting.
"""
from __future__ import annotations

import argparse
import sys


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser()
    p.add_argument("--scale", choices=["test", "bench"], default="bench",
                   help="surrogate dataset scale (test is ~10x smaller)")
    p.add_argument("--mode", choices=["local", "dist"], default="local",
                   help="local sequential runners or the Spark root-branch job")
    p.add_argument("--datasets", nargs="*", default=None,
                   help="subset of dataset short names (default: all 16)")
    p.add_argument("--markdown", action="store_true", help="emit a markdown table")
    return p.parse_args(argv)


def get_spark(args):
    if args.mode != "dist":
        return None
    from pyspark.sql import SparkSession

    return SparkSession.builder.appName("repro-mce").getOrCreate()


def emit(rows: list[dict], args) -> None:
    from repro.tables import format_markdown

    if args.markdown:
        print(format_markdown(rows))
        return
    if not rows:
        print("(no rows)")
        return
    cols = list(rows[0])
    widths = {c: max(len(c), *(len(str(r.get(c, ""))) for r in rows)) for c in cols}
    print("  ".join(c.ljust(widths[c]) for c in cols))
    for r in rows:
        print("  ".join(str(r.get(c, "")).ljust(widths[c]) for c in cols))
    sys.stdout.flush()
