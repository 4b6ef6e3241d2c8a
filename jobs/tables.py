"""Command-line entrypoint reproducing one evaluation table (I–VI).

Runs the harness ``repro.tables.TABLES[N]`` in process, as the paper times
its tables on one machine, and prints its rows (aligned text or markdown).

Usage: python jobs/tables.py --table N [--scale bench|test]
       [--datasets NA FB ...] [--markdown]
"""
from __future__ import annotations

import argparse
import sys

from repro.tables import TABLES, format_markdown


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser()
    p.add_argument("--table", type=int, choices=sorted(TABLES), required=True,
                   help="evaluation table to reproduce (1-6)")
    p.add_argument("--scale", choices=["test", "bench"], default="bench",
                   help="surrogate dataset scale (test is ~10x smaller)")
    p.add_argument("--datasets", nargs="*", default=None,
                   help="subset of dataset short names (default: all 16)")
    p.add_argument("--markdown", action="store_true", help="emit a markdown table")
    return p.parse_args(argv)


def emit(rows: list[dict], markdown: bool) -> None:
    if markdown:
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


def main(argv=None) -> None:
    args = parse_args(argv)
    emit(TABLES[args.table](names=args.datasets, scale=args.scale), args.markdown)


if __name__ == "__main__":
    main()
