"""Command-line entrypoint reproducing one evaluation table (I–VI).

Runs the harness ``repro.tables.TABLES[N]`` in process, as the paper times
its tables on one machine, and prints its rows as a markdown table.

Usage: python jobs/tables.py --table N [--scale bench|test]
       [--datasets NA FB ...]
"""
from __future__ import annotations

import argparse

from repro.tables import TABLES, format_markdown


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser()
    p.add_argument("--table", type=int, choices=sorted(TABLES), required=True,
                   help="evaluation table to reproduce (1-6)")
    p.add_argument("--scale", choices=["test", "bench"], default="bench",
                   help="surrogate dataset scale (test is ~10x smaller)")
    p.add_argument("--datasets", nargs="*", default=None,
                   help="subset of dataset short names (default: all 16)")
    return p.parse_args(argv)


def main(argv=None) -> None:
    args = parse_args(argv)
    print(format_markdown(TABLES[args.table](names=args.datasets, scale=args.scale)))


if __name__ == "__main__":
    main()
