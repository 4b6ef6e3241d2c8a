"""Benchmarks reproducing evaluation Tables I–VI (bench-scale surrogates).

Each bench runs one full table harness exactly once (pedantic, 1 round — the
harness itself is a multi-minute sweep, statistical rounds are pointless) and
persists the paper-vs-measured rows to results/tableN.json.
"""
import pytest

from benchmarks._common import save
from repro.tables import TABLES


@pytest.mark.parametrize("n", sorted(TABLES))
def test_table(benchmark, n):
    rows = benchmark.pedantic(lambda: TABLES[n](scale="bench"), rounds=1, iterations=1)
    save(f"table{n}.json", rows)
    assert len(rows) == 16
