"""Benchmark reproducing evaluation Tables I–VI (bench-scale surrogates): Table
I's statistics and the one sweep behind Tables II–VI, run once (a multi-minute
sweep: statistical rounds are pointless), persisted to results/tableN.json."""
from benchmarks._common import save
from repro.tables import sweep, table1


def test_tables(benchmark):
    tables = benchmark.pedantic(lambda: {1: table1(), **sweep()}, rounds=1, iterations=1)
    for n, rows in tables.items():
        save(f"table{n}.json", rows)
        assert len(rows) == 16
