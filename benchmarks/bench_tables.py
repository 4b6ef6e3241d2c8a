"""Benchmark reproducing evaluation Tables I–VI (bench-scale surrogates): Table
I's statistics and the one sweep behind Tables II–VI, persisted to
results/tableN.json. The sweep times each configuration ``tables.ROUNDS``
times itself, interleaved, so pytest-benchmark runs it once."""
from benchmarks._common import save
from repro.tables import sweep, table1


def test_tables(benchmark):
    tables = benchmark.pedantic(lambda: {1: table1(), **sweep()}, rounds=1, iterations=1)
    for n, rows in tables.items():
        save(f"table{n}.json", rows)
        assert len(rows) == 16
