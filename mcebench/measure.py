"""Statistics and output checks shared by the benchmark's runners.

Nothing here imports the program under test, so the self-tests can exercise
it on hand-made data.
"""
from __future__ import annotations

import statistics
from dataclasses import dataclass, field


def tail(values: list[float]) -> tuple[float, float, int]:
    """The tail of a latency sample: the highest nearest-rank percentile
    that still has at least ten samples beyond it.

    Returns ``(value, percentile, n)``. With ``n`` samples the value is the
    ``(n - 10)``-th smallest, at percentile ``100 * (n - 10) / n``. With ten
    samples or fewer no percentile qualifies; the maximum is returned at
    percentile 100, so a short sample reads as its worst case and the
    percentile says so.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("tail of an empty sample")
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def clique_set(cliques) -> frozenset:
    """A clique list as a set of vertex-sorted tuples, so that neither the
    order of the cliques nor the order inside one matters."""
    return frozenset(tuple(sorted(c)) for c in cliques)


@dataclass
class Expected:
    """What set-up recorded for one input: the clique count and, per
    algorithm, the clique set its local run returned and its ``#calls``."""

    count: int
    sets: dict[str, frozenset] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)

    def agree(self) -> bool:
        """True when every algorithm returned the same clique set, each
        clique once."""
        return len(set(self.sets.values())) == 1 and all(len(s) == self.count for s in self.sets.values())


def check_output(
    alg: str, reported: int, cliques: list, expected: Expected, other: str
) -> list[str]:
    """Names of the output checks one job fails (empty when it passes).

    - ``count``: the job's reported count and the number of cliques it
      delivered both equal the count recorded at set-up;
    - ``same_as_<other>``: the set equals the one the other algorithm
      returned for this input at set-up;
    - ``same_as_local``: the set equals the one this algorithm returned when
      run in-process at set-up (for a Spark job: the ``dense-local`` path).
    """
    failed = []
    if reported != expected.count or len(cliques) != expected.count:
        failed.append("count")
    got = clique_set(cliques)
    if got != expected.sets.get(other):
        failed.append(f"same_as_{other}")
    if got != expected.sets.get(alg):
        failed.append("same_as_local")
    return failed
