"""Adjacency-set graph used by the sequential kernels.

The kernels only ever read ``adj``; the distributed layer broadcasts a
``RootPlan`` (with ``adj`` as a plain dict) and the task groups, not a
``LocalGraph``. Vertices are ints; the graph is simple and undirected (no
self-loops, no parallel edges — ``from_edges`` canonicalizes).
"""
from __future__ import annotations

from typing import Iterable, Iterator


class LocalGraph:
    """Undirected simple graph as ``dict[int, set[int]]``.

    ``adj`` maps every vertex (including isolated ones) to its neighbor set.
    """

    __slots__ = ("adj",)

    def __init__(self, adj: dict[int, set[int]]):
        self.adj = adj

    # -- construction -----------------------------------------------------
    @classmethod
    def from_edges(
        cls, edges: Iterable[tuple[int, int]], vertices: Iterable[int] | None = None
    ) -> "LocalGraph":
        """Build from an iterable of (u, v) pairs; self-loops are dropped and
        duplicate/reversed pairs collapse. ``vertices`` adds isolated vertices."""
        adj: dict[int, set[int]] = {}
        if vertices is not None:
            for v in vertices:
                adj.setdefault(int(v), set())
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                continue
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        return cls(adj)

    # -- basic properties -------------------------------------------------
    @property
    def n(self) -> int:
        return len(self.adj)

    @property
    def m(self) -> int:
        return sum(len(nbrs) for nbrs in self.adj.values()) // 2

    def vertices(self) -> list[int]:
        return sorted(self.adj)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Each undirected edge once, as (min, max)."""
        for u, nbrs in self.adj.items():
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def density(self) -> float:
        """Edge density rho = m / n as defined in the paper (Section III-C)."""
        return self.m / self.n if self.n else 0.0
