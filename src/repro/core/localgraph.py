"""The in-process graph: canonical edge arrays, and adjacency sets on demand.

A graph is its canonical edge arrays: the vertex ids in sorted order
(``ids``), each vertex's degree (``deg``), and the endpoints of every edge
as dense indices into ``ids`` (``eu < ev``, rows sorted by (eu, ev), so
(eu, ev) order is (u, v) id order and no array is sized by the largest id).
``from_edges`` builds them in numpy from pairs; GR
(``repro.core.reduction``) and the one peel behind the degeneracy and truss
orders (``repro.core.ordering``) read them directly.

Only the kernels read ``adj``, a ``dict[int, set[int]]`` that is built on
first use and cached, so a graph whose vertices GR peels away, or whose
orders and Table I statistics alone are wanted, never pays for the sets.
A graph is not modified once built. The distributed layer broadcasts a
``RootPlan`` (with ``adj`` as a plain dict) and the task groups, not a
``LocalGraph``. Vertices are ints; the graph is simple and undirected (no
self-loops, no parallel edges).
"""
from __future__ import annotations

from typing import Iterable

import numpy as np


class LocalGraph:
    """Undirected simple graph held as canonical edge arrays (see the module
    docstring); ``adj`` maps every vertex (including isolated ones) to its
    neighbour set."""

    __slots__ = ("ids", "deg", "eu", "ev", "_adj")

    def __init__(self, ids: np.ndarray, eu: np.ndarray, ev: np.ndarray):
        """A graph from canonical arrays, taken as they are."""
        n = len(ids)
        self.ids = ids
        self.deg = np.bincount(eu, minlength=n) + np.bincount(ev, minlength=n)
        self.eu = eu
        self.ev = ev
        self._adj: dict[int, set[int]] | None = None

    @classmethod
    def from_edges(
        cls, edges: Iterable[tuple[int, int]] | np.ndarray, vertices: Iterable[int] | None = None
    ) -> "LocalGraph":
        """Build from an (m, 2) array or any iterable of (u, v) pairs;
        self-loops are dropped and duplicate/reversed pairs collapse.
        ``vertices`` adds isolated vertices."""
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        e = e[e[:, 0] != e[:, 1]]
        lo = e.min(axis=1)
        hi = e.max(axis=1)
        extra = np.fromiter(vertices if vertices is not None else (), dtype=np.int64)
        ids = np.unique(np.concatenate((lo, hi, extra)))
        n = len(ids)
        key = np.unique(np.searchsorted(ids, lo) * n + np.searchsorted(ids, hi))
        eu, ev = np.divmod(key, n)
        return cls(ids, eu, ev)

    @property
    def adj(self) -> dict[int, set[int]]:
        if self._adj is None:
            eu, ev = self.eu, self.ev
            by_tail = np.argsort(np.concatenate((eu, ev)), kind="stable")
            heads = self.ids[np.concatenate((ev, eu))[by_tail]].tolist()
            ptr = [0, *np.cumsum(self.deg).tolist()]
            self._adj = {
                v: set(heads[ptr[i] : ptr[i + 1]]) for i, v in enumerate(self.ids.tolist())
            }
        return self._adj

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def m(self) -> int:
        return len(self.eu)

    def edges_at(self, pos: np.ndarray | slice) -> list[tuple[int, int]]:
        """The edges at positions ``pos`` of the edge arrays, as (min, max)."""
        ids = self.ids
        return list(zip(ids[self.eu[pos]].tolist(), ids[self.ev[pos]].tolist()))

    def density(self) -> float:
        """Edge density rho = m / n as defined in the paper (Section III-C)."""
        return self.m / self.n if self.n else 0.0

