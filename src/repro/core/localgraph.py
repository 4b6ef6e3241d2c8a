"""The in-process graph: canonical edge arrays, and adjacency sets on demand.

A graph's input form is its canonical edge arrays: the vertex ids in sorted
order (``ids``), each vertex's degree (``deg``), and the endpoints of every
edge as dense indices into ``ids`` (``eu < ev``, rows sorted by (eu, ev),
so (eu, ev) order is (u, v) id order and no array is sized by the largest
id). ``from_edges`` builds them in numpy; GR (``repro.core.reduction``)
and the truss peel (``repro.core.ordering``) read them directly.

The kernels read ``adj``, a ``dict[int, set[int]]`` that is built on first
use and cached, so a graph whose vertices GR peels away never pays for
their sets. ``LocalGraph(adj)`` still builds a graph from sets; its arrays
are then derived on demand. A graph is not modified once built. The
distributed layer broadcasts a ``RootPlan`` (with ``adj`` as a plain dict)
and the task groups, not a ``LocalGraph``. Vertices are ints; the graph is
simple and undirected (no self-loops, no parallel edges).
"""
from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator

import numpy as np


class LocalGraph:
    """Undirected simple graph: canonical edge arrays and/or adjacency sets.

    ``adj`` maps every vertex (including isolated ones) to its neighbor set.
    """

    __slots__ = ("_adj", "_arrays")

    def __init__(self, adj: dict[int, set[int]]):
        self._adj = adj
        self._arrays: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None

    # -- construction -----------------------------------------------------
    @classmethod
    def from_arrays(cls, ids: np.ndarray, eu: np.ndarray, ev: np.ndarray) -> "LocalGraph":
        """A graph from canonical arrays (see the module docstring), taken
        as they are."""
        g = cls.__new__(cls)
        g._adj = None
        n = len(ids)
        deg = np.bincount(eu, minlength=n) + np.bincount(ev, minlength=n)
        g._arrays = (ids, deg, eu, ev)
        return g

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
        return cls.from_arrays(ids, eu, ev)

    # -- the two forms ----------------------------------------------------
    @property
    def adj(self) -> dict[int, set[int]]:
        if self._adj is None:
            ptr, nbr = self.csr()
            heads = self.ids[nbr].tolist()
            ptr = ptr.tolist()
            self._adj = {
                v: set(heads[ptr[i] : ptr[i + 1]]) for i, v in enumerate(self.ids.tolist())
            }
        return self._adj

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """``(ptr, nbr)``: the neighbours of vertex ``ids[i]`` are
        ``nbr[ptr[i] : ptr[i + 1]]``, as indices into ``ids``."""
        _, deg, eu, ev = self._edge_arrays()
        nbr = np.concatenate((ev, eu))[np.argsort(np.concatenate((eu, ev)), kind="stable")]
        ptr = np.zeros(len(deg) + 1, dtype=np.int64)
        np.cumsum(deg, out=ptr[1:])
        return ptr, nbr

    def _edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        if self._arrays is None:
            adj = self._adj
            verts = sorted(adj)
            n = len(verts)
            ids = np.array(verts, dtype=np.int64)
            nbrs = [adj[v] for v in verts]
            deg = np.fromiter(map(len, nbrs), dtype=np.int64, count=n)
            flat = np.fromiter(chain.from_iterable(nbrs), dtype=np.int64, count=int(deg.sum()))
            src = np.repeat(np.arange(n), deg)
            dst = np.searchsorted(ids, flat)
            keep = src < dst
            eu, ev = np.divmod(np.sort(src[keep] * n + dst[keep]), n)
            self._arrays = (ids, deg, eu, ev)
        return self._arrays

    @property
    def ids(self) -> np.ndarray:
        """The vertex ids, sorted."""
        return self._edge_arrays()[0]

    @property
    def deg(self) -> np.ndarray:
        """``deg[i]``: the degree of vertex ``ids[i]``."""
        return self._edge_arrays()[1]

    @property
    def eu(self) -> np.ndarray:
        """Each edge's lower endpoint, as an index into ``ids``."""
        return self._edge_arrays()[2]

    @property
    def ev(self) -> np.ndarray:
        """Each edge's higher endpoint, as an index into ``ids``."""
        return self._edge_arrays()[3]

    # -- basic properties -------------------------------------------------
    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def m(self) -> int:
        return len(self.eu)

    def vertices(self) -> list[int]:
        return self.ids.tolist()

    def edges(self) -> Iterator[tuple[int, int]]:
        """Each undirected edge once, as (min, max), in (u, v) order."""
        return iter(self.edges_at(slice(None)))

    def edges_at(self, pos: np.ndarray | slice) -> list[tuple[int, int]]:
        """The edges at positions ``pos`` of the edge arrays, as (min, max)."""
        ids = self.ids
        return list(zip(ids[self.eu[pos]].tolist(), ids[self.ev[pos]].tolist()))

    def density(self) -> float:
        """Edge density rho = m / n as defined in the paper (Section III-C)."""
        return self.m / self.n if self.n else 0.0


def gather(ptr: np.ndarray, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The concatenated CSR segments ``values[ptr[r] : ptr[r + 1]]`` of
    ``rows``."""
    starts = ptr[rows]
    lens = ptr[rows + 1] - starts
    shift = np.repeat(starts - (np.cumsum(lens) - lens), lens)
    return values[shift + np.arange(len(shift))]
