"""The one peel, and the three orders the paper's bounds rely on.

``peel(groups, n)`` peels items covered by groups: an item's *support* is
its number of whole groups, a group breaks when a member leaves, and each
live member of a broken group loses one support (the nucleus-decomposition
view, Sariyüce et al., WWW 2015, in PKT's round-synchronous form, Kabir &
Madduri, HPEC 2017). Its three callers differ only in the groups:

- ``degeneracy_order``: vertices in edges, so the support is the live
  degree. The last level is the degeneracy ``delta``; every vertex has at
  most ``delta`` later neighbours.
- ``truss_peel`` (Wang et al. [19]): edges in triangles. The last level is
  ``tau`` (< delta), the truss number minus 2; in HBBMC the candidate graph
  of every root edge branch has at most ``tau`` vertices.
- GR (``repro.core.reduction``): the vertex peel stopped before level 3,
  which removes exactly the vertices outside the 3-core.

Both levels equal those of the sequential greedy peels (the tests'
oracles, ``tests/oracles.py``). The peels read the graph's canonical edge
arrays (``repro.core.localgraph``), never its adjacency sets, which only
the kernels read; ``edge_order_rank`` returns positions in the edge
arrays. They run in one process: in process, or on the driver for a Spark
run.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .localgraph import LocalGraph

Pair = tuple[int, int]


def gather(ptr: np.ndarray, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The concatenated CSR segments ``values[ptr[r] : ptr[r + 1]]`` of
    ``rows``."""
    starts = ptr[rows]
    lens = ptr[rows + 1] - starts
    shift = np.repeat(starts - (np.cumsum(lens) - lens), lens)
    return values[shift + np.arange(len(shift))]


def peel(groups: np.ndarray, n: int, stop: int | None = None) -> tuple[np.ndarray, int]:
    """The items ``0..n-1`` in removal order, and the last level k, of the
    round-synchronous peel over ``groups`` (a (G, r) array of item ids).

    k starts at the smallest support. Each round removes every live item of
    support <= k, emitted in index order, breaks every whole group one of
    them is in, and takes one support from each live member of each broken
    group. k rises, to the smallest live support, only when no live item is
    left at or below it. So every item's support when its round starts is
    <= k, and it has at most k groups whose other members all go after it.
    With ``stop``, the peel ends instead of raising k to ``stop`` or more:
    the items left are the largest set in which each item has ``stop`` or
    more groups inside the set (for edge groups, the ``stop``-core).

    Cost: one sort of the G * r group-item incidences; each round's numpy
    work is proportional to the groups it breaks, and each level adds one
    O(n) scan.
    """
    # Column by column: the first column of an edge or triangle array is
    # sorted, a run the stable sort takes as it is.
    flat = groups.T.ravel()
    sup = np.bincount(flat, minlength=n)
    # Item -> groups CSR: the groups of item i are
    # item_groups[ptr[i] : ptr[i + 1]].
    item_groups = np.argsort(flat, kind="stable") % len(groups)
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(sup, out=ptr[1:])
    alive = np.ones(n, dtype=bool)
    whole = np.ones(len(groups), dtype=bool)
    rounds: list[np.ndarray] = []
    k = 0
    left = n
    frontier = np.empty(0, dtype=np.int64)
    while left:
        if not frontier.size:
            # Every live support is above k: raise k to the smallest.
            live = np.flatnonzero(alive)
            low = int(sup[live].min())
            if stop is not None and low >= stop:
                break
            k = low
            frontier = live[sup[live] == k]
        rounds.append(frontier)
        alive[frontier] = False
        left -= len(frontier)
        broken = gather(ptr, frontier, item_groups)
        broken = np.unique(broken[whole[broken]])
        whole[broken] = False
        hit = groups[broken].ravel()
        hit, lost = np.unique(hit[alive[hit]], return_counts=True)
        sup[hit] -= lost
        frontier = hit[sup[hit] <= k]
    order = np.concatenate(rounds) if rounds else np.empty(0, dtype=np.int64)
    return order, k


@dataclass(frozen=True)
class DegeneracyResult:
    """Degeneracy peel output: the order, each vertex's number of later
    neighbours (in order), and delta."""

    order: list[int]
    later: list[int]
    delta: int


def degeneracy_order(g: LocalGraph) -> DegeneracyResult:
    """The vertex peel of ``g`` (groups: its edges), as vertex ids. Within a
    round vertices go in id order, so the order depends only on the edge
    set. ``later`` counts, for each edge, its endpoint that goes first."""
    eu, ev = g.eu, g.ev
    order, delta = peel(np.stack((eu, ev), axis=1), g.n)
    pos = np.argsort(order)
    later = np.bincount(np.where(pos[eu] < pos[ev], eu, ev), minlength=g.n)
    return DegeneracyResult(order=g.ids[order].tolist(), later=later[order].tolist(), delta=delta)


def _triangles(deg: np.ndarray, eu: np.ndarray, ev: np.ndarray) -> np.ndarray:
    """Every triangle once, as a row of its three edge ids (positions in
    ``eu``/``ev``). Each edge is oriented from its lower to its higher
    (degree, index) endpoint, and the triangles over edge (a, b) are the
    common out-neighbours of a and b: a C-level intersection of two sets of
    at most sqrt(2m) vertices each."""
    n = len(deg)
    rank = np.empty(n, dtype=np.int64)
    rank[np.lexsort((np.arange(n), deg))] = np.arange(n)
    flip = rank[eu] > rank[ev]
    lo = np.where(flip, ev, eu)
    hi = np.where(flip, eu, ev)
    by_lo = np.argsort(lo, kind="stable")
    heads = hi[by_lo].tolist()
    ptr = np.searchsorted(lo[by_lo], np.arange(n + 1)).tolist()
    out = [set(heads[ptr[i] : ptr[i + 1]]) for i in range(n)]
    counts: list[int] = []
    third: list[int] = []
    for a, b in zip(lo.tolist(), hi.tolist()):
        c = out[a] & out[b]
        counts.append(len(c))
        third.extend(c)
    w = np.array(third, dtype=np.int64)
    a = np.repeat(lo, counts)
    b = np.repeat(hi, counts)
    key = eu * n + ev
    e_aw = np.searchsorted(key, np.minimum(a, w) * n + np.maximum(a, w))
    e_bw = np.searchsorted(key, np.minimum(b, w) * n + np.maximum(b, w))
    return np.stack((np.repeat(np.arange(len(eu)), counts), e_aw, e_bw), axis=1)


def truss_peel(g: LocalGraph) -> tuple[np.ndarray, int]:
    """The truss-based edge order, as positions in ``g``'s edge arrays, and
    tau: the peel over every triangle (``_triangles``) as a group of its
    three edges (after Wang & Cheng, PVLDB 2012).

    Why tau holds: an edge's support when its round starts is <= k <= tau,
    and every edge that closes a triangle with it and is ranked after it was
    live then, so each root edge branch has at most tau candidates. tau is
    the largest k for which some subgraph gives every edge >= k triangles
    (the truss number minus 2), the same number the greedy min-support peel
    reports. Ties: within a round, edges go in (u, v) order, which keeps
    each vertex's edges together.

    Cost: the triangle listing does one C-level set intersection per edge,
    O(m * sqrt(m)) at worst; then the peel's. Vertices are dense indices in
    id order, so huge or sparse ids cost nothing extra.
    """
    return peel(_triangles(g.deg, g.eu, g.ev), g.m)


#: Names of the paper's initial-branch edge orders (``edge_order_rank``).
EDGE_ORDERS = ("truss", "dgn", "mdg")


def edge_order_rank(g: LocalGraph, kind: str) -> np.ndarray:
    """The edges of ``g`` in rank order under one of the paper's
    initial-branch edge orders, as positions in ``g.eu``/``g.ev``.

    - ``"truss"``: the truss-based ordering (HBBMC++ default).
    - ``"dgn"``: edges ordered lexicographically by the degeneracy positions
      of their endpoints (Table VI, HBBMC-dgn).
    - ``"mdg"``: edges in non-decreasing order of min(deg(u), deg(v)), the
      upper bound on an edge branch's candidate size (Table VI, HBBMC-mdg),
      ties in (u, v) order.

    Any total order is *correct* (each maximal clique still belongs to exactly
    one root edge — its rank-minimal edge); only the branch-size bound tau is
    specific to the truss order.
    """
    if kind not in EDGE_ORDERS:
        raise ValueError(f"unknown edge order {kind!r}; one of {list(EDGE_ORDERS)}")
    if kind == "truss":
        return truss_peel(g)[0]
    eu, ev = g.eu, g.ev
    if kind == "dgn":
        pos = np.argsort(peel(np.stack((eu, ev), axis=1), g.n)[0])
        pu, pv = pos[eu], pos[ev]
        return np.lexsort((np.maximum(pu, pv), np.minimum(pu, pv)))
    deg = g.deg
    return np.argsort(np.minimum(deg[eu], deg[ev]), kind="stable")
