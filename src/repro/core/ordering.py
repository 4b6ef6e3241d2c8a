"""Local peeling orders: degeneracy (vertex) and truss (edge).

These are the peels the paper's bounds rely on:

- Degeneracy ordering: repeatedly remove a minimum-degree vertex. The largest
  degree seen at removal time is the degeneracy ``delta``; every vertex has at
  most ``delta`` later neighbors.
- Truss-based edge ordering (Wang et al. [19]): peel edges by the number of
  triangles they still close (their support), level by level. Here the peel
  is round-synchronous and runs in numpy: at level k one round removes every
  live edge with support <= k, in (u, v) order. Every edge's support when its
  round starts is at most k, so the largest level reached is ``tau`` (<
  delta), the truss number minus 2, the same value the sequential greedy
  min-support peel reports (the tests' oracle, ``tests/oracles.py``); in
  HBBMC the candidate graph of every root edge branch has at most ``tau``
  vertices.

The truss peel and the edge orders read the graph's canonical edge arrays
(``repro.core.localgraph``), and ``edge_order_rank`` returns positions in
them; the degeneracy peel reads the adjacency sets. Both peels run in one
process: in process, or on the driver for a Spark run.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .localgraph import LocalGraph, gather

Pair = tuple[int, int]


@dataclass(frozen=True)
class DegeneracyResult:
    """Degeneracy peel output: the order, each vertex's number of later
    neighbours (in order), and delta."""

    order: list[int]
    later: list[int]
    delta: int


def degeneracy_order(g: LocalGraph) -> DegeneracyResult:
    """Min-degree peel over a lazy heap, O(m log n). Ties break on vertex id
    so the order (and everything downstream) is deterministic."""
    deg = {v: len(nbrs) for v, nbrs in g.adj.items()}
    # Entries are keyed (degree, vertex); a degree drop pushes a new entry
    # and leaves the old one stale.
    heap: list[tuple[int, int]] = [(d, v) for v, d in deg.items()]
    heapq.heapify(heap)
    removed: set[int] = set()
    order: list[int] = []
    # v's degree when it is popped counts exactly its unremoved, i.e. later,
    # neighbours.
    later: list[int] = []
    delta = 0
    while heap:
        d, v = heapq.heappop(heap)
        if v in removed or d != deg[v]:
            continue  # stale entry
        removed.add(v)
        order.append(v)
        later.append(d)
        delta = max(delta, d)
        for u in g.adj[v]:
            if u not in removed:
                deg[u] -= 1
                heapq.heappush(heap, (deg[u], u))
    return DegeneracyResult(order=order, later=later, delta=delta)


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
    tau, from a round-synchronous support peel (PKT, Kabir & Madduri, HPEC
    2017; after Wang & Cheng, PVLDB 2012).

    ``support(e)`` = number of triangles through e whose three edges are all
    still live. Supports start from one listing of every triangle
    (``np.bincount``). The peel keeps a level k, starting at the smallest
    support. Each round removes every live edge whose support is <= k and
    emits those edges in (u, v) order, then lowers by one
    (``np.subtract.at``) the support of each surviving edge of each triangle
    the round broke. k rises, to the smallest live support, only when no live
    edge is left at or below it. ``tau`` is the last level.

    Why tau holds: an edge's support when its round starts is <= k <= tau,
    and every edge that closes a triangle with it and is ranked after it was
    live then, so each root edge branch has at most tau candidates. tau is the
    largest k for which some subgraph gives every edge >= k triangles (the
    truss number minus 2), the same number the greedy min-support peel
    reports. Ties: within a round, edges go in (u, v) order, which keeps each
    vertex's edges together; the order depends only on the edge set.

    Cost: the triangle listing does one C-level set intersection per edge,
    O(m * sqrt(m)) at worst; sorting the T triangle-edge incidences costs
    O(T log T); each round's numpy work is proportional to the triangles it
    breaks, and each level adds one O(m) scan (at most tau + 1 levels).
    The peel reads ``g``'s canonical edge arrays, whose vertices are dense
    indices in id order, so huge or sparse ids cost nothing extra.
    """
    deg, eu, ev = g.deg, g.eu, g.ev
    m = len(eu)
    tri = _triangles(deg, eu, ev)
    flat = tri.ravel()
    sup = np.bincount(flat, minlength=m)
    # Edge -> triangles CSR: the triangles through edge e are
    # edge_tris[eptr[e] : eptr[e + 1]].
    edge_tris = np.argsort(flat, kind="stable") // 3
    eptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(sup, out=eptr[1:])
    alive = np.ones(m, dtype=bool)
    tri_live = np.ones(len(tri), dtype=bool)
    rounds: list[np.ndarray] = []
    k = 0
    left = m
    frontier = np.empty(0, dtype=np.int64)
    while left:
        if not frontier.size:
            # Every live support is above k: raise k to the smallest.
            live = np.flatnonzero(alive)
            k = int(sup[live].min())
            frontier = live[sup[live] == k]
        rounds.append(frontier)
        alive[frontier] = False
        left -= len(frontier)
        broken = gather(eptr, frontier, edge_tris)
        broken = np.unique(broken[tri_live[broken]])
        tri_live[broken] = False
        hit = tri[broken].ravel()
        hit = hit[alive[hit]]
        np.subtract.at(sup, hit, 1)
        hit = np.unique(hit)
        frontier = hit[sup[hit] <= k]
    order = np.concatenate(rounds) if rounds else np.empty(0, dtype=np.int64)
    return order, k


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
        pos = np.empty(g.n, dtype=np.int64)
        pos[np.searchsorted(g.ids, degeneracy_order(g).order)] = np.arange(g.n)
        pu, pv = pos[eu], pos[ev]
        return np.lexsort((np.maximum(pu, pv), np.minimum(pu, pv)))
    deg = g.deg
    return np.argsort(np.minimum(deg[eu], deg[ev]), kind="stable")
