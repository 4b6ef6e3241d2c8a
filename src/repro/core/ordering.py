"""Exact local peeling orders: degeneracy (vertex) and truss (edge).

These are the *exact* greedy peels the paper's bounds rely on:

- Degeneracy ordering: repeatedly remove a minimum-degree vertex. The largest
  degree seen at removal time is the degeneracy ``delta``; every vertex has at
  most ``delta`` later neighbors.
- Truss-based edge ordering (Wang et al. [19]): repeatedly remove the edge
  whose endpoints have the fewest common neighbors in the *remaining* graph.
  The largest support seen at removal time is ``tau`` (< delta); in HBBMC the
  candidate graph of every root edge branch has at most ``tau`` vertices.

Only the exact orders carry these bounds, so both peels run sequentially: in
process, or on the driver for a Spark run.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

from .localgraph import LocalGraph

Pair = tuple[int, int]


@dataclass(frozen=True)
class DegeneracyResult:
    """Degeneracy peel output: the order, per-vertex position, and delta."""

    order: list[int]
    pos: dict[int, int]
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
    delta = 0
    while heap:
        d, v = heapq.heappop(heap)
        if v in removed or d != deg[v]:
            continue  # stale entry
        removed.add(v)
        order.append(v)
        delta = max(delta, d)
        for u in g.adj[v]:
            if u not in removed:
                deg[u] -= 1
                heapq.heappush(heap, (deg[u], u))
    pos = {v: i for i, v in enumerate(order)}
    return DegeneracyResult(order=order, pos=pos, delta=delta)


@dataclass(frozen=True)
class TrussResult:
    """Truss peel output: the edge order and tau."""

    order: list[Pair]
    tau: int


def truss_order(g: LocalGraph) -> TrussResult:
    """Greedy min-support edge peel, O(m * delta + m log m): the support
    counts and the per-edge common-neighbour scans are O(m * delta), the
    initial sort O(m log m), and the bucket queue adds O(1) amortised per
    pop and per support decrement (each of the at most 2 * #triangles stale
    entries is skipped once).

    ``support(e)`` = number of common neighbors of e's endpoints in the graph
    induced by the not-yet-peeled edges. Ties break on the (u, v) pair so the
    ordering is deterministic. ``tau`` is the largest support seen at
    removal time.
    """
    adj = {v: set(nbrs) for v, nbrs in g.adj.items()}
    # Integer-encode edges (u * span + v, u < v) so the hot peel loop hashes
    # ints, not tuples.
    span = (max(adj) + 1) if adj else 1
    sup: dict[int, int] = {}
    for u, v in g.edges():
        sup[u * span + v] = len(adj[u] & adj[v])
    # Bucket queue over support values: each bucket is a list read from a
    # head index. An edge whose support drops is appended to its new bucket
    # and its old entry goes stale (skipped on pop: ``sup`` no longer names
    # that bucket; a peeled edge's ``sup`` is -1). Supports only fall, so a
    # list holds each edge at most once, and the live entries leave each
    # bucket FIFO in the order they entered (sorted at the start), which
    # makes the order deterministic.
    max_s = max(sup.values(), default=0)
    buckets: list[list[int]] = [[] for _ in range(max_s + 1)]
    for e in sorted(sup):
        buckets[sup[e]].append(e)
    heads = [0] * (max_s + 1)
    order_codes: list[int] = []
    tau = 0
    cur = 0
    m = len(sup)
    while len(order_codes) < m:
        bucket = buckets[cur]
        h = heads[cur]
        while h < len(bucket) and sup[bucket[h]] != cur:
            h += 1
        if h == len(bucket):
            heads[cur] = h
            cur += 1
            continue
        e = bucket[h]
        heads[cur] = h + 1
        sup[e] = -1
        u, v = divmod(e, span)
        order_codes.append(e)
        if cur > tau:
            tau = cur
        # Peel e: every remaining triangle (u, v, w) loses it, so the
        # supports of (u, w) and (v, w) each drop by one.
        au, av = adj[u], adj[v]
        for w in au & av:
            f1 = u * span + w if u < w else w * span + u
            f2 = v * span + w if v < w else w * span + v
            for f in (f1, f2):
                sf = sup[f] - 1
                sup[f] = sf
                buckets[sf].append(f)
                if sf < cur:
                    cur = sf
        au.discard(v)
        av.discard(u)
    return TrussResult(order=[divmod(e, span) for e in order_codes], tau=tau)


#: Names of the paper's initial-branch edge orders (``edge_order_rank``).
EDGE_ORDERS = ("truss", "dgn", "mdg")


def edge_order_rank(g: LocalGraph, kind: str) -> list[Pair]:
    """The edges of ``g`` in rank order under one of the paper's
    initial-branch edge orders.

    - ``"truss"``: the truss-based ordering (HBBMC++ default).
    - ``"dgn"``: edges ordered lexicographically by the degeneracy positions
      of their endpoints (Table VI, HBBMC-dgn).
    - ``"mdg"``: edges in non-decreasing order of min(deg(u), deg(v)), the
      upper bound on an edge branch's candidate size (Table VI, HBBMC-mdg).

    Any total order is *correct* (each maximal clique still belongs to exactly
    one root edge — its rank-minimal edge); only the branch-size bound tau is
    specific to the truss order.
    """
    if kind not in EDGE_ORDERS:
        raise ValueError(f"unknown edge order {kind!r}; one of {list(EDGE_ORDERS)}")
    if kind == "truss":
        return truss_order(g).order
    if kind == "dgn":
        pos = degeneracy_order(g).pos
        return sorted(
            g.edges(), key=lambda e: (min(pos[e[0]], pos[e[1]]), max(pos[e[0]], pos[e[1]]), e)
        )
    return sorted(g.edges(), key=lambda e: (min(len(g.adj[e[0]]), len(g.adj[e[1]])), e))
