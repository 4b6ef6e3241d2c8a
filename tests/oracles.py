"""Test oracles and test-only graph generators.

``reference_mce`` is the plain Bron–Kerbosch recursion (no pivot, no
orderings, no reductions) — small enough to audit by eye. It is itself
validated against ``brute_force_mce`` (subset enumeration) on tiny graphs
(``test_reference.py``), and every production algorithm is fuzzed against
it; ``verify_cliques`` checks a clique list against it.

``core_numbers`` is the sequential min-degree vertex peel, the oracle for
the degeneracy delta that ``repro.core.ordering.degeneracy_order`` must
report and for the 3-core that GR keeps. ``greedy_truss_order`` is the
sequential min-support edge peel, the oracle for the truss number tau that
``repro.core.ordering.truss_peel`` must report.

``er_edges`` (Erdős–Rényi) and ``caveman_edges`` (ring of cliques) are the
tests' random inputs; like ``repro.graphs.generators``, they return
canonical edge arrays with rows sorted by (u, v).
"""
from __future__ import annotations

import heapq
from itertools import combinations

import numpy as np

from repro.core.localgraph import LocalGraph
from repro.graphs.generators import _canon


def reference_mce(g: LocalGraph) -> list[tuple[int, ...]]:
    """All maximal cliques, sorted, via textbook Bron–Kerbosch."""
    adj = g.adj
    out: list[tuple[int, ...]] = []

    def rec(S: list[int], C: set[int], X: set[int]) -> None:
        if not C and not X:
            if S:
                out.append(tuple(sorted(S)))
            return
        Cc, Xc = set(C), set(X)
        for v in sorted(C):
            rec(S + [v], Cc & adj[v], Xc & adj[v])
            Cc.discard(v)
            Xc.add(v)

    rec([], set(adj), set())
    return sorted(out)


def brute_force_mce(g: LocalGraph) -> list[tuple[int, ...]]:
    """Subset enumeration — only for graphs with <= ~16 vertices."""
    vs = g.ids.tolist()
    if len(vs) > 18:
        raise ValueError("brute force limited to tiny graphs")
    adj = g.adj
    cliques = []
    for k in range(1, len(vs) + 1):
        for sub in combinations(vs, k):
            if all(b in adj[a] for a, b in combinations(sub, 2)):
                cliques.append(set(sub))
    maximal = [
        tuple(sorted(c))
        for c in cliques
        if not any(c < other for other in cliques)
    ]
    return sorted(maximal)


def verify_cliques(g: LocalGraph, cliques: list[tuple[int, ...]]) -> None:
    """Assert ``cliques`` is exactly the set of maximal cliques of ``g``:
    each is a clique, each is maximal, no duplicates, none missing."""
    adj = g.adj
    seen = set()
    for c in cliques:
        assert len(c) >= 1, "empty clique emitted"
        key = frozenset(c)
        assert key not in seen, f"duplicate clique {c}"
        seen.add(key)
        for a, b in combinations(c, 2):
            assert b in adj[a], f"{c} is not a clique: missing edge ({a},{b})"
        blockers = set(adj[c[0]])
        for v in c[1:]:
            blockers &= adj[v]
        blockers -= set(c)
        assert not blockers, f"{c} is not maximal: extendable by {sorted(blockers)}"
    expected = {frozenset(c) for c in reference_mce(g)}
    missing = expected - seen
    extra = seen - expected
    assert not missing, f"missing cliques, e.g. {sorted(next(iter(missing)))}"
    assert not extra, f"extra cliques, e.g. {sorted(next(iter(extra)))}"


def core_numbers(g: LocalGraph) -> dict[int, int]:
    """Each vertex's core number, from the sequential min-degree peel over a
    lazy heap, O(m log n): a vertex's core number is the largest degree
    seen at removal time up to and including its own. The largest is the
    degeneracy delta, and the vertices of core number >= 3 are the 3-core.
    Ties break on vertex id."""
    deg = {v: len(nbrs) for v, nbrs in g.adj.items()}
    # Entries are keyed (degree, vertex); a degree drop pushes a new entry
    # and leaves the old one stale.
    heap = [(d, v) for v, d in deg.items()]
    heapq.heapify(heap)
    core: dict[int, int] = {}
    level = 0
    while heap:
        d, v = heapq.heappop(heap)
        if v in core or d != deg[v]:
            continue  # stale entry
        level = max(level, d)
        core[v] = level
        for u in g.adj[v]:
            if u not in core:
                deg[u] -= 1
                heapq.heappush(heap, (deg[u], u))
    return core


def greedy_truss_order(g: LocalGraph) -> tuple[list[tuple[int, int]], int]:
    """The edge order, as (u, v) pairs, and tau of the greedy min-support
    edge peel, O(m * delta + m log m): the support counts and the per-edge
    common-neighbour scans are O(m * delta), the initial sort O(m log m),
    and the bucket queue adds O(1) amortised per pop and per support
    decrement (each of the at most 2 * #triangles stale entries is skipped
    once).

    ``support(e)`` = number of common neighbors of e's endpoints in the graph
    induced by the not-yet-peeled edges. Each step removes an edge of least
    support; ``tau`` is the largest support seen at removal time. Among
    edges whose support fell, ties follow the iteration order of
    ``adj[u] & adj[v]``, so the order (not tau) depends on how the sets were
    built.
    """
    adj = {v: set(nbrs) for v, nbrs in g.adj.items()}
    # Integer-encode edges (u * span + v, u < v) so the hot peel loop hashes
    # ints, not tuples.
    span = (max(adj) + 1) if adj else 1
    sup: dict[int, int] = {}
    for u, v in g.edges_at(slice(None)):
        sup[u * span + v] = len(adj[u] & adj[v])
    # Bucket queue over support values: each bucket is a list read from a
    # head index. An edge whose support drops is appended to its new bucket
    # and its old entry goes stale (skipped on pop: ``sup`` no longer names
    # that bucket; a peeled edge's ``sup`` is -1). Supports only fall, so a
    # list holds each edge at most once.
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
    return [divmod(e, span) for e in order_codes], tau


def er_edges(n: int, m: int, seed: int = 0) -> np.ndarray:
    """Erdős–Rényi G(n, m): m distinct uniform edges (the model of the
    paper's Appendix D sweeps, which are not run here)."""
    rng = np.random.default_rng(seed)
    max_m = n * (n - 1) // 2
    m = min(m, max_m)
    seen: set[tuple[int, int]] = set()
    out: list[tuple[int, int]] = []
    while len(out) < m:
        k = (m - len(out)) * 2 + 16
        us = rng.integers(0, n, k)
        vs = rng.integers(0, n, k)
        for u, v in zip(us.tolist(), vs.tolist()):
            if u == v:
                continue
            e = (u, v) if u < v else (v, u)
            if e not in seen:
                seen.add(e)
                out.append(e)
                if len(out) == m:
                    break
    return _canon(out)


def caveman_edges(
    n_caves: int,
    cave_size: int,
    n_chords: int = 0,
    seed: int = 0,
) -> np.ndarray:
    """Ring of ``n_caves`` cliques of ``cave_size`` vertices, consecutive
    caves bridged by one edge, plus ``n_chords`` random cross edges."""
    rng = np.random.default_rng(seed)
    pairs: list[tuple[int, int]] = []
    n = n_caves * cave_size
    for c in range(n_caves):
        base = c * cave_size
        for i in range(cave_size):
            for j in range(i + 1, cave_size):
                pairs.append((base + i, base + j))
        nxt = ((c + 1) % n_caves) * cave_size
        pairs.append((base, nxt + 1 if cave_size > 1 else nxt))
    for _ in range(n_chords):
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        pairs.append((u, v))
    return _canon(pairs)
