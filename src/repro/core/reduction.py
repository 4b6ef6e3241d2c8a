"""Graph reduction (GR): peel degree <= 2 vertices, emitting their maximal
cliques directly.

A simplified-but-exact variant of the reduction rules of Deng et al.
(VLDB'24) [15]: a vertex of degree <= 2 participates only in maximal cliques
of size <= 3, all of which are enumerable by inspecting its current
neighborhood. Peeling cascades (removals can push neighbors under the
threshold) and removes exactly the vertices outside the 3-core, which is
unique (Batagelj & Zaversnik, 2003).

GR runs in numpy on the graph's canonical edge arrays, which it only reads.
It is the shared vertex peel (``repro.core.ordering.peel``, with the edges
as groups) stopped before level 3. Each round of it removes live vertices
of degree at most its level, which stays below 3, so its order is one
valid sequential peel, and a removed vertex's *elimination key* is its
position in that order; a core vertex's key is above every removed one's.
When x goes in that order, its live neighbours are R(x), the neighbours
of x with a larger key, and |R(x)| <= 2. The sequential rules then give
GR's cliques in closed form:

- each vertex of degree 0;
- x ∪ R(x) for each removed x whose R(x) is an edge {a, b} (a triangle);
- each edge (x, y) with y ∈ R(x) that lies in none of those triangles: an
  edge inside one is either its x's own, or its {a, b}, which has a common
  neighbour removed before both ends and so is not maximal.

Exactness bookkeeping (DESIGN.md §3): when w is removed, every *future*
clique that is a nonempty clique-subset of N(w) (necessarily of size <= 2)
has w as a phantom blocker and must never be emitted by the later
branch-and-bound run on the core. Every core vertex has at least three core
neighbours, so the search on the core never emits a 1-clique, and the only
such cliques it can reach are the pairs ``{a, b}`` of each removed w with
R(w) = {a, b}, both in the core and adjacent: the core's blocked pairs,
each stored as the sorted tuple the search would emit it as.
``repro.core.hbbmc.run_roots`` drops them from the search's output. A
phantom blocker of a size >= 3 clique would have had degree >= 3 at its
removal time — impossible here — so pair filtering is exact. Every
removed w still has all of N(w) ∩ core when it goes, so these pairs are the
same for every valid peel order, as are the removed set, the core and the
clique set.

Only the core's adjacency sets are ever built: the reduced graph keeps its
canonical arrays, and its ``adj`` is built from them on first use.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .localgraph import LocalGraph
from .ordering import peel


@dataclass
class Reduction:
    reduced: LocalGraph  # the 3-core of g: every vertex has degree >= 3
    cliques: list[tuple[int, ...]]
    blocked: set[tuple[int, int]]  # the core's blocked pairs, each sorted
    removed: int


def reduce_graph(g: LocalGraph) -> Reduction:
    """Apply GR without modifying ``g``."""
    ids, deg, eu, ev = g.ids, g.deg, g.eu, g.ev
    n = len(ids)
    removed, _ = peel(np.stack((eu, ev), axis=1), n, stop=3)
    # Elimination keys: a removed vertex's position in the peel, a core
    # vertex's above all of them.
    key = np.arange(n, 2 * n)
    key[removed] = np.arange(len(removed))
    core = key >= n
    # Every edge with a removed end, oriented from x (smaller key) to y in
    # R(x), grouped by x.
    touched = ~(core[eu] & core[ev])
    a, b = eu[touched], ev[touched]
    flip = key[a] > key[b]
    x = np.where(flip, b, a)
    y = np.where(flip, a, b)
    by_x = np.argsort(x, kind="stable")
    x, y = x[by_x], y[by_x]
    # x with |R(x)| = 2 is two consecutive rows; its R(x) = {p, q}.
    two = np.flatnonzero(x[1:] == x[:-1])
    p, q = np.minimum(y[two], y[two + 1]), np.maximum(y[two], y[two + 1])
    pq_key = p * n + q
    is_tri = np.isin(pq_key, eu * n + ev)
    tri = two[is_tri]
    tx, tp, tq = x[tri], p[is_tri], q[is_tri]
    # Edges (x, y) outside every triangle: neither x's own nor a blocked pair.
    in_tri = np.zeros(len(x), dtype=bool)
    in_tri[tri] = in_tri[tri + 1] = True
    lo, hi = np.minimum(x, y), np.maximum(x, y)
    pair = ~in_tri & ~np.isin(lo * n + hi, pq_key[is_tri])
    tri_sorted = np.sort(np.stack((tx, tp, tq), axis=1), axis=1)
    cliques = [
        *((v,) for v in ids[deg == 0].tolist()),
        *map(tuple, ids[tri_sorted].tolist()),
        *zip(ids[lo[pair]].tolist(), ids[hi[pair]].tolist()),
    ]
    both = core[tp] & core[tq]
    blocked = set(zip(ids[tp[both]].tolist(), ids[tq[both]].tolist()))
    # The core keeps its canonical arrays, re-indexed; (eu, ev) order holds.
    new = np.cumsum(core) - 1
    kept = ~touched
    reduced = LocalGraph(ids[core], new[eu[kept]], new[ev[kept]])
    return Reduction(reduced=reduced, cliques=cliques, blocked=blocked, removed=len(removed))
