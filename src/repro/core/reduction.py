"""Graph reduction (GR): peel degree <= 2 vertices, emitting their maximal
cliques directly.

A simplified-but-exact variant of the reduction rules of Deng et al.
(VLDB'24) [15]: a vertex of degree <= 2 participates only in maximal cliques
of size <= 3, all of which are enumerable by inspecting its current
neighborhood. Peeling cascades (removals can push neighbors under the
threshold).

The peel is a worklist over the caller's ``g.adj``, which it only reads:
integer degree counters, a list seeded with every vertex of degree <= 2,
and a vertex appended again only when its degree falls to exactly 2, so
each vertex is popped once. Peeling low-degree vertices in *any* order
removes exactly the vertices outside the 3-core, which is unique
(Batagelj & Zaversnik, 2003), so the pop order changes neither the removed
set nor the reduced graph. It does not change the clique set either: a
removed vertex's cliques are those of its neighbours still present when it
goes, filtered by ``blocked``. Only the order of ``cliques`` and the
``blocked`` entries that contain a removed vertex depend on it, and the
runners sort the output and search only the core.

Exactness bookkeeping (DESIGN.md §3): when v is removed, every *future*
clique that is a nonempty clique-subset of N(v) (necessarily of size <= 2)
has v as a phantom blocker and must never be emitted, by the peel itself or
by the later branch-and-bound run on the reduced graph. Those subsets are
recorded in ``blocked``; all size <= 2 emissions are filtered against it.
A phantom blocker of a size >= 3 clique would have had degree >= 3 at its
removal time — impossible here — so size <= 2 filtering is exact. Every
removed w still has all of N(w) ∩ core when it goes, so the core part of
``blocked`` is the same for every pop order.
"""
from __future__ import annotations

from dataclasses import dataclass

from .localgraph import LocalGraph


@dataclass
class Reduction:
    reduced: LocalGraph  # the 3-core of g: every vertex has degree >= 3
    cliques: list[tuple[int, ...]]
    blocked: set[frozenset[int]]
    removed: int


def reduce_graph(g: LocalGraph) -> Reduction:
    """Apply GR without modifying ``g``."""
    adj = g.adj
    deg = {v: len(nbrs) for v, nbrs in adj.items()}
    blocked: set[frozenset[int]] = set()
    cliques: list[tuple[int, ...]] = []

    def emit(c: tuple[int, ...]) -> None:
        """Record the sorted clique ``c`` unless a removed vertex blocks it."""
        if len(c) <= 2 and frozenset(c) in blocked:
            return
        cliques.append(c)

    work = [v for v, d in deg.items() if d <= 2]
    gone: set[int] = set()
    while work:
        v = work.pop()
        nbrs = [u for u in adj[v] if u not in gone]
        if not nbrs:
            emit((v,))
        elif len(nbrs) == 1:
            (u,) = nbrs
            emit((v, u) if v < u else (u, v))
            blocked.add(frozenset((u,)))
        else:
            a, b = nbrs
            if b in adj[a]:
                emit(tuple(sorted((v, a, b))))
                blocked.update(
                    (frozenset((a,)), frozenset((b,)), frozenset((a, b)))
                )
            else:
                emit((v, a) if v < a else (a, v))
                emit((v, b) if v < b else (b, v))
                blocked.update((frozenset((a,)), frozenset((b,))))
        gone.add(v)
        for u in nbrs:
            deg[u] -= 1
            if deg[u] == 2:
                work.append(u)
    core = {v: nbrs - gone for v, nbrs in adj.items() if v not in gone}
    return Reduction(
        reduced=LocalGraph(core), cliques=cliques, blocked=blocked, removed=len(gone)
    )
