"""Deterministic synthetic graph generators (numpy, seeded).

Each generator returns a canonical edge array of shape (m, 2): ``u < v``,
no duplicates, rows sorted by (u, v). ``to_local`` builds the graph the
kernels read; ``repro.graphs.edgelist.edges_df`` the Spark DataFrame.
Models:

- ``ba_edges``            Barabási–Albert preferential attachment (BA model)
- ``powerlaw_cluster_edges``  Holme–Kim: BA plus triangle-closure steps —
                          power-law degrees with high clustering (web graphs)
- ``social_edges``        the composite model of the Table I surrogates
"""
from __future__ import annotations

import numpy as np

from ..core.localgraph import LocalGraph


def _canon(pairs: list[tuple[int, int]]) -> np.ndarray:
    """Canonical rows of an edge list (``LocalGraph.from_edges``): self-loops
    dropped, each edge once as (u, v) with u < v, sorted by (u, v)."""
    g = LocalGraph.from_edges(pairs)
    return g.ids[np.stack((g.eu, g.ev), axis=1)]


def ba_edges(n: int, m_attach: int, seed: int = 0) -> np.ndarray:
    """Barabási–Albert: each new vertex attaches to ``m_attach`` existing
    vertices chosen by preferential attachment (repeated-nodes trick)."""
    rng = np.random.default_rng(seed)
    m0 = max(m_attach, 2)
    pairs: list[tuple[int, int]] = [(i, i + 1) for i in range(m0 - 1)]
    repeated: list[int] = [v for e in pairs for v in e]
    for v in range(m0, n):
        targets: set[int] = set()
        while len(targets) < min(m_attach, v):
            t = repeated[rng.integers(0, len(repeated))]
            targets.add(int(t))
        for t in targets:
            pairs.append((t, v))
            repeated.extend((t, v))
    return _canon(pairs)


def powerlaw_cluster_edges(
    n: int, m_attach: int, p_triad: float, seed: int = 0
) -> np.ndarray:
    """Holme–Kim powerlaw-cluster graph: BA growth where, after each
    preferential attachment to ``t``, with probability ``p_triad`` the next
    link closes a triangle by attaching to a random neighbor of ``t``."""
    rng = np.random.default_rng(seed)
    m0 = max(m_attach, 2)
    adj: dict[int, set[int]] = {i: set() for i in range(m0)}
    pairs: list[tuple[int, int]] = []

    def add(u: int, v: int) -> None:
        if u != v and v not in adj[u]:
            adj[u].add(v)
            adj[v].add(u)
            pairs.append((u, v))
            repeated.extend((u, v))

    repeated: list[int] = []
    for i in range(m0 - 1):
        add(i, i + 1)
    for v in range(m0, n):
        adj[v] = set()
        links = 0
        last_t: int | None = None
        while links < m_attach:
            if (
                last_t is not None
                and rng.random() < p_triad
                and (cands := list(adj[last_t] - adj[v] - {v}))
            ):
                t = int(cands[rng.integers(0, len(cands))])
            else:
                t = int(repeated[rng.integers(0, len(repeated))])
            if t != v and t not in adj[v]:
                add(v, t)
                links += 1
                last_t = t
    return _canon(pairs)


def social_edges(
    n: int,
    m_attach: int,
    seed: int = 0,
    *,
    p_triad: float = 0.0,
    caves: tuple[int, int, int] | None = None,
    core: tuple[int, float] | None = None,
    bicore: tuple[int, int, float] | None = None,
) -> np.ndarray:
    """Composite model used for the Table I surrogates (DESIGN.md §4).

    A scale-free background (BA, or Holme–Kim when ``p_triad`` > 0) over
    vertices ``0..n-1``, optionally overlaid with:

    - ``caves = (count, k, n_rm)``: ``count`` communities of ``k`` fresh
      vertices each, complete minus a random matching of ``n_rm`` pairs —
      i.e. 2-plexes with 2^n_rm maximal cliques each, the dense pockets that
      real social graphs owe their clique mass to (and the structure early
      termination exploits);
    - ``core = (K, p)``: one G(K, p) Erdős–Rényi community over existing
      vertices — it carries a large degeneracy but only a small truss bound,
      reproducing the paper's δ ≫ τ regime;
    - ``bicore = (A, B, p)``: one dense random *bipartite* community over
      existing vertices — degeneracy without triangles, the strongest form
      of the δ ≫ τ regime (real web/social graphs owe much of their high
      degeneracy to such triangle-poor hub structures).
    """
    rng = np.random.default_rng(seed + 1_000_003)
    if p_triad > 0:
        pairs = powerlaw_cluster_edges(n, m_attach, p_triad, seed).tolist()
    else:
        pairs = ba_edges(n, m_attach, seed).tolist()
    nxt = n
    if caves is not None:
        count, k, n_rm = caves
        assert 2 * n_rm <= k, "cannot remove a matching larger than k/2"
        for _ in range(count):
            ids = list(range(nxt, nxt + k))
            nxt += k
            pairs.append((int(rng.integers(0, n)), ids[0]))
            perm = rng.permutation(k)
            removed = set()
            for i in range(n_rm):
                a, b = int(perm[2 * i]), int(perm[2 * i + 1])
                removed.add((min(a, b), max(a, b)))
            for i in range(k):
                for j in range(i + 1, k):
                    if (i, j) not in removed:
                        pairs.append((ids[i], ids[j]))
    if core is not None:
        K, p = core
        members = rng.choice(n, size=min(K, n), replace=False)
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                if rng.random() < p:
                    pairs.append((int(members[i]), int(members[j])))
    if bicore is not None:
        A, B, p = bicore
        members = rng.choice(n, size=min(A + B, n), replace=False)
        left, right = members[:A], members[A:]
        for a in left:
            for b in right:
                if rng.random() < p:
                    pairs.append((int(a), int(b)))
    return _canon(pairs)


def to_local(edges: np.ndarray, n: int | None = None) -> LocalGraph:
    """Edge array -> LocalGraph; ``n`` adds isolated vertices 0..n-1."""
    return LocalGraph.from_edges(edges, vertices=range(n) if n is not None else None)
