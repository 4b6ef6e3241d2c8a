"""Frameworks: VBBMC (vertex-oriented), EBBMC (edge-oriented) and HBBMC
(hybrid), plus the named-algorithm registry used by every evaluation table.

Edge-oriented branching (Algorithms 2–4 of the paper) is implemented in the
*rank-threshold* form: a branch carries the rank ``r`` of the edge that
created it, and the lazy invariant

    E(g_C) = { edges among V(g_C) with rank > r }

holds at every depth (DESIGN.md §3), so Eq.(2)'s shrinking edge sets never
need to be materialized. The sub-branch of edge e = (a, b) with rank r_e has

    C' = { w ∈ C ∩ N(a) ∩ N(b) : rank(a,w) > r_e and rank(b,w) > r_e }
    X' = ((C ∪ X) ∩ N(a) ∩ N(b)) \\ C'

— every common G-neighbor of S' lands in C' or X', so maximality checks stay
exact. Zero-degree candidates (no compat edge to another candidate) are the
Eq.(3) branches: ``S ∪ {v}`` is emitted iff no other common neighbor is
G-adjacent to v.

``d`` controls how many edge-oriented levels run before switching to the
vertex-oriented kernel (Table IV); ``d=1`` is HBBMC, ``d=None`` is pure
EBBMC.

The initial branch splits MCE into independent *root branches*: one per edge
in rank order (hybrid/edge; a maximal clique belongs to the branch of its
rank-minimal edge), one per degeneracy-ordered vertex (vertex framework; the
branch of its first vertex), or the single whole-graph branch (``root=
"global"``). ``plan_roots`` computes the initial branch once and ``run_root``
runs any one root branch, so ``run_mce`` runs every root in process and
``repro.dist.mce`` runs each Spark task's group of roots with the same code.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, fields

from .kernels import KERNELS, Enumerator, Pair, _pair, kernel_fn
from .localgraph import LocalGraph
from .ordering import degeneracy_order, edge_order_rank
from .reduction import reduce_graph
from .stats import BranchStats


@dataclass
class MceRun:
    """Result of one MCE run: the cliques (sorted tuples, or None when not
    collected), counters, and wall time in seconds (includes GR + ordering,
    as the paper's reported times do)."""

    cliques: list[tuple[int, ...]] | None
    stats: BranchStats
    seconds: float

    @property
    def n_cliques(self) -> int:
        return self.stats.cliques + self.stats.gr_cliques


@dataclass(frozen=True)
class MceConfig:
    """One run configuration; ``ALGORITHMS`` names the ones in the tables.

    framework: ``"hybrid"`` (edge-oriented root, Table II's HBBMC), ``"edge"``
    (pure EBBMC, edge-oriented branching all the way down; ``d`` is ignored),
    or ``"vertex"`` (VBBMC).
    kernel: the vertex-oriented kernel (``repro.core.kernels.KERNELS``).
    root (vertex framework): ``"degeneracy"`` (BK_Degen-style initial
    branching) or ``"global"`` (single root branch, BK_Pivot/BK_Ref-style).
    edge_order (hybrid/edge): ``"truss"``, ``"dgn"`` or ``"mdg"`` (Table VI).
    d (hybrid): edge-oriented levels before the kernel takes over (Table IV).
    et_t: early-termination threshold t, 0 for none (Table V).
    gr: apply graph reduction first.
    """

    framework: str = "hybrid"
    kernel: str = "tomita"
    root: str = "degeneracy"
    edge_order: str = "truss"
    d: int | None = 1
    et_t: int = 3
    gr: bool = True


def resolve_config(name: str | None, overrides: dict) -> MceConfig:
    """The configuration of algorithm ``name`` (an ``ALGORITHMS`` key, or
    None for the ``MceConfig`` defaults) with ``overrides`` applied. An
    unknown name, key or value raises ``ValueError``, so a misconfigured run
    fails instead of running something else."""
    if name is None:
        base = {}
    elif name in ALGORITHMS:
        base = ALGORITHMS[name]
    else:
        raise ValueError(f"unknown algorithm {name!r}; one of {sorted(ALGORITHMS)}")
    keys = {f.name for f in fields(MceConfig)}
    unknown = sorted(set(overrides) - keys)
    if unknown:
        raise ValueError(f"unknown config keys {unknown}; one of {sorted(keys)}")
    cfg = MceConfig(**{**base, **overrides})
    if cfg.framework not in ("hybrid", "edge", "vertex"):
        raise ValueError(f"unknown framework {cfg.framework!r}")
    if cfg.root not in ("degeneracy", "global"):
        raise ValueError(f"unknown root {cfg.root!r}")
    if cfg.kernel not in KERNELS:
        raise ValueError(f"unknown kernel {cfg.kernel!r}; one of {sorted(KERNELS)}")
    if cfg.framework == "hybrid" and (cfg.d is None or cfg.d < 1):
        raise ValueError("hybrid framework needs d >= 1")
    return cfg


@dataclass
class RootPlan:
    """The initial branch of one run, computed once by ``plan_roots``.

    Every maximal clique is either in ``cliques`` or found by exactly one
    root branch of ``branches``, so any partition of the branches can run
    anywhere (``run_root``) and the cliques and counters simply add up.
    Branch ids are edge ranks (hybrid/edge), vertex ids (degeneracy root)
    or 0 (global root).
    """

    config: MceConfig
    adj: dict[int, set[int]]  # the GR-reduced graph
    blocked: set[frozenset[int]]  # GR blocked sets (Enumerator.emit)
    rank: dict[Pair, int] | None  # hybrid/edge: rank of every edge
    edges: list[Pair] | None  # hybrid/edge: edges[r] has rank r
    pos: dict[int, int] | None  # degeneracy root: vertex positions
    branches: list[tuple[int, int]]  # (branch id, balance cost), run order
    cliques: list[tuple[int, ...]]  # found while planning: GR + root Eq.(3)
    stats: BranchStats  # counters of the planning itself

    def enumerator(self, *, collect: bool = True) -> Enumerator:
        """A fresh enumerator to run root branches of this plan on."""
        return Enumerator(
            self.adj, rank=self.rank, et_t=self.config.et_t, blocked=self.blocked, collect=collect
        )


def plan_roots(g: LocalGraph, cfg: MceConfig) -> RootPlan:
    """GR, the ordering peel and the root-branch list of ``cfg`` on ``g``.

    The balance cost of a branch estimates its work: the smaller endpoint
    degree of an edge branch, the number of later neighbours of a degeneracy
    vertex branch.
    """
    red = reduce_graph(g, enabled=cfg.gr)
    adj = red.reduced.adj
    cliques = list(red.cliques)
    stats = BranchStats(gr_cliques=len(red.cliques))
    rank = edges = pos = None
    if cfg.framework == "vertex":
        if cfg.root == "global":
            branches = [(0, len(adj))]
        else:
            dg = degeneracy_order(red.reduced)
            pos = dg.pos
            branches = [
                (v, sum(1 for u in adj[v] if pos[u] > i)) for i, v in enumerate(dg.order)
            ]
    else:
        rank = edge_order_rank(red.reduced, cfg.edge_order)
        edges = sorted(rank, key=rank.__getitem__)
        branches = [(r, min(len(adj[u]), len(adj[v]))) for r, (u, v) in enumerate(edges)]
        # The initial edge-oriented branch is one call, and its Eq.(3)
        # branches are the isolated vertices (GR, when on, peels them all
        # first): each is a 1-clique.
        stats.calls = 1
        isolated = [(v,) for v in sorted(adj) if not adj[v]]
        cliques += isolated
        stats.cliques = len(isolated)
    stats.root_branches = len(branches)
    return RootPlan(
        config=cfg,
        adj=adj,
        blocked=red.blocked,
        rank=rank,
        edges=edges,
        pos=pos,
        branches=branches,
        cliques=cliques,
        stats=stats,
    )


def run_root(enum: Enumerator, plan: RootPlan, branch_id: int) -> None:
    """Run root branch ``branch_id`` of ``plan`` on ``enum`` (made by
    ``plan.enumerator``), adding its cliques and counters to ``enum``."""
    cfg = plan.config
    kernel = kernel_fn(enum, cfg.kernel)
    adj = plan.adj
    if plan.edges is not None:
        a, b = plan.edges[branch_id]
        d = None if cfg.framework == "edge" else cfg.d
        # Every vertex is a candidate of the initial branch and none is
        # excluded; only common neighbours of a and b matter, so N(a) can
        # stand for the candidate set.
        _edge_branch(enum, [], adj[a], set(), a, b, branch_id, 1, d, kernel)
    elif plan.pos is not None:
        pos = plan.pos
        i = pos[branch_id]
        nbrs = adj[branch_id]
        kernel([branch_id], {u for u in nbrs if pos[u] > i}, {u for u in nbrs if pos[u] < i})
    else:
        kernel([], set(adj), set())


def _edge_branch(
    enum: Enumerator,
    S: list[int],
    C: set[int],
    X: set[int],
    a: int,
    b: int,
    r: int,
    depth: int,
    d: int | None,
    kernel,
) -> None:
    """Eq.(2) sub-branch of the branch (S, C, X) on its edge (a, b) of rank
    ``r``: build (S', C', X'), prune it, and recurse at ``depth``."""
    adj = enum.adj
    rank = enum.rank
    ca, cb = adj[a], adj[b]
    common_c = C & ca & cb
    C2 = {
        w
        for w in common_c
        if rank[(a, w) if a < w else (w, a)] > r and rank[(b, w) if b < w else (w, b)] > r
    }
    X2 = (X & ca & cb) | (common_c - C2)
    S2 = S + [a, b]
    # Prune dead sub-branches at creation (the paper's call counts on large
    # graphs — fewer calls than edges — imply the same): an empty candidate
    # set emits at most S', and an exclusion vertex adjacent to every
    # candidate blocks every clique of the sub-branch.
    if not C2:
        if not X2:
            enum.emit(S2)
        return
    if any(C2 <= adj[x] for x in X2):
        return
    _ebb(enum, S2, C2, X2, r, depth, d, kernel)


def _ebb(
    enum: Enumerator,
    S: list[int],
    C: set[int],
    X: set[int],
    r: int,
    depth: int,
    d: int | None,
    kernel,
) -> None:
    """Edge-oriented recursion (Eq. 2 + Eq. 3) below a root edge branch;
    switches to ``kernel`` once ``depth`` reaches ``d``."""
    st = enum.stats
    st.calls += 1
    if not C and not X:
        enum.emit(S)
        return
    if d is not None and depth >= d:
        # Hand over to the vertex-oriented kernel under this branch's rank
        # threshold (dual adjacency; see repro.core.kernels docstring).
        old_r = enum.cur_r
        enum.cur_r = r
        kernel(S, C, X)
        enum.cur_r = old_r
        return
    adj = enum.adj
    rank = enum.rank
    edges: list[tuple[int, int, int]] = []
    for u in C:
        au = adj[u]
        for v in C & au:
            if u < v:
                rr = rank[(u, v)]
                if rr > r:
                    edges.append((rr, u, v))
    edges.sort()
    for re_, a, b in edges:
        _edge_branch(enum, S, C, X, a, b, re_, depth + 1, d, kernel)
    # Eq.(3): candidates with no compat edge left — their only clique in this
    # branch is S ∪ {v}, maximal iff nothing else common-adjacent touches v.
    for v in sorted(C):
        av = adj[v]
        if any(rank[_pair(v, z)] > r for z in C & av):
            continue
        if not (((C | X) - {v}) & av):
            enum.emit(S + [v])


def _run(g: LocalGraph, cfg: MceConfig, collect: bool) -> MceRun:
    t0 = time.perf_counter()
    plan = plan_roots(g, cfg)
    enum = plan.enumerator(collect=collect)
    for branch_id, _ in plan.branches:
        run_root(enum, plan, branch_id)
    enum.stats.merge(plan.stats)
    seconds = time.perf_counter() - t0
    cliques = sorted(enum.out + plan.cliques) if collect else None
    return MceRun(cliques=cliques, stats=enum.stats, seconds=seconds)


def run_mce(g: LocalGraph, *, collect: bool = True, **config) -> MceRun:
    """Run one configuration (``MceConfig`` fields as keywords, defaults
    for the rest) end to end on ``g``: plan the root branches, then run
    every one in process. ``collect=False`` keeps only the counters."""
    return _run(g, resolve_config(None, config), collect)


#: Named configurations for every algorithm that appears in Tables II–VI.
ALGORITHMS: dict[str, dict] = {
    # Table II: ours vs. the four state-of-the-art VBBMC+GR baselines [15].
    "HBBMC++": dict(framework="hybrid", kernel="tomita", d=1, et_t=3, gr=True),
    "RRef": dict(framework="vertex", kernel="ref", root="global", et_t=0, gr=True),
    "RDegen": dict(framework="vertex", kernel="tomita", root="degeneracy", et_t=0, gr=True),
    "RRcd": dict(framework="vertex", kernel="rcd", root="degeneracy", et_t=0, gr=True),
    "RFac": dict(framework="vertex", kernel="fac", root="degeneracy", et_t=0, gr=True),
    # Table III: ablation + hybrid with other VBBMC kernels.
    "HBBMC+": dict(framework="hybrid", kernel="tomita", d=1, et_t=0, gr=True),
    "Ref++": dict(framework="hybrid", kernel="ref", d=1, et_t=3, gr=True),
    "Rcd++": dict(framework="hybrid", kernel="rcd", d=1, et_t=3, gr=True),
    "Fac++": dict(framework="hybrid", kernel="fac", d=1, et_t=3, gr=True),
    # Table VI: initial-branch ordering variants (all with ET + GR).
    "VBBMC-dgn": dict(framework="vertex", kernel="tomita", root="degeneracy", et_t=3, gr=True),
    "HBBMC-dgn": dict(framework="hybrid", kernel="tomita", d=1, et_t=3, gr=True, edge_order="dgn"),
    "HBBMC-mdg": dict(framework="hybrid", kernel="tomita", d=1, et_t=3, gr=True, edge_order="mdg"),
}


def run_named(g: LocalGraph, name: str, *, collect: bool = True, **overrides) -> MceRun:
    """Run a named algorithm (Tables II–VI row/column labels), with optional
    parameter overrides (e.g. ``d=2`` for Table IV, ``et_t=1`` for Table V)."""
    return _run(g, resolve_config(name, overrides), collect)
