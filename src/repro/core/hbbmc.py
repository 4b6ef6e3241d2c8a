"""Frameworks: VBBMC (vertex-oriented) and HBBMC (hybrid), plus the
named-algorithm registry used by every evaluation table. EBBMC (pure
edge-oriented branching) is the hybrid whose edge levels never hand over.

Edge-oriented branching (Algorithms 2–4 of the paper) keeps Eq.(2)'s
shrinking edge sets the way EBBkC [19] does: by sweeping the edge order and
deleting each edge once its branch is built. Every edge-oriented branch
carries its *compat adjacency*: its candidate edges, which are exactly the
edges ordered after the edge that created it (the lazy invariant of
DESIGN.md §3). A branch (S, C, X) sweeps its compat edges among C in rank
order; once edge e = (a, b) is deleted, the map ``live`` left holds exactly
the edges ordered after e, and the sub-branch of e is

    C' = live[a] ∩ live[b]
    X' = ((C ∪ X) ∩ N(a) ∩ N(b)) \\ C'

with ``live`` as its compat adjacency — every common G-neighbor of S' lands
in C' or X', so maximality checks stay exact. The initial branch is (∅, V,
∅) with G as its compat adjacency, so its sweep is one pass over the whole
edge order (``run_roots``). Zero-degree candidates (no compat edge to
another candidate) are the Eq.(3) branches: ``S ∪ {v}`` is emitted iff no
other common neighbor is G-adjacent to v.

``d`` controls how many edge-oriented levels run before switching to the
vertex-oriented kernel (Table IV); ``d=1`` is HBBMC. Each level adds two
vertices to S, so a branch at depth ``d`` with a candidate left holds a
clique of 2d + 1 vertices: with ``d > ω/2`` no branch reaches the kernel and
the hybrid is pure EBBMC.

Every run first applies graph reduction (GR, ``repro.core.reduction``), as
every algorithm of Tables II–VI does, and searches only the core it leaves.
The initial branch splits MCE on that core into independent *root
branches* along one *root order*, the config key ``root``: one branch per
edge in an edge order (``"truss"``, ``"dgn"`` or ``"mdg"``: the hybrid; a
maximal clique belongs to the branch of its rank-minimal edge), one per
vertex in degeneracy order (``"degeneracy"``: the vertex framework; the
branch of its first vertex), or the single whole-graph branch
(``"global"``). A root's id is its position in that order. ``plan_roots``
computes the initial branch once and ``run_roots`` runs any set of root ids
in one sweep of the order, for both root kinds, so ``run_named`` runs every
root in process and ``repro.dist.mce`` runs each Spark task's group of
roots with the same code.
"""
from __future__ import annotations

import sys
import time
from collections.abc import Iterable
from dataclasses import dataclass, fields

import numpy as np

from .kernels import KERNELS, Enumerator
from .localgraph import LocalGraph
from .ordering import EDGE_ORDERS, Pair, degeneracy_order, edge_order_rank
from .reduction import reduce_graph
from .stats import BranchStats


@dataclass
class MceRun:
    """Result of one MCE run: the cliques (sorted tuples, in sorted order),
    counters, and wall time in seconds (includes GR + ordering and building
    every clique, as the paper's reported times do)."""

    cliques: list[tuple[int, ...]]
    stats: BranchStats
    seconds: float

    @property
    def n_cliques(self) -> int:
        return self.stats.cliques + self.stats.gr_cliques


@dataclass(frozen=True)
class MceConfig:
    """One run configuration; ``ALGORITHMS`` names the ones in the tables.

    root: the root order, which picks the framework. An edge order
    (``"truss"``, or Table VI's ``"dgn"`` and ``"mdg"``) is the hybrid
    (Table II's HBBMC); ``"degeneracy"`` (BK_Degen-style initial branching)
    or ``"global"`` (a single root branch, BK_Pivot-style) is the
    vertex framework (VBBMC).
    kernel: the vertex-oriented kernel (``repro.core.kernels.KERNELS``).
    d (edge roots only): edge-oriented levels before the kernel takes over
    (Table IV); any ``d > ω/2`` (ω the largest clique size) never hands
    over: pure EBBMC. Setting it under a vertex root is an error.
    et_t: early-termination threshold t (1, 2 or 3), 0 for none (Table V).
    """

    root: str = "truss"
    kernel: str = "tomita"
    d: int = 1
    et_t: int = 3


#: The vertex framework's root orders; every other root is an edge order.
_VERTEX_ROOTS = ("degeneracy", "global")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def resolve_config(name: str, overrides: dict) -> MceConfig:
    """The configuration of algorithm ``name`` (an ``ALGORITHMS`` key) with
    ``overrides`` applied. An unknown name, key or value, or a ``d`` under a
    vertex root, raises ``ValueError``, so a misconfigured run fails instead
    of running something else."""
    if name not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {name!r}; one of {sorted(ALGORITHMS)}")
    keys = {f.name for f in fields(MceConfig)}
    unknown = sorted(set(overrides) - keys)
    if unknown:
        raise ValueError(f"unknown config keys {unknown}; one of {sorted(keys)}")
    merged = {**ALGORITHMS[name], **overrides}
    cfg = MceConfig(**merged)
    if cfg.root not in (*EDGE_ORDERS, *_VERTEX_ROOTS):
        raise ValueError(f"unknown root {cfg.root!r}; one of {[*EDGE_ORDERS, *_VERTEX_ROOTS]}")
    if cfg.kernel not in KERNELS:
        raise ValueError(f"unknown kernel {cfg.kernel!r}; one of {sorted(KERNELS)}")
    if not _is_int(cfg.d) or cfg.d < 1:
        raise ValueError(f"d must be an int with d >= 1, not {cfg.d!r}")
    if not _is_int(cfg.et_t) or cfg.et_t not in (0, 1, 2, 3):
        raise ValueError(f"et_t must be 0 (no ET), 1, 2 or 3, not {cfg.et_t!r}")
    if cfg.root in _VERTEX_ROOTS and "d" in merged:
        raise ValueError(f"d is not read under the vertex root {cfg.root!r}")
    return cfg


@dataclass
class RootPlan:
    """The initial branch of one run, as its root branches read it:
    computed once by ``plan_roots``, and all a Spark task receives.

    Every maximal clique is either one of GR's (``plan_roots`` returns them
    beside the plan) or found by exactly one root branch, so any partition
    of the branch ids can run anywhere (``run_roots``) and the cliques and
    counters simply add up. A branch id is the root's position in
    ``order``, or 0 for the global root.
    """

    config: MceConfig
    adj: dict[int, set[int]]  # the GR-reduced graph
    blocked: set[tuple[int, int]]  # GR's blocked pairs, dropped by run_roots
    # The roots in sweep order: edges in rank order (edge roots), vertices
    # in degeneracy order (degeneracy root), or None (global root).
    order: list[Pair] | list[int] | None
    costs: list[int]  # costs[i]: balance cost of branch i


def plan_roots(
    g: LocalGraph, cfg: MceConfig
) -> tuple[RootPlan, list[tuple[int, ...]], BranchStats]:
    """GR, the ordering peel of its core and the root-branch list of
    ``cfg`` on ``g``. Returns the plan and the driver's own share of the
    run, which no root reads and the caller adds once: GR's cliques and the
    counters of the planning.

    The balance cost of a branch estimates its work: the smaller endpoint
    degree of an edge branch, the number of later neighbours of a degeneracy
    vertex branch.
    """
    red = reduce_graph(g)
    core = red.reduced
    adj = core.adj
    stats = BranchStats(gr_cliques=len(red.cliques))
    if cfg.root == "global":
        order = None
        costs = [len(adj)]
    elif cfg.root == "degeneracy":
        dg = degeneracy_order(core)
        order = dg.order
        costs = dg.later
    else:
        pos = edge_order_rank(core, cfg.root)
        order = core.edges_at(pos)
        costs = np.minimum(core.deg[core.eu[pos]], core.deg[core.ev[pos]]).tolist()
        # The initial edge-oriented branch is one call. It has no Eq.(3)
        # branch: GR leaves no vertex of degree below 3.
        stats.calls = 1
    stats.root_branches = len(costs)
    plan = RootPlan(config=cfg, adj=adj, blocked=red.blocked, order=order, costs=costs)
    return plan, red.cliques, stats


def run_roots(
    plan: RootPlan, branch_ids: Iterable[int]
) -> tuple[list[tuple[int, ...]], BranchStats]:
    """Run the root branches ``branch_ids`` (any subset of the plan's ids,
    in any order) of ``plan`` on a fresh ``Enumerator``, and return their
    maximal cliques and counters. One sweep of ``plan.order`` up to the
    largest wanted id serves edge and vertex roots alike. The kernels emit
    every maximal clique of the core; this call then drops GR's blocked
    pairs from them and counts the rest in ``stats.cliques``. Raises
    Python's recursion limit to what the plan's deepest branch can need."""
    cfg = plan.config
    adj = plan.adj
    enum = Enumerator(adj, et_t=cfg.et_t)
    kernel = getattr(enum, KERNELS[cfg.kernel])
    # A kernel level costs at most 3 frames (kernel -> _pivot_branch ->
    # _branch_on -> kernel) and an edge level 1; each adds at least one
    # vertex to the clique S, so a root branch nests at most omega + d + 1 <=
    # max degree + d + 2 levels; no branch has more than max degree + 2
    # levels at all, so a deeper d adds nothing. ET's path recursion adds at
    # most one frame per candidate. Python's default limit stays on top for
    # the caller's own frames.
    max_deg = max(map(len, adj.values()), default=0)
    needed = 3 * (max_deg + min(cfg.d, max_deg + 2) + 2) + max_deg + 1000
    sys.setrecursionlimit(max(sys.getrecursionlimit(), needed))
    wanted = set(branch_ids)
    if plan.order is None:
        if wanted:
            kernel([], set(adj), set())
    else:
        # Only edge levels below d sort their compat edges by rank.
        rank = {e: i for i, e in enumerate(plan.order)} if cfg.d > 1 else None
        vertex_roots = cfg.root == "degeneracy"
        # Sweep the order, deleting each root once it is passed: at root i,
        # rem holds exactly the graph of the roots after i, and it does not
        # change while root i runs. Every vertex is a candidate of the
        # initial branch and none is excluded, so a root's X is every other
        # G-neighbour of its vertices that the root's C leaves out.
        rem = {v: set(nbrs) for v, nbrs in adj.items()}
        for i, root in enumerate(plan.order[: max(wanted, default=-1) + 1]):
            if vertex_roots:
                # C = the later neighbours of v.
                C = rem.pop(root)
                for u in C:
                    rem[u].discard(root)
                if i in wanted:
                    kernel([root], C, adj[root] - C)
                continue
            # C' = the common neighbours of a and b over edges ranked after
            # (a, b): rem is the root's compat adjacency.
            a, b = root
            rem_a, rem_b = rem[a], rem[b]
            rem_a.discard(b)
            rem_b.discard(a)
            if i in wanted:
                C2 = rem_a & rem_b
                _ebb(enum, [a, b], C2, (adj[a] & adj[b]) - C2, rem, rank, 1, cfg.d, kernel)
    out = enum.out
    if plan.blocked:
        # A blocked pair is not maximal in G (DESIGN.md §3, "GR blocked sets").
        blocked = plan.blocked
        out = [c for c in out if c not in blocked]
    enum.stats.cliques = len(out)
    return out, enum.stats


def _ebb(
    enum: Enumerator,
    S: list[int],
    C: set[int],
    X: set[int],
    cadj: dict[int, set[int]],
    rank: dict[Pair, int] | None,
    depth: int,
    d: int,
    kernel,
) -> None:
    """Edge-oriented branch (S, C, X) with compat adjacency ``cadj`` (Eq. 2
    + Eq. 3), just built by its parent at ``depth``; switches to ``kernel``
    once ``depth`` reaches ``d``. ``rank`` (edge -> position in the root
    order) is read only below ``d``."""
    adj = enum.adj
    # Prune dead branches at creation, without a call (the paper's call
    # counts on large graphs — fewer calls than edges — imply the same): an
    # empty candidate set emits at most S, and an exclusion vertex adjacent
    # to every candidate blocks every clique of the branch. A live branch is
    # one call, counted where it runs: by the kernel's _enter after a
    # hand-off, here when this level sweeps it.
    if not C:
        if not X:
            enum.emit(S)
        return
    if any(C <= adj[x] for x in X):
        return
    if depth >= d:
        # Hand over to the vertex-oriented kernel under this branch's compat
        # adjacency (dual adjacency; see repro.core.kernels docstring).
        enum.cadj = cadj
        kernel(S, C, X)
        return
    enum.stats.calls += 1
    live = {u: C & cadj[u] for u in C}
    # Eq.(3): candidates with no compat edge — their only clique in this
    # branch is S ∪ {v}, maximal iff nothing else common-adjacent touches v.
    isolated = [v for v in sorted(C) if not live[v]]
    # Eq.(2): sweep this branch's compat edges among C in rank order, as
    # run_roots sweeps G's. After edge (a, b) is deleted, live holds exactly
    # the compat edges ranked after it: the child's compat adjacency.
    for _, a, b in sorted((rank[(u, v)], u, v) for u in C for v in live[u] if u < v):
        live_a, live_b = live[a], live[b]
        live_a.discard(b)
        live_b.discard(a)
        C2 = live_a & live_b
        ab = adj[a] & adj[b]
        X2 = (X & ab) | ((C & ab) - C2)
        _ebb(enum, S + [a, b], C2, X2, live, rank, depth + 1, d, kernel)
    for v in isolated:
        if not (((C | X) - {v}) & adj[v]):
            enum.emit(S + [v])


#: Named configurations for every algorithm that appears in Tables II–VI.
ALGORITHMS: dict[str, dict] = {
    # Table II: ours vs. the four state-of-the-art VBBMC+GR baselines [15].
    # Naudé's refined pivot [12] is not reproduced: RRef is the global-root
    # pivot BK (BK_Pivot + GR), and Table III's Ref++ is not run (DESIGN.md §4).
    "HBBMC++": dict(root="truss", kernel="tomita", d=1, et_t=3),
    "RRef": dict(root="global", kernel="tomita", et_t=0),
    "RDegen": dict(root="degeneracy", kernel="tomita", et_t=0),
    "RRcd": dict(root="degeneracy", kernel="rcd", et_t=0),
    "RFac": dict(root="degeneracy", kernel="fac", et_t=0),
    # Table III: ablation + hybrid with other VBBMC kernels.
    "HBBMC+": dict(root="truss", kernel="tomita", d=1, et_t=0),
    "Rcd++": dict(root="truss", kernel="rcd", d=1, et_t=3),
    "Fac++": dict(root="truss", kernel="fac", d=1, et_t=3),
    # Table VI: initial-branch ordering variants (all with ET).
    "VBBMC-dgn": dict(root="degeneracy", kernel="tomita", et_t=3),
    "HBBMC-dgn": dict(root="dgn", kernel="tomita", d=1, et_t=3),
    "HBBMC-mdg": dict(root="mdg", kernel="tomita", d=1, et_t=3),
}


def run_named(g: LocalGraph, name: str, **overrides) -> MceRun:
    """Run a named algorithm (Tables II–VI row/column labels) end to end on
    ``g``, with optional ``MceConfig`` overrides (e.g. ``d=2`` for Table IV,
    ``et_t=1`` for Table V): plan the root branches, then run every one in
    process, building every clique."""
    cfg = resolve_config(name, overrides)
    t0 = time.perf_counter()
    plan, cliques, stats = plan_roots(g, cfg)
    out, root_stats = run_roots(plan, range(len(plan.costs)))
    stats.merge(root_stats)
    seconds = time.perf_counter() - t0
    return MceRun(cliques=sorted(out + cliques), stats=stats, seconds=seconds)
