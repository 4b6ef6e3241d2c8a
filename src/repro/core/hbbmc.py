"""Frameworks: VBBMC (vertex-oriented) and HBBMC (hybrid) as configuration,
root-branch planning and the runner, plus the named-algorithm registry used
by every evaluation table. The search itself is
``repro.core.kernels.Enumerator``.

Every run first applies graph reduction (GR, ``repro.core.reduction``), as
every algorithm of Tables II–VI does, and searches only the core it leaves.
The initial branch splits MCE on that core into independent *root
branches* along one *root order* (the config key ``root``): a maximal
clique belongs to the branch of its rank-minimal edge (the hybrid), of its
first vertex in degeneracy order, or to the single whole-graph branch. A
root's id is its position in that order. ``plan_roots`` computes the
initial branch once and ``run_roots`` runs any set of root ids, so
``run_named`` runs every root in process and ``repro.dist.mce`` runs each
Spark task's group of roots with the same code.
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
    (Table IV); ``d=1`` is HBBMC. Each level adds two vertices to S, so any
    ``d > ω/2`` (ω the largest clique size) never hands over: pure EBBMC.
    Setting it under a vertex root is an error.
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
        # The initial edge-oriented branch is one call, whichever roots run.
        stats.calls = 1
    stats.root_branches = len(costs)
    plan = RootPlan(config=cfg, adj=adj, blocked=red.blocked, order=order, costs=costs)
    return plan, red.cliques, stats


def run_roots(
    plan: RootPlan, branch_ids: Iterable[int]
) -> tuple[list[tuple[int, ...]], BranchStats]:
    """Run the root branches ``branch_ids`` (any subset of the plan's ids,
    in any order) of ``plan`` on a fresh ``Enumerator``, and return their
    maximal cliques and counters. The search emits every maximal clique of
    the core; this call then drops GR's blocked pairs from them and counts
    the rest in ``stats.cliques``. Raises Python's recursion limit to what
    the plan's deepest branch can need."""
    cfg = plan.config
    adj = plan.adj
    # Each level adds vertices to the clique S, which never exceeds
    # omega <= max degree + 1 vertices: an edge level costs 2 frames (the
    # sweep and the branch) and adds two, a vertex level 2 (_branch, then
    # the kernel or _leaf it calls) and adds one, whether it is a vertex
    # root's _branch or a kernel's. So no chain nests deeper than 2 frames
    # per vertex of S, whatever d is, plus the one kernel frame of a
    # global root or a hand-off that adds none. ET's path recursion adds at
    # most one frame per candidate. Python's default limit stays on top for
    # the caller's own frames, that kernel frame and the few above roots.
    max_deg = max(map(len, adj.values()), default=0)
    needed = 2 * (max_deg + 1) + max_deg + 1000
    sys.setrecursionlimit(max(sys.getrecursionlimit(), needed))
    enum = Enumerator(adj, kernel=cfg.kernel, et_t=cfg.et_t, d=cfg.d)
    enum.roots(plan.order, branch_ids, vertices=cfg.root == "degeneracy")
    out = enum.out
    if plan.blocked:
        # A blocked pair is not maximal in G (DESIGN.md §3, "GR blocked sets").
        blocked = plan.blocked
        out = [c for c in out if c not in blocked]
    enum.stats.cliques = len(out)
    return out, enum.stats


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
