"""Integration fuzz of the frameworks: HBBMC (hybrid), EBBMC (the hybrid
with a depth no branch reaches), the named algorithm registry, parameter
sweeps, and counter invariants."""
import copy
import gc
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.hbbmc import ALGORITHMS, RootPlan, plan_roots, resolve_config, run_named, run_roots
from repro.core.kernels import Enumerator
from repro.core.localgraph import LocalGraph
from repro.core.ordering import EDGE_ORDERS, truss_peel
from repro.core.reduction import reduce_graph
from repro.core.stats import BranchStats
from repro.graphs.datasets import DATASET_NAMES, load_local
from repro.graphs.generators import ba_edges, powerlaw_cluster_edges, social_edges, to_local
from tests.oracles import caveman_edges, er_edges, reference_mce, verify_cliques
from tests.test_reduction import HEXAGON_EARS, tail_graph

#: An edge-oriented depth no branch reaches: the hybrid then never hands a
#: branch to the vertex kernel, which is pure EBBMC.
EBBMC_D = 10**9

GRAPHS = [
    ("er-sparse", lambda s: to_local(er_edges(40, 120, s), 40)),
    ("er-dense", lambda s: to_local(er_edges(25, 200, s), 25)),
    ("er-very-dense", lambda s: to_local(er_edges(60, 700, s), 60)),
    ("ba", lambda s: to_local(ba_edges(60, 4, s), 60)),
    ("plc", lambda s: to_local(powerlaw_cluster_edges(50, 4, 0.7, s), 50)),
    ("caveman", lambda s: to_local(caveman_edges(5, 6, 6, s))),
    ("social", lambda s: to_local(
        social_edges(50, 3, s, caves=(3, 9, 4), core=(18, 0.4), bicore=(8, 8, 0.5))
    )),
]


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
@pytest.mark.parametrize("gname,make", GRAPHS)
def test_named_algorithms_match_reference(name, gname, make):
    g = make(0)
    r = run_named(g, name)
    assert r.cliques == reference_mce(g), f"{name} on {gname}"


@pytest.mark.parametrize("gname,make", GRAPHS)
@pytest.mark.parametrize("seed", range(3))
def test_hbbmcpp_across_seeds(gname, make, seed):
    g = make(seed)
    verify_cliques(g, run_named(g, "HBBMC++").cliques)


@pytest.mark.parametrize("d", [1, 2, 3, 5, EBBMC_D])
@pytest.mark.parametrize("gname,make", GRAPHS)
def test_depth_sweep(d, gname, make):
    g = make(1)
    assert run_named(g, "HBBMC++", d=d).cliques == reference_mce(g)


@pytest.mark.parametrize("t", [0, 1, 2, 3])
@pytest.mark.parametrize("gname,make", GRAPHS)
def test_et_threshold_sweep(t, gname, make):
    g = make(2)
    assert run_named(g, "HBBMC++", et_t=t).cliques == reference_mce(g)


@pytest.mark.parametrize("gname,make", GRAPHS)
def test_pure_ebbmc(gname, make):
    g = make(0)
    r = run_named(g, "HBBMC+", d=EBBMC_D)
    assert r.cliques == reference_mce(g)


@pytest.mark.parametrize("edge_order", ["truss", "dgn", "mdg"])
@pytest.mark.parametrize("seed", range(3))
def test_alternative_edge_orders(edge_order, seed):
    g = to_local(er_edges(35, 160, seed), 35)
    r = run_named(g, "HBBMC++", root=edge_order)
    assert r.cliques == reference_mce(g)


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_run_leaves_the_input_graph_untouched(name):
    """GR only reads the caller's adjacency and every later stage runs on
    the core it builds, so no stage of any algorithm may modify ``g``."""
    g = dict(GRAPHS)["social"](0)
    g.adj.update({1000: {1001}, 1001: {1000}, 1002: set()})  # pendant edge, isolated vertex
    before = copy.deepcopy(g.adj)
    run_named(g, name)
    assert g.adj == before


def test_isolated_vertices_and_odd_cliques():
    """Isolated vertices are 1-cliques, which GR emits. A K5 survives GR,
    and its 5-clique passes through a zero-degree candidate (Eq. 3) of an
    edge branch once no branch hands over."""
    k5 = [(u, v) for u in range(15, 20) for v in range(u + 1, 20)]
    g = to_local(np.concatenate([er_edges(10, 12, 3), k5]), 15)  # 10..14 isolated
    ref = reference_mce(g)
    assert any(len(c) == 1 for c in ref) and (15, 16, 17, 18, 19) in ref
    for d in (1, EBBMC_D):
        assert run_named(g, "HBBMC+", d=d).cliques == ref


def test_empty_graph():
    g = LocalGraph.from_edges([])
    assert run_named(g, "HBBMC++").cliques == []
    assert run_named(g, "RDegen").cliques == []


def test_single_edge_graph():
    g = LocalGraph.from_edges([(0, 1)])
    for name in ("HBBMC++", "RRef", "RDegen", "RRcd", "RFac"):
        assert run_named(g, name).cliques == [(0, 1)]


def test_counters_root_branches_hybrid():
    g = to_local(er_edges(30, 100, 0), 30)
    r = run_named(g, "HBBMC++")
    assert r.stats.root_branches == reduce_graph(g).reduced.m  # one per edge of the GR core


def test_counters_root_branches_vertex():
    g = to_local(er_edges(30, 100, 0), 30)
    r = run_named(g, "RDegen")
    assert r.stats.root_branches == reduce_graph(g).reduced.n


def test_counters_et_monotone_calls():
    """Table V's qualitative claim: #calls decreases as t grows."""
    g = to_local(social_edges(80, 3, 5, caves=(4, 12, 5)))
    calls = [run_named(g, "HBBMC++", et_t=t).stats.calls for t in (0, 1, 2, 3)]
    assert calls[0] >= calls[1] >= calls[2] >= calls[3]
    assert calls[3] < calls[0]


def test_counters_depth_monotone_calls():
    """Table IV's qualitative claim on clique-rich graphs: edge-oriented
    branching beyond the root (d > 1) lacks pivot pruning, so #calls grows
    with d (the bench-scale surrogates FB/DG reproduce this too)."""
    g = to_local(social_edges(120, 3, 9, caves=(5, 16, 7), core=(30, 0.3)))
    calls = [run_named(g, "HBBMC++", d=d).stats.calls for d in (1, 2, 3)]
    assert calls[0] < calls[1] <= calls[2] * 1.2  # d=1 clearly cheapest


def test_et_ratio_between_zero_and_one():
    g = to_local(social_edges(80, 3, 6, caves=(4, 12, 5)))
    st = run_named(g, "HBBMC++").stats
    assert 0 <= st.et_applied <= st.et_plex
    assert 0.0 <= st.ratio() <= 1.0


def test_run_named_rejects_unknown():
    with pytest.raises(ValueError, match="unknown algorithm"):
        run_named(LocalGraph.from_edges([]), "NOPE")


def test_hybrid_rejects_bad_depth():
    with pytest.raises(ValueError, match="d >= 1"):
        run_named(LocalGraph.from_edges([(0, 1)]), "HBBMC++", d=0)


#: Every name with each ET threshold, for the clique-counter checks.
ET_CONFIGS = [(name, t) for name in sorted(ALGORITHMS) for t in (1, 2, 3)]


@pytest.mark.parametrize("dataset", DATASET_NAMES + ["tail"])
def test_clique_counter_matches_cliques(dataset):
    """``run_roots`` counts the cliques the root branches add, GR's blocked
    pairs dropped, and the plan counts GR's own: together they must count
    exactly the cliques a run builds."""
    g = tail_graph() if dataset == "tail" else load_local(dataset, "test")
    for name, t in ET_CONFIGS:
        r = run_named(g, name, et_t=t)
        assert r.n_cliques == len(r.cliques), (name, t)


def test_filters_gr_blocked_et_cliques():
    """``HEXAGON_EARS``: in the core, each vertex branch S = [v] with empty
    X is a 3-plex whose ET output includes {v, v+3}, and every run that
    reaches ET must drop that blocked pair."""
    g = to_local(HEXAGON_EARS)
    expected = reference_mce(g)
    assert expected == [(0, 2, 4), (0, 3, 6), (1, 3, 5), (1, 4, 7), (2, 5, 8)]
    for name, t in ET_CONFIGS:
        r = run_named(g, name, et_t=t)
        assert r.cliques == expected, (name, t)
        assert r.n_cliques == len(expected), (name, t)


def test_filters_blocked_pair_of_vertex_root():
    """Vertex root 0 with C its two non-adjacent neighbours: ET emits two
    2-cliques, and ``run_roots`` drops the GR-blocked one, so one clique is
    kept and counted."""
    plan = RootPlan(
        config=resolve_config("VBBMC-dgn", {}),
        adj={0: {1, 2}, 1: {0}, 2: {0}},
        blocked={(0, 1)},
        order=[0, 1, 2],
        costs=[2, 0, 0],
    )
    out, stats = run_roots(plan, [0])
    assert stats.et_applied == 1
    assert out == [(0, 2)]
    assert stats.cliques == 1


def test_branch_bound_tau_respected():
    """Every hybrid root branch candidate set is bounded by tau (the
    property the truss ordering buys, Theorem 2's engine)."""
    g = to_local(er_edges(40, 250, 7), 40)
    pos, tau = truss_peel(g)
    adj = g.adj
    rank = {e: i for i, e in enumerate(g.edges_at(pos))}
    for (u, v), r in rank.items():
        c = sum(
            1
            for w in adj[u] & adj[v]
            if rank[(u, w) if u < w else (w, u)] > r and rank[(v, w) if v < w else (w, v)] > r
        )
        assert c <= tau


def test_seconds_recorded():
    g = to_local(er_edges(30, 100, 0), 30)
    assert run_named(g, "HBBMC++").seconds > 0


#: (calls, et_plex, et_applied, cliques, root_branches, gr_cliques, n_cliques)
#: on the OR test-scale surrogate. Re-recorded when the truss peel became
#: round-synchronous: that moved the truss order and so the counters of the
#: seven truss-ordered runs, and nothing else (the cliques and root branches
#: stayed). Re-recorded again when an edge branch handed to the vertex
#: kernel came to be counted once, by the kernel: every edge-rooted run's
#: calls fell by its hand-offs and no other counter moved. Re-recorded
#: again when the degeneracy order came from the round-synchronous peel
#: (ties within a level go by round, then id, not one vertex at a time):
#: that moved the degeneracy order and so the calls, et_plex and et_applied
#: of the five degeneracy-ordered runs (RDegen, RRcd, RFac, VBBMC-dgn,
#: HBBMC-dgn), and nothing else. A speed-up must not move them: #calls is
#: the machine-independent control.
PINNED_COUNTERS = {
    ("Fac++", None): (1828, 1608, 514, 1325, 1641, 0, 1325),
    ("HBBMC+", None): (2252, 0, 0, 1325, 1641, 0, 1325),
    ("HBBMC++", None): (1375, 1180, 491, 1325, 1641, 0, 1325),
    ("HBBMC-dgn", None): (1337, 981, 415, 1325, 1641, 0, 1325),
    ("HBBMC-mdg", None): (1283, 821, 351, 1325, 1641, 0, 1325),
    ("RDegen", None): (2482, 0, 0, 1325, 240, 0, 1325),
    ("RFac", None): (3092, 0, 0, 1325, 240, 0, 1325),
    ("RRcd", None): (1630, 0, 0, 1325, 240, 0, 1325),
    ("RRef", None): (2407, 0, 0, 1325, 1, 0, 1325),
    ("Rcd++", None): (1122, 1421, 287, 1325, 1641, 0, 1325),
    ("VBBMC-dgn", None): (1501, 681, 367, 1325, 240, 0, 1325),
    ("HBBMC++", 2): (1241, 532, 253, 1325, 1641, 0, 1325),
    ("HBBMC-dgn", 2): (1197, 576, 254, 1325, 1641, 0, 1325),
    ("HBBMC-mdg", 2): (1018, 468, 215, 1325, 1641, 0, 1325),
    ("HBBMC++", 3): (1312, 320, 320, 1325, 1641, 0, 1325),
    ("HBBMC++", EBBMC_D): (1312, 0, 0, 1325, 1641, 0, 1325),
}


def test_counters_pinned():
    assert {name for name, _ in PINNED_COUNTERS} == set(ALGORITHMS)
    g = load_local("OR", "test")
    measured = {}
    for name, d in PINNED_COUNTERS:
        r = run_named(g, name, **({} if d is None else {"d": d}))
        measured[(name, d)] = (*r.stats.as_dict().values(), r.n_cliques)
    assert measured == PINNED_COUNTERS


#: (calls, et_plex, et_applied, cliques, root_branches, gr_cliques, n_cliques)
#: on ``tail_graph()``, where GR removes 2,924 of 3,096 vertices and emits
#: 4,338 of the 4,732 cliques (GR removes nothing on the surrogates, so
#: ``test_counters_pinned`` never exercises it). Re-recorded, like
#: ``PINNED_COUNTERS``, when the truss peel became round-synchronous, when
#: a hand-off to the kernel came to be counted once, and when the
#: degeneracy order came from the round-synchronous peel.
PINNED_COUNTERS_GR_HEAVY = {
    "Fac++": (433, 432, 108, 394, 704, 4338, 4732),
    "HBBMC+": (729, 0, 0, 394, 704, 4338, 4732),
    "HBBMC++": (244, 243, 108, 394, 704, 4338, 4732),
    "HBBMC-dgn": (236, 232, 104, 394, 704, 4338, 4732),
    "HBBMC-mdg": (172, 162, 79, 394, 704, 4338, 4732),
    "RDegen": (889, 0, 0, 394, 172, 4338, 4732),
    "RFac": (1172, 0, 0, 394, 172, 4338, 4732),
    "RRcd": (559, 0, 0, 394, 172, 4338, 4732),
    "RRef": (851, 0, 0, 394, 1, 4338, 4732),
    "Rcd++": (232, 327, 52, 394, 704, 4338, 4732),
    "VBBMC-dgn": (316, 233, 73, 394, 172, 4338, 4732),
}


def test_counters_pinned_gr_heavy():
    assert set(PINNED_COUNTERS_GR_HEAVY) == set(ALGORITHMS)
    g = tail_graph()
    measured = {}
    for name in PINNED_COUNTERS_GR_HEAVY:
        r = run_named(g, name)
        measured[name] = (*r.stats.as_dict().values(), r.n_cliques)
    assert measured == PINNED_COUNTERS_GR_HEAVY


#: (calls, et_plex, et_applied, cliques, root_branches, gr_cliques) summed
#: over the 16 test-scale surrogates, per configuration: every
#: ``ALGORITHMS`` name (d = None) and Fac++, HBBMC++, HBBMC-dgn and Rcd++ at
#: d = 2, so a refactor of the search steps is checked on every surrogate,
#: not on OR alone. Re-recorded only by a change meant to alter the search,
#: like ``PINNED_COUNTERS``, and said so in CHANGES.md; a speed-up or
#: refactor must not move them.
PINNED_COUNTERS_SURROGATES = {
    ("Fac++", None): (12682, 11182, 4548, 11521, 17852, 0),
    ("HBBMC+", None): (15536, 0, 0, 11521, 17852, 0),
    ("HBBMC++", None): (10835, 9587, 4702, 11521, 17852, 0),
    ("HBBMC-dgn", None): (10339, 8237, 3849, 11521, 17852, 0),
    ("HBBMC-mdg", None): (9927, 7155, 3333, 11521, 17852, 0),
    ("RDegen", None): (21605, 0, 0, 11521, 3625, 0),
    ("RFac", None): (25513, 0, 0, 11521, 3625, 0),
    ("RRcd", None): (14248, 0, 0, 11521, 3625, 0),
    ("RRef", None): (20493, 0, 0, 11521, 16, 0),
    ("Rcd++", None): (8342, 9241, 3106, 11521, 17852, 0),
    ("VBBMC-dgn", None): (14652, 6779, 3361, 11521, 3625, 0),
    ("Fac++", 2): (9279, 2648, 1161, 11521, 17852, 0),
    ("HBBMC++", 2): (8803, 2172, 1373, 11521, 17852, 0),
    ("HBBMC-dgn", 2): (8117, 2197, 1340, 11521, 17852, 0),
    ("Rcd++", 2): (8274, 1829, 1004, 11521, 17852, 0),
}


def test_counters_pinned_all_surrogates():
    assert {name for name, _ in PINNED_COUNTERS_SURROGATES} == set(ALGORITHMS)
    graphs = [load_local(name, "test") for name in DATASET_NAMES]
    measured = {}
    for name, d in PINNED_COUNTERS_SURROGATES:
        total = BranchStats()
        for g in graphs:
            total.merge(run_named(g, name, **({} if d is None else {"d": d})).stats)
        measured[(name, d)] = tuple(total.as_dict().values())
    assert measured == PINNED_COUNTERS_SURROGATES


SPLIT_CONFIGS = [
    *[
        pytest.param("HBBMC++", {"d": d, "root": eo}, id=f"hybrid-d{d}-{eo}")
        for d in (1, 2)
        for eo in EDGE_ORDERS
    ],
    pytest.param("RDegen", {}, id="vertex-degeneracy"),
]


@pytest.mark.parametrize("dataset", DATASET_NAMES)
def test_vertex_root_costs_are_later_neighbour_counts(dataset):
    """A vertex root's balance cost, read off the degeneracy peel, is its
    number of neighbours after it in the order."""
    plan, _, _ = plan_roots(load_local(dataset, "test"), resolve_config("RDegen", {}))
    pos = {v: i for i, v in enumerate(plan.order)}
    assert plan.costs == [sum(1 for u in plan.adj[v] if pos[u] > i) for i, v in enumerate(plan.order)]


@pytest.mark.parametrize("k", [1, 3, 7])
@pytest.mark.parametrize("name,overrides", SPLIT_CONFIGS)
def test_run_roots_split_invariance(name, overrides, k):
    """Root branches dealt into k random groups, each shuffled and run by
    its own ``run_roots`` call (the Spark task layout), add up to one call
    over all of them; an empty group adds nothing. OR has no GR-blocked
    pair; the tail graph's core search emits some, so each group drops its
    own."""
    for g in (load_local("OR", "test"), tail_graph()):
        plan, _, _ = plan_roots(g, resolve_config(name, overrides))
        ids = range(len(plan.costs))
        whole, whole_stats = run_roots(plan, ids)
        rng = random.Random(k)
        groups = [[] for _ in range(k)]
        for bid in ids:
            groups[rng.randrange(k)].append(bid)
        stats, cliques = BranchStats(), []
        for group in groups + [[]]:
            rng.shuffle(group)
            out, st = run_roots(plan, group)
            stats.merge(st)
            cliques += out
        assert sorted(cliques) == sorted(whole)
        assert stats.as_dict() == whole_stats.as_dict()


def test_run_roots_frees_its_search_state_by_refcount():
    """``run_roots``' Enumerator holds a copy of the graph while its roots
    run. Nothing on it may point back to it (a bound kernel method would),
    so reference counting frees it when ``run_roots`` returns: a cycle kept
    each run's copy alive until the cyclic collector ran, which raised the
    benchmark's peak RSS."""
    g = load_local("OR", "test")
    configs = [("HBBMC++", {}), ("HBBMC++", {"d": 2}), ("RDegen", {}), ("RRef", {})]
    plans = [plan_roots(g, resolve_config(name, ov))[0] for name, ov in configs]
    gc.collect()
    gc.disable()
    try:
        for plan in plans:
            run_roots(plan, range(len(plan.costs)))
        assert not [o for o in gc.get_objects() if isinstance(o, Enumerator)]
    finally:
        gc.enable()


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_run_roots_leaves_its_plan_untouched(name):
    """A kernel updates the C and X it is given in place, so every hand-off
    must pass sets the plan does not hold. A Spark worker reuses one
    deserialized plan across its tasks: a run that wrote into ``plan.adj``
    would corrupt every later task there."""
    g = load_local("OR", "test")
    plan = plan_roots(g, resolve_config(name, {}))[0]
    before = copy.deepcopy(plan.adj)
    ids = range(len(plan.costs))
    first = run_roots(plan, ids)
    assert plan.adj == before
    second = run_roots(plan, ids)
    assert plan.adj == before
    assert first[0] == second[0]
    assert first[1].as_dict() == second[1].as_dict()


def _fresh_python(code: str) -> str:
    """stdout of ``code`` run in a new interpreter that imports this repro."""
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_import_leaves_recursion_limit():
    code = (
        "import sys; before = sys.getrecursionlimit(); "
        "import repro.core.hbbmc; print(sys.getrecursionlimit() == before)"
    )
    assert _fresh_python(code) == "True"


def test_deep_clique_raises_recursion_limit():
    """K_400 nests 400 kernel levels on one global root, about 399 below
    the edge sweep's frames on the first edge root of HBBMC+ (no ET), and
    399 below the first vertex root's ``_branch`` frame of RDegen: about 800
    frames each, more than the limit of 500 the interpreter starts from
    here (Python's default of 1000 would hold them); run_roots raises the
    limit."""
    code = (
        "import itertools, sys; "
        "sys.setrecursionlimit(500); "
        "from repro.core.hbbmc import run_named; "
        "from repro.core.localgraph import LocalGraph; "
        "g = LocalGraph.from_edges(itertools.combinations(range(400), 2)); "
        "print([run_named(g, a).cliques == [tuple(range(400))] for a in ('RRef', 'HBBMC+', 'RDegen')])"
    )
    assert _fresh_python(code) == "[True, True, True]"


def test_benchmark_patch_points_are_reached(monkeypatch):
    """``mcebench/tracing.py`` times the layers by swapping the names the
    program looks up at call time, and skips a name that is gone, so a
    refactor that stops reaching one would silently zero a benchmark
    layer. Each name must still exist where the tracer swaps it and be
    called by a hybrid and a vertex-root run. Delete this test with the
    import-site tracer."""
    import repro.core.hbbmc as hbbmc
    import repro.core.kernels as kernels
    import repro.dist.mce as dist_mce
    from repro.graphs.edgelist import to_local as edgelist_to_local

    sites = [
        (hbbmc, "reduce_graph"),
        (hbbmc, "edge_order_rank"),
        (hbbmc, "degeneracy_order"),
        (kernels, "enumerate_tplex"),
    ]
    calls = {name: 0 for _, name in sites}
    for mod, name in sites:
        def counted(*args, _fn=getattr(mod, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(mod, name, counted)
    g = load_local("OR", "test")
    for name in ("HBBMC++", "VBBMC-dgn"):
        assert run_named(g, name).stats.et_applied > 0
    assert all(calls.values()), calls
    assert dist_mce.to_local is edgelist_to_local
