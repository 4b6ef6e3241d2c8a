"""The search of one run's root branches: the edge-oriented levels of
EBBMC/HBBMC (Eq. 2/3) and the vertex-oriented branch-and-bound kernels
(VBBMC variants), with the branch steps they share.

Every branch is a triple ``(S, C, X)``:

- ``S``: the partial clique (list of vertices),
- ``C``: candidate vertices, each G-adjacent to all of S,
- ``X``: exclusion vertices, each G-adjacent to all of S but banned from the
  branch's cliques (they make a super-clique, so they block maximality).

Kernels:

- ``tomita``: classic max-|N(p) ∩ C| pivot over C ∪ X (BK_Pivot [8] /
  BK_Degen [9] inner loop) — the kernel of RRef, RDegen and HBBMC++.
  Naudé's refined pivot selection [12] is not reproduced (DESIGN.md §4).
- ``rcd``: BK_Rcd [11] — repeatedly branch on the minimum-degree candidate
  until the remaining candidate graph is a clique, then emit it wholesale.
- ``fac``: BK_Fac [18] — arbitrary initial pivot, re-pivot only when the new
  branching vertex yields a smaller extension set.

The kernels differ only in how they choose branching vertices. Each branch
step they share exists once: ``_leaf`` (the one rule for a branch with
|C| <= 1), ``_early_term`` (the t-plex ET step) and ``_branch`` (the child
step: for each branching vertex w, build the child's C and X, drop ghosts
into X, run the child in the kernel if |C| >= 2 and in ``_leaf`` otherwise,
then move w from C to X). tomita hands ``_branch`` all of C \\ N(p) at
once, rcd and fac one vertex at a time. BK_Degen's top level [9] is the
plain BK step on (∅, V, ∅) in degeneracy order, so the vertex roots are
``_branch`` calls on the initial branch too. A kernel call owns the C and X
it is given: every caller builds both fresh and never reads them again, so
a kernel updates them in place.

Edge-oriented branching (Algorithms 2–4 of the paper) keeps Eq.(2)'s
shrinking edge sets the way EBBkC [19] does. Every edge-oriented branch
carries its *compat adjacency*: its candidate edges, exactly the edges
ordered after the edge that created it (the lazy invariant of DESIGN.md §3).
Two candidates may be jointly included only over a compat edge, which
attributes each maximal clique to exactly one root branch, the one of its
rank-minimal edge. ``_sweep`` walks a branch's compat edges among C in rank
order and deletes each once its child is built; after e = (a, b) the map
``live`` holds exactly the edges ordered after e, and e's child is

    C' = live[a] ∩ live[b]
    X' = ((C ∪ X) ∩ N(a) ∩ N(b)) \\ C'

with ``live`` as its compat adjacency — every common G-neighbor of S' lands
in C' or X', so maximality checks stay exact. The initial branch is (∅, V,
∅) with G as its compat adjacency, so the edge roots are the first sweep.
Zero-degree candidates (no compat edge to another candidate) are the Eq.(3)
branches: ``S ∪ {v}`` is emitted iff no other common neighbor is G-adjacent
to v.

Dual adjacency: ``_edge_branch`` hands over to the kernel with ``self.cadj``
set to its compat adjacency. When the kernel branches on ``w``, candidates
G-adjacent to ``w`` but not compat with it ("ghosts") drop into X: they
still block maximality, but the clique containing both belongs to an
earlier root branch. Pivot selection and X-blocking always use plain
G-adjacency (if a surviving extension were entirely inside N_G(p), p would
G-extend it, so it can never be maximal — valid for pivots from C or X).
With ``cadj`` unset (vertex and global roots) the two relations coincide and
the kernels are the textbook algorithms.

The early-termination check exploits that the branch candidate graph's edge
set is the compat edges among C: a t-plex under it requires a t-plex under G
restricted to C (necessary, cheap, uses the degree scan the pivot needs
anyway) plus ghost-freedom of C (verified by a subset test per candidate
only in the rare branches that pass the degree test).

ET emission costs what it outputs (``repro.core.early_term``): one
``enumerate_tplex`` call decomposes the branch's inverse graph and returns
its cliques as sorted tuples, S included, which are appended to ``out`` in
one batch.
"""
from __future__ import annotations

from typing import Callable, Iterable

from .early_term import enumerate_tplex
from .ordering import Pair
from .stats import BranchStats


class Enumerator:
    """The search state of one set of root branches: the (reduced) graph,
    the configuration, the counters and the emitted cliques. ``roots`` runs
    a plan's root branches. An instance serves roots of one kind, so
    ``cadj`` (set before each hand-off from an edge level, never under a
    vertex or global root) needs no restoring when a kernel returns. Nothing
    on it points back to it, so reference counting frees it, and its copy of
    the graph, as soon as its caller drops it."""

    def __init__(
        self, adj: dict[int, set[int]], *, kernel: str = "tomita", et_t: int = 0, d: int = 1
    ):
        self.adj = adj
        self.et_t = et_t
        self.d = d
        self._vbb = KERNELS[kernel]  # unbound: a bound method would be a reference cycle
        self.stats = BranchStats()
        self.out: list[tuple[int, ...]] = []
        self.cadj: dict[int, set[int]] | None = None
        # Edge -> position in the root order, read by edge levels below d.
        self.rank: dict[Pair, int] | None = None

    # -- emission ---------------------------------------------------------
    def emit(self, clique: Iterable[int]) -> None:
        self.out.append(tuple(sorted(clique)))

    # -- root branches and edge levels --------------------------------------
    def roots(
        self, order: list[Pair] | list[int] | None, wanted: Iterable[int], *, vertices: bool = False
    ) -> None:
        """Run the root branches ``wanted`` (positions in ``order``) of the
        initial branch (∅, V, ∅): the one global root if ``order`` is None,
        else one root per vertex (``vertices``) or per edge of ``order``;
        edge roots need ``adj`` to hold no isolated vertex, as GR's core
        does. The order is swept up to the largest wanted id, moving each
        root out of the initial branch once it is passed: a vertex from C
        to X (BK_Degen's top level), an edge out of the compat copy
        ``rem``, which at edge root i holds exactly the edges after i."""
        adj = self.adj
        wanted = set(wanted)
        if order is None:
            if wanted:
                self._vbb(self, [], set(adj), set())
            return
        swept = order[: max(wanted, default=-1) + 1]
        if vertices:
            C, X = set(adj), set()
            for i, v in enumerate(swept):
                if i in wanted:
                    self._branch([], C, X, (v,))
                else:
                    C.discard(v)
                    X.add(v)
            return
        if self.d > 1:
            self.rank = {e: i for i, e in enumerate(order)}
        # The initial branch's Eq.(2) sweep, with rem as its compat
        # adjacency; no vertex is isolated, so it has no Eq.(3) branch.
        rem = {v: set(nbrs) for v, nbrs in adj.items()}
        self._sweep([], None, rem, swept, 0, wanted)

    def _sweep(
        self, S: list[int], CX: set[int] | None, live: dict[int, set[int]], edges: Iterable[Pair],
        depth: int, wanted: set[int] | None = None,
    ) -> None:
        """Eq.(2) on the edge-oriented branch (S, C, X) at ``depth``, with
        ``CX`` = C ∪ X and ``live`` its compat adjacency among C: build the
        child of each of ``edges``, its compat edges among C in rank order.
        At depth 0, the initial branch, C ∪ X is V (so ``CX`` is not read)
        and only the children at the positions ``wanted`` are built."""
        adj = self.adj
        for i, (a, b) in enumerate(edges):
            live_a, live_b = live[a], live[b]
            live_a.discard(b)
            live_b.discard(a)
            if depth or i in wanted:
                C2 = live_a & live_b
                ab = adj[a] & adj[b]
                self._edge_branch(S + [a, b], C2, (ab & CX if depth else ab) - C2, live, depth + 1)

    def _edge_branch(
        self, S: list[int], C: set[int], X: set[int], cadj: dict[int, set[int]], depth: int
    ) -> None:
        """Edge-oriented branch (S, C, X) with compat adjacency ``cadj``
        (Eq. 2 + Eq. 3), just built by its parent's sweep at ``depth``;
        hands over to the kernel once ``depth`` reaches ``d``."""
        adj = self.adj
        # Prune dead branches at creation, without a call (the paper's call
        # counts on large graphs — fewer calls than edges — imply the same): an
        # empty candidate set emits at most S, and an exclusion vertex adjacent
        # to every candidate blocks every clique of the branch. A live branch is
        # one call, counted where it runs: by the kernel (or the _leaf it
        # settles the branch by) after a hand-off, here when this level
        # sweeps it.
        if not C:
            if not X:
                self.emit(S)
            return
        if any(C <= adj[x] for x in X):
            return
        if depth >= self.d:
            self.cadj = cadj
            self._vbb(self, S, C, X)
            return
        self.stats.calls += 1
        live = {u: C & cadj[u] for u in C}
        # Eq.(3): candidates with no compat edge — their only clique in this
        # branch is S ∪ {v}, maximal iff nothing else common-adjacent touches v.
        isolated = [v for v in sorted(C) if not live[v]]
        CX = C | X
        edges = sorted(((u, v) for u in C for v in live[u] if u < v), key=self.rank.__getitem__)
        self._sweep(S, CX, live, edges, depth)
        for v in isolated:
            if adj[v].isdisjoint(CX):
                self.emit(S + [v])

    # -- helpers -----------------------------------------------------------
    def _leaf(self, S: list[int], C: set[int], X: set[int]) -> None:
        """The one leaf rule: settle a branch with |C| <= 1 in one call, the
        same way under every kernel and wherever the branch was built.

        Empty C: S is maximal iff X is empty (S is empty only at the global
        root of an empty core, which emits nothing). C = {v}: the only
        candidate clique is S ∪ {v}, maximal iff no exclusion vertex is
        adjacent to v (every x in X is already adjacent to all of S); S
        alone can never be maximal (v extends it). Counter-wise this is a
        1-plex branch. The clique is appended sorted, as ``emit`` would,
        without the call."""
        st = self.stats
        st.calls += 1
        if not C:
            if not X and S:
                self.out.append(tuple(sorted(S)))
            return
        if self.et_t > 0:
            st.et_plex += 1
            if not X:
                st.et_applied += 1
        (v,) = C
        if X.isdisjoint(self.adj[v]):
            self.out.append(tuple(sorted(S + [v])))

    def _ghost_free(self, C: set[int], nbr_in_c: dict[int, set[int]]) -> bool:
        """True iff every G-edge inside C is compat — then the branch's
        candidate edge set restricted to C equals G's."""
        cadj = self.cadj
        return cadj is None or all(nbr_in_c[v] <= cadj[v] for v in C)

    # -- early termination -------------------------------------------------
    def _early_term(
        self, S: list[int], C: set[int], X: set[int], nbr_in_c: dict[int, set[int]] | None = None
    ) -> bool:
        """Early termination (Section IV) of a branch whose candidate graph
        passed the caller's G-degree t-plex test (counted towards Table V's
        b). ET applies only when the exclusion graph is empty and C is
        ghost-free; it then enumerates the branch's maximal cliques directly
        from the inverse graph and returns True. ``nbr_in_c`` (v -> C ∩ N(v))
        is built here unless the caller has it, so ET adds no per-call cost
        on ordinary branches."""
        st = self.stats
        st.et_plex += 1
        if X:
            return False
        if nbr_in_c is None:
            nbr_in_c = {v: C & self.adj[v] for v in C}
        if not self._ghost_free(C, nbr_in_c):
            return False
        st.et_applied += 1
        self.out.extend(enumerate_tplex(S, C, nbr_in_c))
        return True

    # -- branching ---------------------------------------------------------
    def _branch(self, S: list[int], Cc: set[int], Xc: set[int], ws: Iterable[int]) -> None:
        """Branch on each vertex w of ``ws`` in turn, then move w from ``Cc``
        to ``Xc`` (the BK 'exclude after branching' step; both sets are
        updated in place). The child's C and X are the members of Cc and Xc
        G-adjacent to w, except that ghost candidates (G-adjacent to w but
        not compat with it) drop into X. A child with |C| >= 2 runs in the
        kernel, which owns the two fresh sets; a smaller one in ``_leaf``."""
        adj = self.adj
        cadj = self.cadj
        for w in ws:
            nbrs = adj[w]
            Cw = Cc & nbrs
            Xw = Xc & nbrs
            if cadj is not None:
                compat = Cw & cadj[w]
                if len(compat) < len(Cw):
                    Xw |= Cw - compat
                Cw = compat
            if len(Cw) > 1:
                self._vbb(self, S + [w], Cw, Xw)
            else:
                self._leaf(S + [w], Cw, Xw)
            Cc.discard(w)
            Xc.add(w)

    # -- kernel: tomita (classic pivot) ------------------------------------
    def vbb_tomita(self, S: list[int], C: set[int], X: set[int]) -> None:
        if len(C) < 2:
            return self._leaf(S, C, X)
        self.stats.calls += 1
        adj = self.adj
        best_p, best_cnt = -1, -1
        min_deg = len(C)
        for v in C:
            cnt = len(C & adj[v])
            if cnt > best_cnt or (cnt == best_cnt and v < best_p):
                best_cnt, best_p = cnt, v
            if cnt < min_deg:
                min_deg = cnt
        if self.et_t > 0 and min_deg >= len(C) - self.et_t and self._early_term(S, C, X):
            return
        # The pivot may also come from X (ties go to the smaller vertex id);
        # branch on each vertex of C \ N(p) in increasing order.
        for x in X:
            cnt = len(C & adj[x])
            if cnt > best_cnt or (cnt == best_cnt and x < best_p):
                best_cnt, best_p = cnt, x
        self._branch(S, C, X, sorted(C - adj[best_p]))

    # -- kernel: rcd (min-degree removal) ----------------------------------
    def vbb_rcd(self, S: list[int], C: set[int], X: set[int]) -> None:
        if len(C) < 2:
            return self._leaf(S, C, X)
        self.stats.calls += 1
        adj = self.adj
        while C:
            nc = len(C)
            min_v, min_deg = -1, nc
            nbr_in_c: dict[int, set[int]] = {}
            for v in C:
                gz = C & adj[v]
                nbr_in_c[v] = gz
                if len(gz) < min_deg or (len(gz) == min_deg and v < min_v):
                    min_deg, min_v = len(gz), v
            if self.et_t > 0 and min_deg >= nc - self.et_t:
                if self._early_term(S, C, X, nbr_in_c):
                    return
            if min_deg == nc - 1 and self._ghost_free(C, nbr_in_c):
                # C is a ghost-free G-clique: this branch's single candidate
                # maximal clique (with a ghost pair, that pair belongs to an
                # earlier root branch and we must keep branching to split it).
                if not any(C <= adj[x] for x in X):
                    self.emit(S + list(C))
                return
            self._branch(S, C, X, (min_v,))
        # All candidates branched away: X (which now contains at least the
        # last v) extends S, so S is not maximal and nothing is emitted.

    # -- kernel: fac (adaptive cheap pivot) --------------------------------
    def vbb_fac(self, S: list[int], C: set[int], X: set[int]) -> None:
        if len(C) < 2:
            return self._leaf(S, C, X)
        self.stats.calls += 1
        adj = self.adj
        if self.et_t > 0 and min(len(C & adj[v]) for v in C) >= len(C) - self.et_t:
            if self._early_term(S, C, X):
                return
        P = C - adj[min(C)]
        while P:
            u = min(P)
            self._branch(S, C, X, (u,))
            P.discard(u)
            P2 = C - adj[u]
            if len(P2) < len(P):
                P = P2


#: The vertex-oriented kernels by name, as unbound methods.
KERNELS: dict[str, Callable[..., None]] = {
    "tomita": Enumerator.vbb_tomita,
    "rcd": Enumerator.vbb_rcd,
    "fac": Enumerator.vbb_fac,
}
