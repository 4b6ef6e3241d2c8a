"""Vertex-oriented branch-and-bound kernels (VBBMC variants) and the
branch steps they share.

Every kernel enumerates the maximal cliques of a branch ``(S, C, X)``:

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
step they share exists once: ``_enter`` (call count, empty-C leaf, |C| = 1
fast path), ``_early_term`` (the t-plex ET step), ``_branch_on`` (branch on
w, then move w from C to X) and ``_pivot_branch`` (X-side pivot scan and the
branch loop over C \\ N(p)).

Dual adjacency (DESIGN.md §3): inside an edge-oriented branch, two
candidates may only be *jointly included* if their edge is ordered after the
edge that created the branch — that is what attributes each maximal clique
to exactly one root branch (the one of its rank-minimal edge). The branch's
*compat adjacency* ``self.cadj`` (v -> the vertices v may be jointly included
with) holds exactly those edges; ``repro.core.hbbmc`` sets it right before
the kernel call. When the kernel branches on ``w``, candidates G-adjacent to
``w`` but not compat with it ("ghosts") drop into X: they still block
maximality, but the clique containing both belongs to an earlier root
branch. Pivot selection and X-blocking always use plain G-adjacency (if a
surviving extension were entirely inside N_G(p), p would G-extend it, so it
can never be maximal — valid for pivots from C or X). With ``cadj`` unset
the two relations coincide and the kernels are the textbook algorithms.

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
from .stats import BranchStats

Kernel = Callable[[list[int], set[int], set[int]], None]


class Enumerator:
    """Holds the (reduced) graph, ET config and counters; the kernel methods
    recurse on branch triples. ``repro.core.hbbmc.run_roots`` makes one per
    call, so an instance serves the roots of one kind: a kernel is entered
    either right after ``_ebb`` has set ``cadj`` to the handing-over edge
    branch's compat adjacency, or by a vertex or global root, under which
    ``cadj`` is never set. So ``cadj`` needs no restoring when a kernel
    returns."""

    def __init__(self, adj: dict[int, set[int]], *, et_t: int = 0):
        self.adj = adj
        self.et_t = et_t
        self.stats = BranchStats()
        self.out: list[tuple[int, ...]] = []
        # Compat adjacency of the enclosing edge-oriented branch (None outside
        # one); set by repro.core.hbbmc._ebb before each hand-off to a kernel.
        self.cadj: dict[int, set[int]] | None = None

    # -- emission ---------------------------------------------------------
    def emit(self, clique: Iterable[int]) -> None:
        c = tuple(sorted(clique))
        if c:
            self.out.append(c)

    # -- helpers -----------------------------------------------------------
    def _enter(self, S: list[int], C: set[int], X: set[int]) -> bool:
        """Count the call and settle the branches every kernel handles the
        same way; True when the branch is done.

        Empty C: S is maximal iff X is empty. |C| == 1: the only candidate
        clique is S ∪ {v}, maximal iff no exclusion vertex is adjacent to v
        (every x in X is already adjacent to all of S); S alone can never be
        maximal (v extends it). Counter-wise this is a 1-plex branch."""
        st = self.stats
        st.calls += 1
        if not C:
            if not X:
                self.emit(S)
            return True
        if len(C) > 1:
            return False
        if self.et_t > 0:
            st.et_plex += 1
            if not X:
                st.et_applied += 1
        (v,) = C
        if not (X & self.adj[v]):
            self.emit(S + [v])
        return True

    def _ghost_free(self, C: set[int], nbr_in_c: dict[int, set[int]]) -> bool:
        """True iff every G-edge inside C is compat — then the branch's
        candidate edge set restricted to C equals G's."""
        cadj = self.cadj
        return cadj is None or all(nbr_in_c[v] <= cadj[v] for v in C)

    def _split_child(self, w: int, gz: set[int], Xn: set[int]) -> tuple[set[int], set[int]]:
        """Child (C, X) after branching on ``w``: ``gz`` = candidates
        G-adjacent to w, ``Xn`` = exclusion vertices G-adjacent to w. Ghost
        candidates (G-adjacent to w but not compat with it) drop into X."""
        cadj = self.cadj
        if cadj is None:
            return gz, Xn
        Cw = gz & cadj[w]
        if len(Cw) == len(gz):
            return Cw, Xn
        return Cw, Xn | (gz - Cw)

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
    def _branch_on(self, S: list[int], Cc: set[int], Xc: set[int], w: int, rec: Kernel) -> None:
        """Branch on ``w``, then move it from ``Cc`` to ``Xc`` (the BK
        'exclude after branching' step; both sets are updated in place)."""
        adj = self.adj
        Cw, Xw = self._split_child(w, Cc & adj[w], Xc & adj[w])
        rec(S + [w], Cw, Xw)
        Cc.discard(w)
        Xc.add(w)

    def _pivot_branch(
        self, S: list[int], C: set[int], X: set[int], best_p: int, best_cnt: int, rec: Kernel
    ) -> None:
        """Finish the pivot choice over X (``best_p``/``best_cnt``: the best
        pivot from C; ties go to the smaller vertex id), then branch on each
        vertex of C \\ N(p) in increasing order."""
        adj = self.adj
        for x in X:
            cnt = len(C & adj[x])
            if cnt > best_cnt or (cnt == best_cnt and x < best_p):
                best_cnt, best_p = cnt, x
        Cc, Xc = set(C), set(X)
        for w in sorted(C - adj[best_p]):
            self._branch_on(S, Cc, Xc, w, rec)

    # -- kernel: tomita (classic pivot) ------------------------------------
    def vbb_tomita(self, S: list[int], C: set[int], X: set[int]) -> None:
        if self._enter(S, C, X):
            return
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
        self._pivot_branch(S, C, X, best_p, best_cnt, self.vbb_tomita)

    # -- kernel: rcd (min-degree removal) ----------------------------------
    def vbb_rcd(self, S: list[int], C: set[int], X: set[int]) -> None:
        if self._enter(S, C, X):
            return
        adj = self.adj
        Cc, Xc = set(C), set(X)
        while Cc:
            nc = len(Cc)
            min_v, min_deg = -1, nc
            nbr_in_c: dict[int, set[int]] = {}
            for v in Cc:
                gz = Cc & adj[v]
                nbr_in_c[v] = gz
                if len(gz) < min_deg or (len(gz) == min_deg and v < min_v):
                    min_deg, min_v = len(gz), v
            if self.et_t > 0 and min_deg >= nc - self.et_t:
                if self._early_term(S, Cc, Xc, nbr_in_c):
                    return
            if min_deg == nc - 1 and self._ghost_free(Cc, nbr_in_c):
                # Cc is a ghost-free G-clique: this branch's single candidate
                # maximal clique (with a ghost pair, that pair belongs to an
                # earlier root branch and we must keep branching to split it).
                if not any(Cc <= adj[x] for x in Xc):
                    self.emit(S + list(Cc))
                return
            self._branch_on(S, Cc, Xc, min_v, self.vbb_rcd)
        # All candidates branched away: Xc (which now contains at least the
        # last v) extends S, so S is not maximal and nothing is emitted.

    # -- kernel: fac (adaptive cheap pivot) --------------------------------
    def vbb_fac(self, S: list[int], C: set[int], X: set[int]) -> None:
        if self._enter(S, C, X):
            return
        adj = self.adj
        if self.et_t > 0 and min(len(C & adj[v]) for v in C) >= len(C) - self.et_t:
            if self._early_term(S, C, X):
                return
        Cc, Xc = set(C), set(X)
        P = Cc - adj[min(Cc)]
        while P:
            u = min(P)
            self._branch_on(S, Cc, Xc, u, self.vbb_fac)
            P.discard(u)
            P2 = Cc - adj[u]
            if len(P2) < len(P):
                P = P2


KERNELS: dict[str, str] = {
    "tomita": "vbb_tomita",
    "rcd": "vbb_rcd",
    "fac": "vbb_fac",
}
