"""Early termination: direct maximal-clique construction in t-plexes.

Section IV of the paper. Given a branch (S, g_C, g_X) where g_X is empty and
g_C is a t-plex (every vertex has at most t non-neighbors in g_C, itself
included; t <= 3), the inverse graph of g_C has maximum degree <= t - 1 <= 2,
so its connected components are isolated vertices, simple paths and simple
cycles. Maximal cliques of g_C are exactly:

    F  ∪  (one maximal independent set per path/cycle component of the
           inverse graph)

where F is the set of inverse-isolated (universal) vertices — combined by
cross product (lines 5-8 of Algorithm 8). The branch therefore has exactly
prod(len(table) for each component) maximal cliques.

Cost follows output: ``enumerate_tplex`` is the whole ET step. Its
``inverse_components`` reads the inverse graph off the ``C ∩ N(v)`` sets the
kernel already has, the MIS index tables of a path or cycle are built once
per length (``path_mis``/``cycle_mis`` are cached), and each clique tuple is
built once, with S merged in, and sorted once. The kernels
(``repro.core.kernels``) detect the t-plex condition and append the cliques
to their output in one batch.
"""
from __future__ import annotations

from functools import cache
from typing import Sequence

#: An MIS index table: every maximal independent set of a path or cycle of
#: some length, as sorted tuples of positions along it.
MisTable = tuple[tuple[int, ...], ...]


@cache
def path_mis(k: int) -> MisTable:
    """All maximal independent sets of the path v_0 - v_1 - ... - v_{k-1},
    as sorted index tuples (paper's Algorithm 6, Enum_from_Path).

    An MIS either holds v_0 (then v_1 is out and the rest is an MIS of the
    path v_2..v_{k-1}) or not (then v_1 must be in to block v_0, v_2 is out,
    and the rest is an MIS of the path v_3..v_{k-1}).
    """
    if k <= 0:
        return ((),)
    if k == 1:
        return ((0,),)
    return tuple((0, *(i + 2 for i in mis)) for mis in path_mis(k - 2)) + tuple(
        (1, *(i + 3 for i in mis)) for mis in path_mis(k - 3)
    )


@cache
def cycle_mis(k: int) -> MisTable:
    """All maximal independent sets of the cycle v_0 - ... - v_{k-1} - v_0,
    as sorted index tuples (paper's Algorithm 7, Enum_from_Cycle).

    k in {3, 4} is hardcoded as in the paper; for k >= 5 the three cases
    each reduce to a path enumeration: v_0 chosen (v_1 and v_{k-1} are
    blocked; path v_2..v_{k-2}), v_1 chosen but not v_0 (path
    v_3..v_{k-1}), or neither, which forces v_2 and v_{k-1} (path
    v_4..v_{k-3}).
    """
    if k < 3:
        raise ValueError("a simple cycle has at least 3 vertices")
    if k == 3:
        return ((0,), (1,), (2,))
    if k == 4:
        return ((0, 2), (1, 3))
    return (
        tuple((0, *(i + 2 for i in mis)) for mis in path_mis(k - 3))
        + tuple((1, *(i + 3 for i in mis)) for mis in path_mis(k - 3))
        + tuple((2, *(i + 4 for i in mis), k - 1) for mis in path_mis(k - 6))
    )


def inverse_components(
    C: set[int], nbr_in_c: dict[int, set[int]]
) -> tuple[list[int], list[tuple[list[int], MisTable]]]:
    """Decompose the inverse graph of the candidate graph on ``C``
    (``nbr_in_c``: v -> C ∩ N(v)) into the isolated vertices F and its
    path/cycle components, each as ``(vertices, table)``: the vertices in
    walk order (paths endpoint to endpoint) and the component's MIS index
    table. Raises ValueError if any inverse degree exceeds 2 (not a
    3-plex)."""
    top = len(C) - 1
    F: list[int] = []
    nonadj: dict[int, set[int]] = {}  # inverse neighbours, until walked
    for v in C:
        nb = nbr_in_c[v]
        if len(nb) == top:
            F.append(v)
        elif len(nb) < top - 2:
            raise ValueError("inverse graph has a vertex of degree > 2: not a <=3-plex")
        else:
            inv = C - nb
            inv.discard(v)
            nonadj[v] = inv
    comps: list[tuple[list[int], MisTable]] = []
    # Walk each path from one end, then each cycle from any vertex; a walk
    # pops the vertices it visits, so it goes on to the unvisited neighbour.
    for v in [v for v, inv in nonadj.items() if len(inv) == 1]:
        if v in nonadj:  # not the far end of a walked path
            comp = _walk(v, nonadj)
            comps.append((comp, path_mis(len(comp))))
    while nonadj:
        comp = _walk(next(iter(nonadj)), nonadj)
        comps.append((comp, cycle_mis(len(comp))))
    return F, comps


def _walk(v: int, nonadj: dict[int, set[int]]) -> list[int]:
    """The component of ``v`` in walk order, popped from ``nonadj``."""
    comp = [v]
    inv = nonadj.pop(v)
    while True:
        for w in inv:
            if w in nonadj:
                break
        else:
            return comp
        comp.append(w)
        inv = nonadj.pop(w)


def enumerate_tplex(
    S: Sequence[int], C: set[int], nbr_in_c: dict[int, set[int]]
) -> list[tuple[int, ...]]:
    """Every maximal clique ``S ∪ F ∪ (one MIS per component)`` of a t-plex
    branch with candidates ``C`` (``nbr_in_c``: v -> C ∩ N(v)) and an empty
    exclusion graph (Algorithm 8), as sorted tuples; ``F`` and the
    components come from ``inverse_components``. There are exactly
    prod(len(table)) of them, the paper's "nearly optimal" output bound;
    each is built and sorted once."""
    F, comps = inverse_components(C, nbr_in_c)
    cliques = [(*S, *F)]
    for verts, table in comps:
        choices = [tuple([verts[i] for i in mis]) for mis in table]
        cliques = [c + part for c in cliques for part in choices]
    return [tuple(sorted(c)) for c in cliques]
