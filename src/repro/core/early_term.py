"""Early termination: direct maximal-clique construction in t-plexes.

Section IV of the paper. Given a branch (S, g_C, g_X) where g_X is empty and
g_C is a t-plex (every vertex has at most t non-neighbors in g_C, itself
included; t <= 3), the inverse graph of g_C has maximum degree <= t - 1 <= 2,
so its connected components are isolated vertices, simple paths and simple
cycles. Maximal cliques of g_C are exactly:

    F  ∪  (one maximal independent set per path/cycle component of the
           inverse graph)

where F is the set of inverse-isolated (universal) vertices — combined by
cross product (lines 5-8 of Algorithm 8).

This module is pure combinatorics on an explicit non-adjacency structure; the
kernels (``repro.core.kernels``) are responsible for detecting the t-plex
condition and building ``nonadj``.
"""
from __future__ import annotations

from itertools import product
from typing import Iterator, Sequence


def path_mis(k: int) -> list[list[int]]:
    """All maximal independent sets of the path v_0 - v_1 - ... - v_{k-1},
    as sorted index lists (paper's Algorithm 6, Enum_from_Path).

    Every MIS starts at index 0 or 1, and consecutive chosen indices differ
    by 2 (skip the forbidden neighbor) or 3 (skip one free vertex, which is
    then blocked by both sides); the last chosen index must be >= k - 2.
    """
    if k <= 0:
        return [[]]
    if k == 1:
        return [[0]]
    out: list[list[int]] = []

    def rec(chosen: list[int]) -> None:
        i = chosen[-1]
        if i + 2 > k - 1:  # neither i+2 nor anything later exists -> maximal
            out.append(chosen.copy())
            return
        chosen.append(i + 2)
        rec(chosen)
        chosen.pop()
        if i + 3 <= k - 1:
            chosen.append(i + 3)
            rec(chosen)
            chosen.pop()

    rec([0])
    rec([1])
    return out


def cycle_mis(k: int) -> list[list[int]]:
    """All maximal independent sets of the cycle v_0 - ... - v_{k-1} - v_0,
    as sorted index lists (paper's Algorithm 7, Enum_from_Cycle).

    k in {3, 4} is hardcoded as in the paper; for k >= 5 the three cases
    each reduce to a path enumeration: v_0 chosen (v_1 and v_{k-1} are
    blocked; path v_2..v_{k-2}), v_1 chosen but not v_0 (path
    v_3..v_{k-1}), or neither, which forces v_2 and v_{k-1} (path
    v_4..v_{k-3}).
    """
    if k < 3:
        raise ValueError("a simple cycle has at least 3 vertices")
    if k == 3:
        return [[0], [1], [2]]
    if k == 4:
        return [[0, 2], [1, 3]]
    return (
        [[0] + [i + 2 for i in mis] for mis in path_mis(k - 3)]
        + [[1] + [i + 3 for i in mis] for mis in path_mis(k - 3)]
        + [[2] + [i + 4 for i in mis] + [k - 1] for mis in path_mis(k - 6)]
    )


def inverse_components(
    vertices: Sequence[int], nonadj: dict[int, list[int]]
) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """Decompose the inverse graph (``nonadj``: vertex -> non-neighbors in
    g_C, degree <= 2) into (isolated F, paths, cycles).

    Paths are returned endpoint-to-endpoint; cycles in traversal order.
    Raises ValueError if any inverse degree exceeds 2 (not a 3-plex).
    """
    F: list[int] = []
    paths: list[list[int]] = []
    cycles: list[list[int]] = []
    seen: set[int] = set()
    for v in vertices:
        if len(nonadj[v]) > 2:
            raise ValueError("inverse graph has a vertex of degree > 2: not a <=3-plex")
    for v in sorted(vertices):
        if v in seen:
            continue
        if not nonadj[v]:
            F.append(v)
            seen.add(v)
            continue
        if len(nonadj[v]) == 1:
            # Path endpoint: walk to the other end.
            comp = [v]
            seen.add(v)
            prev, cur = v, nonadj[v][0]
            while True:
                comp.append(cur)
                seen.add(cur)
                nxt = [w for w in nonadj[cur] if w != prev]
                if not nxt:
                    break
                prev, cur = cur, nxt[0]
            paths.append(comp)
    # Remaining unseen vertices with inverse degree 2 lie on cycles.
    for v in sorted(vertices):
        if v in seen:
            continue
        comp = [v]
        seen.add(v)
        prev, cur = v, min(nonadj[v])
        while cur != v:
            comp.append(cur)
            seen.add(cur)
            nxt = [w for w in nonadj[cur] if w != prev]
            prev, cur = cur, nxt[0]
        cycles.append(comp)
    return F, paths, cycles


def enumerate_tplex(
    vertices: Sequence[int], nonadj: dict[int, list[int]]
) -> Iterator[list[int]]:
    """Yield every maximal clique of a candidate graph whose inverse graph is
    ``nonadj`` (max degree <= 2), as sorted vertex lists. Algorithm 8.

    Output size is exactly prod(component choice counts), i.e. proportional
    to the number of maximal cliques — the paper's "nearly optimal" bound.
    """
    F, paths, cycles = inverse_components(vertices, nonadj)
    choice_lists: list[list[list[int]]] = []
    for p in paths:
        choice_lists.append([[p[i] for i in mis] for mis in path_mis(len(p))])
    for c in cycles:
        choice_lists.append([[c[i] for i in mis] for mis in cycle_mis(len(c))])
    if not choice_lists:
        yield sorted(F)
        return
    for combo in product(*choice_lists):
        clique = list(F)
        for part in combo:
            clique.extend(part)
        yield sorted(clique)
