"""Surrogate datasets mirroring the paper's Table I (DESIGN.md §4).

The paper evaluates on 16 real graphs (55K–3M vertices) from
networkrepository.com; this container is offline, so each is replaced by a
deterministic synthetic surrogate, ~100–1000x smaller, built from the
composite ``social`` model (scale-free background + 2-plex communities +
one dense ER core) or its special cases. The surrogates are *shaped* per the
paper's per-graph statistics — relative size, density ρ, δ ≫ τ gap, and
clique-richness (dense mesh-like graphs such as NA/DE have few cliques; the
heavyweights DG/OR carry most of the enumeration work) — not fitted to
absolute values.

Two scales:

- ``"bench"``: used by the table harnesses and benchmarks;
- ``"test"``: ~10x smaller, used by unit/integration tests.

``PAPER_STATS`` records the paper's Table I row for side-by-side reporting.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import log

import numpy as np

from ..core.localgraph import LocalGraph
from ..core.ordering import degeneracy_order, truss_peel
from .generators import social_edges, to_local


@dataclass(frozen=True)
class Surrogate:
    name: str  # paper's short name (Table I)
    full_name: str  # paper's graph name
    category: str
    bench: dict  # social_edges params at bench scale
    test: dict  # social_edges params at test scale


#: Paper Table I: |V|, |E|, delta, tau, rho for each real graph.
PAPER_STATS: dict[str, dict] = {
    "NA": dict(n=54_870, m=1_311_227, delta=35, tau=22, rho=23.9),
    "FB": dict(n=63_731, m=817_090, delta=52, tau=35, rho=12.8),
    "WE": dict(n=121_422, m=334_419, delta=81, tau=80, rho=2.8),
    "WK": dict(n=138_587, m=715_883, delta=64, tau=31, rho=5.2),
    "SH": dict(n=179_104, m=2_200_076, delta=29, tau=22, rho=12.3),
    "ST": dict(n=281_904, m=1_992_636, delta=86, tau=61, rho=7.1),
    "DB": dict(n=317_080, m=1_049_866, delta=113, tau=112, rho=3.3),
    "DE": dict(n=420_408, m=16_232_900, delta=56, tau=43, rho=38.6),
    "DG": dict(n=770_799, m=5_907_132, delta=236, tau=72, rho=7.7),
    "YO": dict(n=1_134_890, m=2_987_624, delta=49, tau=18, rho=2.6),
    "PO": dict(n=1_632_803, m=22_301_964, delta=47, tau=27, rho=13.7),
    "SK": dict(n=1_696_415, m=11_095_298, delta=111, tau=67, rho=6.5),
    "CN": dict(n=1_930_270, m=8_956_902, delta=127, tau=31, rho=4.6),
    "BA": dict(n=2_140_198, m=17_014_946, delta=82, tau=29, rho=8.0),
    "OR": dict(n=2_997_166, m=106_349_209, delta=253, tau=74, rho=35.5),
    "SO": dict(n=3_097_165, m=23_667_394, delta=74, tau=29, rho=7.6),
}


#: The 16 surrogates, in Table I order. Clique-poor mesh-like graphs (NA,
#: SH, DE) keep near-complete caves (tiny rm, few maximal cliques, low ET
#: ratio, as in the paper); clique-rich social/web graphs carry 2-plex caves
#: with 2^rm maximal cliques each; the heavyweights DG and OR dominate total
#: runtime as in Table II.
SURROGATES: dict[str, Surrogate] = {
    s.name: s
    for s in [
        Surrogate("NA", "nasasrb", "Social Network",
                  dict(n=600, m_attach=4, seed=11, caves=(40, 14, 3), core=(110, 0.28)),
                  dict(n=120, m_attach=3, seed=11, caves=(8, 10, 2), core=(40, 0.3))),
        Surrogate("FB", "fbwosn", "Social Network",
                  dict(n=1000, m_attach=4, seed=12, caves=(25, 20, 9), core=(120, 0.28)),
                  dict(n=160, m_attach=4, seed=12, caves=(4, 12, 4), core=(45, 0.3))),
        Surrogate("WE", "websk", "Web Graph",
                  dict(n=700, m_attach=3, seed=13, p_triad=0.85, caves=(14, 18, 8)),
                  dict(n=140, m_attach=3, seed=13, p_triad=0.85, caves=(3, 10, 3))),
        Surrogate("WK", "wikitrust", "Web Graph",
                  dict(n=900, m_attach=4, seed=14, p_triad=0.5, caves=(22, 18, 8), core=(100, 0.3)),
                  dict(n=150, m_attach=3, seed=14, p_triad=0.5, caves=(3, 10, 3), core=(40, 0.3))),
        Surrogate("SH", "shipsec5", "Social Network",
                  dict(n=800, m_attach=3, seed=15, caves=(40, 16, 6), core=(90, 0.3)),
                  dict(n=150, m_attach=3, seed=15, caves=(8, 9, 2), core=(35, 0.32))),
        Surrogate("ST", "stanford", "Social Network",
                  dict(n=1100, m_attach=4, seed=16, p_triad=0.4, caves=(25, 20, 8), core=(120, 0.3)),
                  dict(n=170, m_attach=3, seed=16, p_triad=0.4, caves=(4, 11, 4), core=(45, 0.3))),
        Surrogate("DB", "dblp", "Collaboration",
                  dict(n=900, m_attach=3, seed=17, caves=(50, 14, 6)),
                  dict(n=170, m_attach=3, seed=17, caves=(10, 7, 2))),
        Surrogate("DE", "dielfilter", "Other",
                  dict(n=700, m_attach=6, seed=18, caves=(60, 16, 2), core=(140, 0.33)),
                  dict(n=130, m_attach=4, seed=18, caves=(9, 11, 1), core=(45, 0.35))),
        Surrogate("DG", "digg", "Social Network",
                  dict(n=1600, m_attach=5, seed=19, caves=(40, 24, 11), core=(150, 0.3),
                       bicore=(110, 110, 0.5)),
                  dict(n=180, m_attach=4, seed=19, caves=(5, 14, 6), core=(50, 0.3))),
        Surrogate("YO", "youtube", "Social Network",
                  dict(n=2000, m_attach=3, seed=20, caves=(30, 16, 7)),
                  dict(n=220, m_attach=3, seed=20, caves=(5, 10, 3))),
        Surrogate("PO", "pokec", "Social Network",
                  dict(n=1500, m_attach=5, seed=21, caves=(28, 20, 9), core=(130, 0.28)),
                  dict(n=200, m_attach=4, seed=21, caves=(4, 12, 4), core=(45, 0.3))),
        Surrogate("SK", "skitter", "Web Graph",
                  dict(n=1400, m_attach=4, seed=22, p_triad=0.4, caves=(30, 20, 9), core=(140, 0.28)),
                  dict(n=190, m_attach=4, seed=22, p_triad=0.4, caves=(4, 12, 4), core=(45, 0.3))),
        Surrogate("CN", "wikicn", "Web Graph",
                  dict(n=1300, m_attach=4, seed=23, p_triad=0.3, caves=(30, 20, 9), core=(150, 0.3),
                       bicore=(90, 90, 0.45)),
                  dict(n=190, m_attach=4, seed=23, p_triad=0.3, caves=(4, 12, 5), core=(50, 0.3))),
        Surrogate("BA", "baidu", "Web Graph",
                  dict(n=1400, m_attach=5, seed=24, p_triad=0.3, caves=(25, 18, 8), core=(130, 0.28)),
                  dict(n=190, m_attach=4, seed=24, p_triad=0.3, caves=(4, 11, 4), core=(45, 0.3))),
        Surrogate("OR", "orkut", "Social Network",
                  dict(n=1500, m_attach=8, seed=25, caves=(50, 26, 12), core=(170, 0.3)),
                  dict(n=170, m_attach=5, seed=25, caves=(5, 14, 6), core=(55, 0.3))),
        Surrogate("SO", "socfba", "Social Network",
                  dict(n=1500, m_attach=4, seed=26, caves=(28, 18, 8), core=(120, 0.28)),
                  dict(n=200, m_attach=4, seed=26, caves=(4, 11, 4), core=(45, 0.3))),
    ]
}

DATASET_NAMES: list[str] = list(SURROGATES)


def load_edges(name: str, scale: str = "bench") -> np.ndarray:
    """Edge array for a surrogate at the given scale ('bench' or 'test')."""
    s = SURROGATES[name]
    return social_edges(**(s.bench if scale == "bench" else s.test))


def load_local(name: str, scale: str = "bench") -> LocalGraph:
    """LocalGraph for a surrogate. The composite model leaves no vertex
    isolated (the background is connected), so the edge list carries all
    vertices."""
    return to_local(load_edges(name, scale))


def condition_holds(delta: int, tau: int, rho: float) -> bool:
    """The paper's Remarks condition: delta >= max(3, tau + 3 ln(rho)/ln 3),
    under which HBBMC's complexity beats the best VBBMC bound."""
    if rho <= 0:
        return delta >= 3
    return delta >= max(3.0, tau + 3.0 * log(rho) / log(3.0))


def compute_stats(g: LocalGraph) -> dict:
    """Measured Table I row for a graph: n, m, delta, tau, rho, condition."""
    delta = degeneracy_order(g).delta
    tau = truss_peel(g)[1]
    rho = g.density()
    return dict(
        n=g.n,
        m=g.m,
        delta=delta,
        tau=tau,
        rho=round(rho, 1),
        condition=condition_holds(delta, tau, rho),
    )
