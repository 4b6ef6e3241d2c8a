"""Benchmark inputs, generated from the workload seed with the program's
``social`` generator. The program only ever sees the resulting edge arrays
(or DataFrames built from them).

Shapes follow the repo's Table-I surrogates (``repro.graphs.datasets``):
the OR- and DG-shaped inputs keep those surrogates' cave shape (2-plex
communities of 26 / 24 vertices with 2^12 / 2^11 maximal cliques each),
dense ER core and, for DG, the triangle-poor bipartite core, but with fewer
vertices and caves than the bench scale. A bench-scale job takes 1-3 s in
process and about 5 s through Spark, which would leave a run of a few dozen
seconds with too few jobs for a tail percentile. The two shapes are sized
so that one HBBMC++ job on either takes about the same time, so the per-job
percentiles describe one population rather than two.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ALGORITHMS = ("HBBMC++", "RDegen")
#: Metric prefix of each algorithm.
PREFIX = {"HBBMC++": "hbbmc", "RDegen": "rdegen"}

OR_SHAPE = dict(n=500, m_attach=8, caves=(6, 26, 12), core=(100, 0.3))
DG_SHAPE = dict(n=600, m_attach=5, caves=(7, 24, 11), core=(120, 0.3), bicore=(70, 70, 0.5))
#: Long-tail sparse input: a tree-like part (m_attach=1) carrying one dense
#: core, beside a sparse part with m_attach=2, each with small 2-plex caves.
#: GR peels about 95% of the vertices and emits about 70% of the cliques.
TAIL_PARTS = (
    dict(n=5_000, m_attach=1, caves=(10, 20, 8), core=(40, 0.3)),
    dict(n=5_000, m_attach=2, caves=(10, 20, 8)),
)


@dataclass(frozen=True)
class Input:
    name: str
    edges: np.ndarray

    @property
    def n(self) -> int:
        return int(np.unique(self.edges).size)

    @property
    def m(self) -> int:
        return int(len(self.edges))


def _social(seed: int, params: dict) -> np.ndarray:
    from repro.graphs.generators import social_edges

    return social_edges(seed=seed, **params)


def _disjoint_union(parts: list[np.ndarray]) -> np.ndarray:
    out, offset = [], 0
    for e in parts:
        out.append(e + offset)
        offset += int(e.max()) + 1
    return np.concatenate(out)


def or_input(seed: int) -> Input:
    return Input("or", _social(1000 * seed + 25, OR_SHAPE))


def dg_input(seed: int) -> Input:
    return Input("dg", _social(1000 * seed + 19, DG_SHAPE))


def tail_input(seed: int) -> Input:
    parts = [_social(1000 * seed + i, p) for i, p in enumerate(TAIL_PARTS, start=1)]
    return Input("tail", _disjoint_union(parts))


@dataclass(frozen=True)
class Workload:
    name: str
    spark: bool
    makers: tuple  # one input factory per input, each taking the seed

    def inputs(self, seed: int) -> list[Input]:
        return [make(seed) for make in self.makers]


#: Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("dense-local", False, (or_input, dg_input)),
        Workload("sparse-local", False, (tail_input,)),
        Workload("dense-spark", True, (or_input,)),
    )
}
