"""Counters collected during a branch-and-bound run.

These back the quantities reported in the paper's tables:

- ``calls``      — branch calls, one per branch that runs (vertex-oriented
                   kernel calls plus edge-oriented sweeps), the "#Calls"
                   columns of Tables IV and V. An edge branch handed to
                   the vertex kernel is one call, the kernel's; a branch
                   with |C| <= 1, settled by ``Enumerator._leaf`` without
                   a kernel frame, is still one; a branch pruned at
                   creation is none.
- ``et_plex``    — branches whose candidate graph is a t-plex (the ``b`` of
                   Table V's Ratio column).
- ``et_applied`` — branches early-terminated (t-plex *and* empty exclusion
                   graph, the ``b0`` of Table V).
- ``cliques``    — maximal cliques the root branches emit, GR's blocked
                   pairs dropped; counted by ``repro.core.hbbmc.run_roots``.
- ``root_branches`` — branches created at the initial branch (m edge branches
                   for HBBMC/EBBMC, n vertex branches for VBBMC).
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, fields


@dataclass
class BranchStats:
    calls: int = 0
    et_plex: int = 0
    et_applied: int = 0
    cliques: int = 0
    root_branches: int = 0
    gr_cliques: int = 0  # cliques emitted directly by graph reduction

    def ratio(self) -> float:
        """Table V's Ratio = b0 / b (0 when no t-plex branch was seen)."""
        return self.et_applied / self.et_plex if self.et_plex else 0.0

    def merge(self, other: "BranchStats") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def as_dict(self) -> dict[str, int]:
        return asdict(self)
