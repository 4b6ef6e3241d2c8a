"""Unit tests for the BranchStats counters."""
from repro.core.stats import BranchStats


def test_ratio_empty():
    assert BranchStats().ratio() == 0.0


def test_ratio():
    st = BranchStats(et_plex=10, et_applied=4)
    assert st.ratio() == 0.4


def test_merge():
    a = BranchStats(calls=5, et_plex=2, et_applied=1, cliques=3, root_branches=7, gr_cliques=1)
    b = BranchStats(calls=1, et_plex=1, et_applied=1, cliques=2, root_branches=3, gr_cliques=4)
    a.merge(b)
    assert (a.calls, a.et_plex, a.et_applied, a.cliques, a.root_branches, a.gr_cliques) == (
        6, 3, 2, 5, 10, 5
    )
