"""The distributed root-branch-partitioned MCE job emits exactly the local
runner's clique set and counters, for every named algorithm."""
import numpy as np
import pytest

from repro.core.hbbmc import ALGORITHMS, run_named
from repro.dist.mce import mce_distributed
from repro.graphs.datasets import load_edges, load_local
from repro.graphs.edgelist import edges_df
from repro.graphs.generators import er_edges, social_edges, to_local
from repro.reference import reference_mce


def _dist_cliques(res):
    return sorted(
        tuple(int(x) for x in r.clique.split(","))
        for r in res.cliques_df.collect()
    )


@pytest.fixture(scope="module")
def social_pair(spark):
    e = social_edges(60, 3, 1, caves=(3, 9, 4), core=(20, 0.4))
    return edges_df(spark, e).cache(), to_local(e)


@pytest.mark.parametrize("alg", sorted(ALGORITHMS))
def test_distributed_matches_local(spark, social_pair, alg):
    edf, g = social_pair
    res = mce_distributed(spark, edf, alg, num_partitions=4)
    local = run_named(g, alg)
    assert _dist_cliques(res) == local.cliques
    assert res.stats.as_dict() == local.stats.as_dict()


#: Degenerate inputs as edge arrays. GR consumes every one of them but the
#: last, which puts vertex ids near 10**12 through the search.
DEGENERATE = {
    "empty": np.zeros((0, 2), dtype=np.int64),
    "single_edge": np.array([(0, 1)]),
    "path_consumed_by_gr": np.array([(0, 1), (1, 2), (2, 3), (3, 4)]),
    "triangle_and_far_edge": np.array([(0, 1), (1, 2), (0, 2), (10, 11)]),
    "huge_ids": social_edges(30, 3, 2, caves=(2, 6, 2)) + 10**12,
}


@pytest.mark.parametrize("name", list(DEGENERATE))
def test_distributed_degenerate_inputs_match_local(spark, name):
    e = DEGENERATE[name]
    edf = edges_df(spark, e).cache()
    g = to_local(e)
    for alg in sorted(ALGORITHMS):
        res = mce_distributed(spark, edf, alg, num_partitions=2)
        local = run_named(g, alg)
        assert local.cliques == reference_mce(g), alg
        assert _dist_cliques(res) == local.cliques, alg
        assert res.stats.as_dict() == local.stats.as_dict(), alg
        assert res.n_cliques == local.n_cliques, alg


@pytest.mark.parametrize("path", ["local", "spark"])
def test_unknown_config_key_rejected(spark, social_pair, path):
    edf, g = social_pair
    with pytest.raises(ValueError, match="unknown config keys"):
        if path == "local":
            run_named(g, "HBBMC++", bogus_key=1)
        else:
            mce_distributed(spark, edf, "HBBMC++", bogus_key=1)


def test_distributed_depth_two(spark, social_pair):
    edf, g = social_pair
    res = mce_distributed(spark, edf, "HBBMC++", d=2, num_partitions=3)
    assert _dist_cliques(res) == reference_mce(g)


def test_distributed_counts_and_stats(spark, social_pair):
    edf, g = social_pair
    res = mce_distributed(spark, edf, "HBBMC++")
    assert res.n_cliques == len(reference_mce(g))
    assert res.stats.root_branches > 0
    assert res.stats.calls > 0


def test_distributed_dataset_surrogate(spark):
    edf = edges_df(spark, load_edges("DB", "test"))
    g = load_local("DB", "test")
    res = mce_distributed(spark, edf, "HBBMC++", num_partitions=8)
    assert _dist_cliques(res) == reference_mce(g)


def test_distributed_partition_count_invariance(spark):
    e = er_edges(40, 160, seed=9)
    edf = edges_df(spark, e)
    a = mce_distributed(spark, edf, "HBBMC++", num_partitions=2)
    b = mce_distributed(spark, edf, "HBBMC++", num_partitions=16)
    assert _dist_cliques(a) == _dist_cliques(b)
    assert a.stats.calls == b.stats.calls
