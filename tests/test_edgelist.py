"""Spark edge-list utilities."""
import numpy as np
import pandas as pd
import pytest

from repro.core.hbbmc import run_named
from repro.dist.mce import mce_distributed
from repro.graphs.edgelist import edges_df, to_local
from repro.graphs.generators import social_edges
from tests.oracles import er_edges

#: Rows in either orientation, repeated, and a self-loop.
RAW = [(1, 2), (2, 1), (2, 2), (3, 4)]


def _noisy(e: np.ndarray) -> np.ndarray:
    """``e`` with every edge also reversed, its first edges repeated, and a
    self-loop on each of its first vertices."""
    loops = np.repeat(e[:10, :1], 2, axis=1)
    return np.vstack([e, e[:, ::-1], e[:20], loops])


def test_edges_df_keeps_rows_as_given(spark):
    e = _noisy(er_edges(40, 120, seed=0))
    pdf = edges_df(spark, e).toPandas()
    assert len(pdf) == len(e)
    assert sorted(map(tuple, pdf.values.tolist())) == sorted(map(tuple, e.tolist()))


def test_edges_df_runs_no_shuffle(spark):
    """Building the edge DataFrame adds no Exchange, so collecting it runs
    one task per input partition whatever ``spark.sql.shuffle.partitions``
    says."""
    plan = edges_df(spark, _noisy(er_edges(40, 120, seed=0)))._jdf.queryExecution().executedPlan()
    assert "Exchange" not in plan.toString()


def test_to_local_dedups_and_orients(spark):
    raw = spark.createDataFrame(pd.DataFrame(RAW, columns=["src", "dst"]))
    assert set(to_local(raw).edges_at(slice(None))) == {(1, 2), (3, 4)}


@pytest.mark.parametrize("alg", ["HBBMC++", "RDegen"])
@pytest.mark.parametrize(
    "rows",
    [
        pytest.param(RAW, id="raw"),
        pytest.param(_noisy(social_edges(60, 3, 1, caves=(3, 9, 4), core=(20, 0.4))).tolist(), id="noisy-social"),
    ],
)
def test_distributed_on_raw_rows_matches_local(spark, rows, alg):
    """``mce_distributed`` on rows as given equals the local runner on the
    graph ``to_local`` collects from them."""
    raw = spark.createDataFrame(pd.DataFrame(rows, columns=["src", "dst"]))
    g = to_local(raw)
    res = mce_distributed(spark, raw, alg, num_partitions=2)
    local = run_named(g, alg)
    got = sorted(tuple(int(x) for x in r.clique.split(",")) for r in res.cliques_df.collect())
    assert got == local.cliques
    assert res.stats.as_dict() == local.stats.as_dict()


def test_to_local_round_trip(spark):
    e = er_edges(30, 80, seed=1)
    g = to_local(edges_df(spark, e))
    assert g.m == len(e)
    assert set(map(tuple, e.tolist())) == set(g.edges_at(slice(None)))
