"""Spark edge-list utilities."""
import pandas as pd
import pytest

from repro.graphs.edgelist import canonicalize, edges_df, to_local
from repro.graphs.generators import er_edges


@pytest.fixture(scope="module")
def small_edges(spark):
    return edges_df(spark, er_edges(40, 120, seed=0)).cache()


def test_edges_df_canonical(small_edges):
    pdf = small_edges.toPandas()
    assert (pdf["src"] < pdf["dst"]).all()
    assert len(pdf) == len(pdf.drop_duplicates())


def test_canonicalize_dedups_and_orients(spark):
    raw = spark.createDataFrame(
        pd.DataFrame({"src": [1, 2, 2, 3], "dst": [2, 1, 2, 4]})
    )
    got = canonicalize(raw).toPandas().sort_values(["src", "dst"]).reset_index(drop=True)
    assert got.values.tolist() == [[1, 2], [3, 4]]


def test_to_local_round_trip(spark):
    e = er_edges(30, 80, seed=1)
    g = to_local(edges_df(spark, e))
    assert g.m == len(e)
    assert set(map(tuple, e.tolist())) == set(g.edges())
