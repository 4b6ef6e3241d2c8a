"""The oracle catches wrong results, and the graph wrappers expose canonical
Spark edge lists."""
import pytest
from pyspark.sql import functions as F

from repro import synth_data
from repro.oracle import assert_equivalent


def test_oracle_detects_wrong_result(spark):
    edges = synth_data.graph_edges(spark, "er", n=30, m=80, seed=0)
    wrong = edges.groupBy("src").agg((F.count("*") + 1).alias("deg"))
    with pytest.raises(AssertionError):
        assert_equivalent(
            wrong,
            "select src, count(*) as deg from edges group by src",
            edges=edges,
        )


def test_graph_edges_wrapper(spark):
    df = synth_data.graph_edges(spark, "er", n=30, m=80, seed=0)
    pdf = df.toPandas()
    assert len(pdf) == 80
    assert (pdf["src"] < pdf["dst"]).all()


def test_surrogate_edges_wrapper(spark):
    df = synth_data.surrogate_edges(spark, "NA", "test")
    assert df.count() > 0
    assert df.columns == ["src", "dst"]
