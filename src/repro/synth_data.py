"""Graph data as Spark edge DataFrames.

The paper (HBBMC, ICDE'25) is evaluated on graphs; the generators live in
``repro.graphs`` and these wrappers expose them as Spark edge DataFrames
(columns src < dst), the canonical distributed form.
"""
from pyspark.sql import DataFrame, SparkSession


def graph_edges(spark: SparkSession, model: str, **params) -> DataFrame:
    """Edge DataFrame from a named generator (er | ba | plc | caveman |
    social) — see ``repro.graphs.generators`` for parameters."""
    from .graphs.edgelist import edges_df
    from .graphs.generators import generate

    return edges_df(spark, generate(model, **params))


def surrogate_edges(spark: SparkSession, name: str, scale: str = "test") -> DataFrame:
    """Edge DataFrame for one of the 16 Table I surrogate datasets."""
    from .graphs.datasets import load_edges
    from .graphs.edgelist import edges_df

    return edges_df(spark, load_edges(name, scale))
