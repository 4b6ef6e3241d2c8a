"""Spark edge-list utilities.

A graph's distributed form here is a DataFrame with two long columns
``src`` and ``dst``, one row per edge as given: an edge may come in either
orientation, repeated, or as a self-loop. The distributed MCE driver
(``repro.dist``) collects it with ``to_local``, which is where the Spark
path canonicalizes the edges, so building and collecting the DataFrame runs
no shuffle.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from ..core.localgraph import LocalGraph


def edges_df(spark: SparkSession, edges: np.ndarray) -> DataFrame:
    """An edge DataFrame holding the rows of an (m, 2) numpy array as given."""
    pdf = pd.DataFrame({"src": edges[:, 0].astype("int64"), "dst": edges[:, 1].astype("int64")})
    return spark.createDataFrame(pdf, "src long, dst long")


def to_local(edges: DataFrame) -> LocalGraph:
    """Collect a (small) edge DataFrame into a LocalGraph for the kernels.

    Rows may come in either orientation, repeated, or as self-loops:
    ``LocalGraph.from_edges`` drops the self-loops and merges the duplicate
    and reversed pairs."""
    pdf = edges.toPandas()
    return LocalGraph.from_edges(pdf[["src", "dst"]].to_numpy(dtype=np.int64))
