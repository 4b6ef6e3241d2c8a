"""The distributed root-branch-partitioned MCE job emits exactly the local
runner's clique set and counters, for every named algorithm."""
import json
import os
import subprocess
import sys
import zipfile
import zipimport
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from pyspark import SparkContext
from pyspark.accumulators import _accumulatorRegistry

import repro
from repro.core.hbbmc import ALGORITHMS, run_named
from repro.dist.mce import _drop_zip_finders, mce_distributed
from repro.graphs.datasets import load_edges, load_local
from repro.graphs.edgelist import edges_df
from repro.graphs.generators import social_edges, to_local
from tests.oracles import er_edges, reference_mce
from tests.test_reduction import HEXAGON_EARS, STAR, TREE


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
    assert res.n_cliques == res.cliques_df.count()


#: Degenerate inputs as edge arrays. GR consumes every one of them but the
#: last two: ``huge_ids`` puts vertex ids near 10**12 through the search,
#: and ``hexagon_ears`` has GR-blocked pairs that the core's search emits.
#: An edge DataFrame carries no vertex list, so isolated vertices reach both
#: paths only as self-loop rows, which both drop.
DEGENERATE = {
    "empty": np.zeros((0, 2), dtype=np.int64),
    "self_loops_only": np.array([(v, v) for v in range(5)]),
    "single_edge": np.array([(0, 1)]),
    "path_consumed_by_gr": np.array([(0, 1), (1, 2), (2, 3), (3, 4)]),
    "triangle_and_far_edge": np.array([(0, 1), (1, 2), (0, 2), (10, 11)]),
    "star": STAR,
    "tree": TREE,
    "huge_ids": social_edges(30, 3, 2, caves=(2, 6, 2)) + 10**12,
    "hexagon_ears": HEXAGON_EARS,
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
        assert res.n_cliques == res.cliques_df.count(), alg


#: Misconfigurations both paths reject before any work:
#: (id, algorithm, overrides, error match).
BAD_CONFIGS = [
    ("", "HBBMC++", dict(bogus_key=1), "unknown config keys"),
    ("et_t=4", "HBBMC++", dict(et_t=4), "et_t must be"),
    ("et_t=-1", "HBBMC++", dict(et_t=-1), "et_t must be"),
    ("et_t=True", "HBBMC++", dict(et_t=True), "et_t must be"),
    ("d=True", "HBBMC++", dict(d=True), "d must be"),
    ("d=1.5", "HBBMC++", dict(d=1.5), "d must be"),
    ("d=str", "HBBMC++", dict(d="2"), "d must be"),
    ("edge_order", "RDegen", dict(root="bogus"), "unknown root"),
    ("gr", "HBBMC++", dict(gr=True), r"unknown config keys \['gr'\]"),
    ("kernel=ref", "RRef", dict(kernel="ref"), "unknown kernel 'ref'"),
    ("vertex-d", "RDegen", dict(d=3), "d is not read under the vertex root 'degeneracy'"),
    ("vertex-edge_order", "RDegen", dict(edge_order="mdg"), r"unknown config keys \['edge_order'\]"),
    ("hybrid-root", "HBBMC++", dict(root="global"), "d is not read under the vertex root 'global'"),
    ("edge-d-kernel", "HBBMC++", dict(framework="edge", kernel="rcd", d=4), r"unknown config keys \['framework'\]"),
    ("edge-root", "RDegen", dict(framework="edge"), r"unknown config keys \['framework'\]"),
    ("collect", "HBBMC++", dict(collect=False), r"unknown config keys \['collect'\]"),
]


@pytest.mark.parametrize(
    "alg,overrides,match,path",
    [
        pytest.param(alg, overrides, match, path, id=f"{tag}-{path}" if tag else path)
        for tag, alg, overrides, match in BAD_CONFIGS
        for path in ("local", "spark")
    ],
)
def test_unknown_config_key_rejected(spark, social_pair, alg, overrides, match, path):
    edf, g = social_pair
    with pytest.raises(ValueError, match=match):
        if path == "local":
            run_named(g, alg, **overrides)
        else:
            mce_distributed(spark, edf, alg, **overrides)


def test_distributed_depth_two(spark, social_pair):
    edf, g = social_pair
    res = mce_distributed(spark, edf, "HBBMC++", d=2, num_partitions=3)
    assert _dist_cliques(res) == reference_mce(g)
    assert res.stats.as_dict() == run_named(g, "HBBMC++", d=2).stats.as_dict()


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


@pytest.mark.parametrize("num_partitions", [0, -2, 2.5, True])
def test_bad_task_count_rejected(spark, social_pair, num_partitions):
    edf, _ = social_pair
    with pytest.raises(ValueError, match="num_partitions"):
        mce_distributed(spark, edf, "HBBMC++", num_partitions=num_partitions)


def test_distributed_partition_count_invariance(spark):
    """Any task count, including the session default and one above the
    number of root branches, gives the same cliques and counters."""
    e = er_edges(40, 160, seed=9)
    edf = edges_df(spark, e)
    ref = mce_distributed(spark, edf, "HBBMC++", num_partitions=1)
    assert ref.stats.root_branches < 10_000
    for n in (2, 16, None, 10_000):
        res = mce_distributed(spark, edf, "HBBMC++", num_partitions=n)
        assert _dist_cliques(res) == _dist_cliques(ref), n
        assert res.stats.as_dict() == ref.stats.as_dict(), n


def test_repeated_runs_leave_no_broadcast_files(spark, social_pair):
    """Each run destroys its (plan, groups) broadcast, whose pickled driver
    copy would otherwise stay in the context's temp dir until the session
    stops."""
    edf, _ = social_pair
    temp_dir = spark.sparkContext._temp_dir
    mce_distributed(spark, edf, "HBBMC++", num_partitions=2)
    before = len(os.listdir(temp_dir))
    for _ in range(3):
        mce_distributed(spark, edf, "HBBMC++", num_partitions=2)
    assert len(os.listdir(temp_dir)) == before


def test_repeated_runs_leave_no_accumulators(spark, social_pair):
    """Each run drops its counter accumulator from PySpark's driver-side
    registry once it has read it, and the counters still match the local
    runner's."""
    edf, g = social_pair
    local = run_named(g, "HBBMC++").stats.as_dict()
    mce_distributed(spark, edf, "HBBMC++", num_partitions=2)
    before = len(_accumulatorRegistry)
    for _ in range(3):
        res = mce_distributed(spark, edf, "HBBMC++", num_partitions=2)
        assert res.stats.as_dict() == local
    assert len(_accumulatorRegistry) == before


def test_one_kernel_job_per_run(spark, social_pair):
    """One call runs two Spark jobs: the edge collect, and the eager local
    checkpoint of the kernel stage, whose tasks return their counters on an
    accumulator."""
    edf, g = social_pair
    edf.count()  # the edge cache is in place, so its collect is one job
    sc = spark.sparkContext
    group = "test_one_kernel_job_per_run"
    sc.setJobGroup(group, group)
    try:
        res = mce_distributed(spark, edf, "HBBMC++", num_partitions=2)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    assert len(sc.statusTracker().getJobIdsForGroup(group)) == 2
    assert _dist_cliques(res) == run_named(g, "HBBMC++").cliques


#: GR emits most of this input's cliques on the driver.
GR_HEAVY = social_edges(300, 1, 3, caves=(4, 12, 4), core=(20, 0.4))


def test_result_is_the_checkpoint(spark, social_pair):
    """The clique DataFrame is the checkpointed kernel output, with the
    driver's GR cliques unioned in when there are any, so reading it re-runs
    no kernel task."""
    schema = spark.createDataFrame([], "clique string, size long").schema
    for edf, gr in ((social_pair[0], False), (edges_df(spark, GR_HEAVY), True)):
        res = mce_distributed(spark, edf, "HBBMC++", num_partitions=2)
        assert (res.stats.gr_cliques > 100) == gr
        assert res.cliques_df.schema == schema
        plan = res.cliques_df._jdf.queryExecution().executedPlan().toString()
        assert ("Union" in plan) == gr
        assert "MapInPandas" not in plan


def test_broadcast_ships_no_planner_cliques(spark, monkeypatch):
    """The broadcast plan holds only what a root branch reads: not GR's
    cliques nor the planner's counters, which the driver still adds in."""
    e = GR_HEAVY
    edf = edges_df(spark, e)
    shipped = []
    broadcast = SparkContext.broadcast

    def capture(sc, value):
        shipped.append(value)
        return broadcast(sc, value)

    monkeypatch.setattr(SparkContext, "broadcast", capture)
    res = mce_distributed(spark, edf, "HBBMC++", num_partitions=2)
    local = run_named(to_local(e), "HBBMC++")
    assert local.stats.gr_cliques > 100
    ((plan, _groups),) = shipped
    assert [f.name for f in fields(plan)] == ["config", "adj", "blocked", "order", "costs"]
    assert _dist_cliques(res) == local.cliques
    assert res.stats.as_dict() == local.stats.as_dict()


def test_drop_zip_finders_keeps_zip_imports_working(tmp_path, monkeypatch):
    """The helper drops only the cached zip finders; a later import from the
    same archive rebuilds its finder without re-reading the archive."""
    archive = tmp_path / "zpkg.zip"
    with zipfile.ZipFile(archive, "w") as z:
        z.writestr("zpkg/__init__.py", "")
        z.writestr("zpkg/a.py", "X = 1\n")
        z.writestr("zpkg/b.py", "X = 2\n")
    monkeypatch.syspath_prepend(str(archive))
    try:
        import zpkg.a

        cache = sys.path_importer_cache
        assert any(isinstance(f, zipimport.zipimporter) for f in cache.values())
        others = {p: f for p, f in cache.items() if not isinstance(f, zipimport.zipimporter)}
        _drop_zip_finders()
        assert not any(isinstance(f, zipimport.zipimporter) for f in cache.values())
        assert all(cache[p] is f for p, f in others.items())

        def read_directory(path):
            raise AssertionError(f"re-read {path}")

        monkeypatch.setattr(zipimport, "_read_directory", read_directory)
        import zpkg.b

        assert (zpkg.a.X, zpkg.b.X) == (1, 2)
    finally:
        for name in ("zpkg", "zpkg.a", "zpkg.b"):
            sys.modules.pop(name, None)
        for path in [p for p in sys.path_importer_cache if p.startswith(str(archive))]:
            del sys.path_importer_cache[path]


#: Loaded by every Python worker of the subprocess below: the first attempt
#: of partition 0 fails after it has emitted its rows and added its counters,
#: by raising or, with ``INJECT_FAILURE=exit``, by killing its worker.
RETRY_SITECUSTOMIZE = '''
import functools
import os

import repro.dist.mce as mce
from pyspark import TaskContext

_drop = mce._drop_zip_finders
_marker = os.path.join(os.path.dirname(os.path.abspath(__file__)), "failed-once")


@functools.wraps(_drop)
def _drop_zip_finders():
    ctx = TaskContext.get()
    if ctx is not None and ctx.partitionId() == 0 and ctx.attemptNumber() == 0:
        open(_marker, "w").close()
        if os.environ.get("INJECT_FAILURE") == "exit":
            os._exit(1)
        raise RuntimeError("injected failure of the first attempt of partition 0")
    _drop()


mce._drop_zip_finders = _drop_zip_finders
'''

RETRY_JOB = '''
import json
import sys

from pyspark.sql import SparkSession

from repro.dist.mce import mce_distributed
from repro.graphs.datasets import load_edges
from repro.graphs.edgelist import edges_df

spark = (
    SparkSession.builder.appName("retry")
    .config("spark.executorEnv.PYTHONPATH", sys.argv[1])
    .config("spark.sql.execution.arrow.pyspark.enabled", "true")
    .getOrCreate()
)
spark.sparkContext.setLogLevel("OFF")
res = mce_distributed(spark, edges_df(spark, load_edges("DG", "test")), "HBBMC++", num_partitions=2)
rows = [r.clique for r in res.cliques_df.collect()]
print(json.dumps({"rows": rows, "stats": res.stats.as_dict(), "n_cliques": res.n_cliques}))
spark.stop()
'''


@pytest.mark.parametrize("how", ["raise", "exit"])
def test_retried_task_keeps_rows_and_counters_exact(tmp_path, how):
    """A kernel task that fails after emitting its rows and adding its
    counters, and then succeeds on its retry (``local[2,2]`` allows one),
    leaves the clique rows and the counters exactly the local runner's: the
    failed attempt's rows and accumulator updates are both dropped."""
    src = Path(repro.__file__).resolve().parent.parent
    (tmp_path / "sitecustomize.py").write_text(RETRY_SITECUSTOMIZE)
    env = dict(os.environ, PYTHONPATH=str(src), INJECT_FAILURE=how)
    env["PYSPARK_SUBMIT_ARGS"] = (
        "--master local[2,2] --driver-memory 1g --conf spark.driver.host=127.0.0.1"
        " --conf spark.ui.enabled=false pyspark-shell"
    )
    # The workers' PYTHONPATH puts the wrapper ahead of src; the driver's
    # does not, so only the tasks fail.
    worker_path = os.pathsep.join((str(tmp_path), str(src)))
    out = subprocess.run(
        [sys.executable, "-c", RETRY_JOB, worker_path],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    got = json.loads(out.stdout.strip().splitlines()[-1])
    local = run_named(load_local("DG", "test"), "HBBMC++")
    assert (tmp_path / "failed-once").exists()
    cliques = sorted(tuple(int(x) for x in row.split(",")) for row in got["rows"])
    assert cliques == local.cliques
    assert got["stats"] == local.stats.as_dict()
    assert len(got["rows"]) == got["n_cliques"] == local.n_cliques
