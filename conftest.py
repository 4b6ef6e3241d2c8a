import os
import sys


def _driver_mem() -> str:
    """~75% of the container's memory limit, for the Spark driver JVM.

    Precedence: SPARK_DRIVER_MEM env (explicit override) > cgroup v2/v1
    limit > 48g fallback. spark.driver.memory is read at JVM launch, not
    from SparkConf, so it must be in PYSPARK_SUBMIT_ARGS before pyspark is
    imported anywhere — this runs at conftest import, which pytest loads
    before any test module.

    The cgroup read is best-effort: the sandbox runs under gVisor, whose
    sysfs emulation may not pass the host limit through. An unbounded
    value (cgroup-v1's ~9.2e18 "unlimited" sentinel, or a missing limit)
    is treated as absent so the JVM is never handed an impossible heap.
    """
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    for p in (
        "/sys/fs/cgroup/memory.max",
        "/sys/fs/cgroup/memory/memory.limit_in_bytes",
    ):
        try:
            raw = open(p).read().strip()
            if not raw or raw == "max":
                continue
            gib = int(raw) / (1 << 30)
            if not (1 <= gib <= 1024):  # v1 "unlimited" → ~8.6e9 GiB
                continue
            os.environ["_SPARK_DRIVER_MEM_SRC"] = f"cgroup:{p}={raw}"
            return f"{max(1, int(gib * 0.75))}g"
        except (OSError, ValueError):
            continue
    os.environ["_SPARK_DRIVER_MEM_SRC"] = "fallback"
    return "48g"


os.environ.setdefault("SPARK_DRIVER_MEM", _driver_mem())
os.environ.setdefault(
    "PYSPARK_SUBMIT_ARGS",
    f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
    f"--driver-memory {os.environ['SPARK_DRIVER_MEM']} "
    f"--conf spark.driver.host=127.0.0.1 "
    f"--conf spark.ui.enabled=false "
    "pyspark-shell",
)

import pytest  # noqa: E402
from pyspark.sql import SparkSession  # noqa: E402


@pytest.fixture(scope="session")
def spark() -> SparkSession:
    """One local-mode SparkSession for the whole test session.

    Master and driver memory come from ``PYSPARK_SUBMIT_ARGS`` (set above,
    pre-JVM-launch). Per-session configs that *are* honoured post-launch
    (Arrow) are set here. The MCE job runs no shuffle, so the session leaves
    ``spark.sql.shuffle.partitions`` at Spark's default.
    """
    s = (
        SparkSession.builder.appName("repro")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    # One line in test_output.txt that tells the driver whether the
    # cgroup derivation saw the real limit (README § Spark target).
    print(
        f"[conftest] SPARK_DRIVER_MEM={os.environ['SPARK_DRIVER_MEM']} "
        f"(src={os.environ.get('_SPARK_DRIVER_MEM_SRC', 'env')}) "
        f"master={s.sparkContext.master} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()
