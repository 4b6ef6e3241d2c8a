"""Smoke-run the table job entrypoint at test scale."""
import subprocess
import sys
from pathlib import Path

import pytest

JOB = Path(__file__).resolve().parent.parent / "jobs" / "tables.py"


def run_job(*args):
    return subprocess.run(
        [sys.executable, str(JOB), *args], capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize("table", range(1, 7))
def test_job_runs_and_prints_rows(table):
    out = run_job("--table", str(table), "--scale", "test", "--datasets", "NA")
    assert out.returncode == 0, out.stderr[-2000:]
    lines = [l for l in out.stdout.splitlines() if l.strip()]
    assert len(lines) >= 2  # header + one dataset row
    assert "NA" in out.stdout
    assert out.stdout.lstrip().startswith("| dataset")
