"""Smoke-run every spark-submit job entrypoint (local mode, test scale)."""
import subprocess
import sys
from pathlib import Path

import pytest

JOBS = Path(__file__).resolve().parent.parent / "jobs"


def run_job(script, *args):
    return subprocess.run(
        [sys.executable, str(JOBS / script), *args], capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize("table", range(1, 7))
def test_job_runs_and_prints_rows(table):
    out = run_job("tables.py", "--table", str(table), "--scale", "test", "--datasets", "NA",
                  "--mode", "local")
    assert out.returncode == 0, out.stderr[-2000:]
    lines = [l for l in out.stdout.splitlines() if l.strip()]
    assert len(lines) >= 2  # header + one dataset row
    assert "NA" in out.stdout


def test_table1_rejects_dist_mode():
    out = run_job("tables.py", "--table", "1", "--scale", "test", "--mode", "dist")
    assert out.returncode == 2  # argparse usage error, before any work
    assert "no dist mode" in out.stderr
    assert out.stdout == ""


def test_appendix_d_job():
    out = run_job("appendix_d.py", "--points", "small")
    assert out.returncode == 0, out.stderr[-2000:]
    assert "ER" in out.stdout and "BA" in out.stdout


def test_job_markdown_flag():
    out = run_job("tables.py", "--table", "1", "--scale", "test", "--datasets", "NA", "--markdown")
    assert out.returncode == 0
    assert out.stdout.lstrip().startswith("| dataset")
