"""Where the benchmarks persist their rows (``results/``), which
EXPERIMENTS.md is generated from."""
import json
import pathlib

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"


def save(name: str, obj) -> None:
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / name).write_text(json.dumps(obj, indent=1, default=str))
