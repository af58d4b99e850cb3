"""Checks of the benchmark itself (not part of the package's test suite).

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_counts.py

Two traced runs of one seed must print identical exact counts, so that a
later count-based claim has a repeatable base; BENCHMARK.json must list
exactly the per-layer metrics a traced run prints; and the benchmark must
refuse to run without the program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import jobs     # noqa: E402
import tracer   # noqa: E402


def _run(root: Path, workload: str, seed: int, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600)


def _traced_counts(workload: str) -> dict:
    out = _run(ROOT, workload, 3, 1)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"], out.stdout
    assert set(result["metrics"]) == set(tracer.UNITS)
    return {name: result["metrics"][name]["value"] for name in tracer.COUNTS}


@pytest.mark.parametrize("workload", sorted(jobs.WORKLOADS))
def test_two_traced_runs_give_identical_counts(workload):
    first = _traced_counts(workload)
    assert first["mc.replicates"] > 0 and first["report.bytes"] > 0
    assert _traced_counts(workload) == first


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(tracer.UNITS)
    assert [m["unit"] for m in spec["per_layer"]] == list(tracer.UNITS.values())
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "wall_s",
                                                        "peak_rss_mb"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "chaos-mc", 1, 0)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
