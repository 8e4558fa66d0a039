"""Tests of the benchmark itself: printed metric names, and inputs from the seed.

Run from the repository root: ``python3 -m pytest bench/test_bench.py``.
The metric-name tests run the benchmark on helm-verify for one second per mode.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, key):
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "helm-verify", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    printed = [(name, m["unit"]) for name, m in result["metrics"].items()]
    assert printed == [(m["name"], m["unit"]) for m in SPEC[key]]


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOAD_NAMES)


def _generated(workload, seed, tmp_path):
    """The inputs and what the program receives from them: config file and media."""
    state = workloads.prepare(workload, workloads.make_inputs(workload, seed), tmp_path)
    config = Path(state["config"]).read_bytes() if "config" in state else b""
    return state["inputs"], config, [m.tolist() for m in state.get("media", [])]


@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
def test_same_seed_generates_same_inputs(workload, tmp_path):
    first = _generated(workload, 7, tmp_path / "a")
    assert first == _generated(workload, 7, tmp_path / "b")


@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
def test_different_seed_generates_different_inputs(workload, tmp_path):
    first = _generated(workload, 7, tmp_path / "a")
    second = _generated(workload, 8, tmp_path / "b")
    assert first[0] != second[0]
    if workload == "helm-inversion":
        assert not np.allclose(first[2], second[2])
