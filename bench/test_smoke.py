"""Tiny-size smoke test of the benchmark command, so that it cannot rot.

    python3 -m pytest bench/test_smoke.py

It runs every workload in both modes at `--tiny` sizes (figures from these
runs mean nothing) and checks the output contract against BENCHMARK.json.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, cwd=ROOT, tiny=True):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0.1", "--trace", str(trace)] + (["--tiny"] if tiny else [])
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def test_spec_lists_the_benchmark_metrics():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "bench"))
    import harness

    e2e, layer = harness.metric_names()
    assert [m["name"] for m in SPEC["end_to_end"]] == e2e
    assert [m["name"] for m in SPEC["per_layer"]] == layer
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1
    listed = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    if not trace:
        assert set(result["metrics"]) == set(listed)
    # tiny noisy runs may deliver no frame, so a traced run can miss a layer
    assert set(result["metrics"]) <= set(listed)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == listed[name]
        assert isinstance(metric["value"], float)
    if workload == "link_noisy":
        # the five fixed fault ops fail once per round each, and nothing else does
        assert result["failed"] * 12 == result["attempted"] * 5
    else:
        assert result["failed"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("link_clean", 0, cwd=tmp_path, tiny=False)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
