"""Smoke test of the benchmark: every workload at a tiny size, in both
modes, must pass its output checks and print every metric that
``BENCHMARK.json`` names, with its unit.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
    SPEC = json.load(spec_file)

#: Work per repetition small enough for a quick run, large enough that
#: every check still holds and the tail has more than 10 samples.
TINY = {"fabric_idle": 10, "fabric_incast": 10, "ranking_remote": 300,
        "flow_crypto": 11}


def bench(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "0", "--trace", str(trace),
         "--size", str(TINY[workload])],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    *_, detail, result = done.stdout.strip().splitlines()
    return json.loads(detail), json.loads(result)


def test_workloads_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(TINY)


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_reports_every_metric(workload, trace):
    detail, result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], detail["problems"]
    assert result["failed"] == 0 and result["attempted"] > 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in spec)
    for m in spec:
        assert metrics[m["name"]]["unit"] == m["unit"]
    if trace:
        shares = [v["value"] for k, v in metrics.items()
                  if k.endswith(".share")]
        assert sum(shares) == pytest.approx(1.0)
    else:
        assert metrics["op_ok_frac"]["value"] == 1.0
        assert all(v["value"] > 0 for v in metrics.values())


def test_unknown_workload_fails_without_result():
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "nope"], cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "nope" in done.stderr
    assert '"correct"' not in done.stdout
