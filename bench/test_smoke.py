"""Smoke test of the benchmark: one tiny pass of each workload.

    python3 -m pytest bench/test_smoke.py -q

Each workload runs a reduced job list for one pass, untraced and traced.
The run must report no failed job and every metric BENCHMARK.json names;
two traced runs on one seed must give identical exact counts.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT = [
    "cohomology.differential.evals",
    "linalg.solve.calls",
    "linalg.elim.cells",
    "operators.search.candidates",
    "workspace.load.bytes",
    "workspace.dump.bytes",
]


def run(workload, trace, seed=3, root=ROOT):
    cmd = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", "0", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)


def result(workload, trace, seed=3):
    done = run(workload, trace, seed)
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"], done.stderr
    assert doc["failed"] == 0 and doc["attempted"] >= 1
    return doc


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    doc = result(workload, 0)
    assert set(doc["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert doc["metrics"]["ok_ratio"]["value"] == 1.0
    assert all(m["value"] > 0 for m in doc["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_exact_counts(workload):
    first, second = result(workload, 1), result(workload, 1)
    names = {m["name"] for m in SPEC["per_layer"]}
    assert set(first["metrics"]) == names
    for name in EXACT:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_seeded_bases_keep_dimensions(seed):
    # Every seed moves the twisted structures into another basis; the
    # reference dimensions are basis-free, so a wrong transport fails here.
    result("twisted-constrained", 0, seed)


def test_refuses_without_program():
    # A directory holding only BENCHMARK.json and bench/, inside the checkout.
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = run(WORKLOADS[0], 0, root=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert done.stdout == ""
