"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 -m pytest perfbench/test_selftest.py -q

Each workload runs once untraced and once traced. Every metric that
BENCHMARK.json declares must appear with its unit, every correctness check
must pass, the tampered chains must be rejected, same-seed runs must agree
on their output digest, and a directory without the sources must make the
benchmark fail without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("outbreak", "ct_run", "chain_verify", "mine_bench", "loc_eval")
SEED = 0

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    DECLARED = json.load(fh)


def _run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def _results(workload: str, trace: int) -> dict:
    path = os.path.join(ROOT, ".perfbench", "results", f"{workload}-s{SEED}-t{trace}.json")
    with open(path) as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_and_reports_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: body["unit"] for name, body in result["metrics"].items()
    }
    assert all(isinstance(b["value"], (int, float)) for b in result["metrics"].values())
    if not trace:
        assert all(b["value"] > 0 for b in result["metrics"].values())
    checks = {c["name"]: c["ok"] for c in _results(workload, trace)["checks"]}
    assert all(checks.values()), checks
    if workload == "chain_verify":
        assert checks.get("tamper_signature") and checks.get("tamper_window")
    if trace:
        assert checks.get("span_self_sum")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_runs_agree(workload):
    # Runs after the parametrized test above has left both result files.
    untraced, traced = _results(workload, 0), _results(workload, 1)
    assert untraced["output_digest"] and untraced["output_digest"] == traced["output_digest"]


def test_all_runs_every_workload_in_one_command():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "all", "--seed", str(SEED),
         "--seconds", "1", "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {
        f"{w}.{m['name']}" for w in WORKLOADS for m in DECLARED["end_to_end"]
    }


def test_fails_without_sources():
    bare = os.path.join(ROOT, ".perfbench", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        for path in DECLARED["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = _run("outbreak", 0, cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
