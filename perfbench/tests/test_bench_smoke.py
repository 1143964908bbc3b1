"""Tiny-size runs of every workload print every declared metric with its unit."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import generate

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERFBENCH)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, report["failures"]
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())
    env = report["environment"]
    assert env["blas_thread_pin"]["OPENBLAS_NUM_THREADS"] == "1"
    assert {"commit", "python", "numpy", "scipy", "nproc"} <= set(env)
    if workload == "scenario-batch":
        # only the scenarios the package is known to reject may fail
        tiny = generate.TINY_BATCH_TEMPLATE
        allowed = sum(generate.known_failure(s) for s in tiny)
        assert result["failed"] <= allowed * result["attempted"] // len(tiny)
    else:
        assert result["failed"] == 0
    if trace:
        assert os.path.isfile(os.path.join(ROOT, report["spans_file"]))
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0
                   for m in SPEC["end_to_end"])


def test_refuses_to_run_without_the_package(workdir):
    """A directory holding only BENCHMARK.json and the benchmark fails fast."""
    bare = os.path.join(workdir, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(bare, "--workload", "scenario-batch", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
