"""Smoke test of the benchmark: one short pass of each workload.

    python3 -m pytest -q bench/test_bench.py

Checks the result schema against BENCHMARK.json, that every named metric is
present, that traced and untraced cycles hash the same, and that the
benchmark refuses to run without the program next to it.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_short_pass(workload, trace, section):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, details_line, result_line = proc.stdout.strip().splitlines()
    details = json.loads(details_line)["details"]
    result = json.loads(result_line)

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, details["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC[section]}
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))
    if section == "end_to_end":
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    else:
        traced = [k for k in details["hashes"] if k.endswith(" (traced)")]
        assert traced
        for key in traced:
            assert details["hashes"][key] == details["hashes"][key[:-len(" (traced)")]]
    assert set(details["environment"]) >= {"nproc", "python", "numpy", "blas",
                                           "blas_thread_vars", "git_commit"}


def test_refuses_without_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(str(tmp_path), "chase", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
