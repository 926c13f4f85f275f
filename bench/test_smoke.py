"""Smoke test: every workload, untraced and traced, at tiny sizes.

It checks that the benchmark runs to its end, that the program's outputs
pass its checks, and that each run reports exactly the metrics that
BENCHMARK.json declares.  It sets no timing bounds.
"""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_and_checks(workload, trace):
    run = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--scale", "0.01"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], run.stderr
    assert 1 <= result["attempted"] and 0 <= result["failed"] < result["attempted"]
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    assert reported == declared
    # A layer that a later version of the program no longer has reads null.
    allowed = (int, float, type(None)) if trace else (int, float)
    assert all(isinstance(m["value"], allowed) for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for path in pathlib.Path(__file__).parent.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode != 0 and run.stdout == ""
