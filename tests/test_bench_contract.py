"""The benchmark still finds every program name it traces or times.  bench/tracer.py
drops the spans of a name it lists in Tracer.absent, bench/layers.py reports a metric
in LayerSuite.absent as null, and bench/test_smoke.py lets both through; so this asks
the benchmark, once, in a child python that keeps the tracer's patches out of here."""

import json
import pathlib
import subprocess
import sys

import pytest

PROBE = """
import json, pathlib, sys
checkout = pathlib.Path(sys.argv[1])
sys.path[:0] = [str(checkout / "bench"), str(checkout / "src")]
import deltascatter, layers, tracer, workloads
assert pathlib.Path(deltascatter.__file__).resolve().parent.parent == checkout / "src"
workloads.RUN_DIR.mkdir(exist_ok=True)
traced, suite = tracer.Tracer(), layers.LayerSuite(3, 0.01, 1)
traced.install(); traced.uninstall(); suite.run()
print(json.dumps([{**{n: n not in traced.absent for n in traced.names + traced.absent},
                   **{n: n not in suite.absent and suite.metrics.get(n, [None])[0] is not None
                      for n in [*suite.metrics, *suite.absent]}}, suite.errors]))
"""
CHILD = subprocess.run([sys.executable, "-c", PROBE, str(pathlib.Path(__file__).resolve().parents[1])],
                       capture_output=True, text=True, timeout=60)
FOUND, ERRORS = json.loads(CHILD.stdout.splitlines()[-1]) if not CHILD.returncode else ({}, None)


def test_benchmark_runs_its_layer_checks():
    assert CHILD.returncode == 0, CHILD.stderr
    assert ERRORS == []


@pytest.mark.parametrize("name", list(FOUND))
def test_benchmark_finds_name(name):
    assert FOUND[name], f"{name} is in Tracer.absent or LayerSuite.absent, or its metric is null"
