"""Benchmark for deltascatter: three workloads, each run from this one process.

From the root of a checkout:

    python3 bench/run.py --workload {sweep,crosscheck,cli} --seed N --seconds S --trace {0,1}

The workload repeats whole rounds of operations, one at a time (a closed loop
with one client), for S seconds and at least 100 operations, after one
warm-up round.  Every output is
checked: the warm-up round's against mpmath and exact properties
(checks.py), every later round's against the warm-up round, bit for bit.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  --trace 0 reports the end-to-end metrics, measured
untraced; --trace 1 reports the per-layer metrics from a separate traced run.
See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time
from array import array

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_CODE = (
    "import deltascatter, deltascatter.cli; "
    "deltascatter.cross_section_closed(deltascatter.ScatteringProblem(k=1.0, e0=-2.5))"
)
REPEATS = 9
MIN_OPS = 100
MAX_MESSAGES = 20


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "crosscheck", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="shrink rounds, tables and repeats (the smoke test uses a tiny scale)",
    )
    return parser.parse_args(argv)


def setup_once() -> int:
    """Wall ns of a fresh interpreter importing the program and making one small call."""
    from workloads import spawn

    code, wall, _ = spawn([sys.executable, "-c", SETUP_CODE], subprocess.DEVNULL, subprocess.DEVNULL)
    if code != 0:
        raise SystemExit(f"error: the set-up call exited {code}")
    return wall


class Rounds:
    """Whole rounds of a workload's operations, each output compared to the reference."""

    def __init__(self, workload, reference) -> None:
        self.w = workload
        self.reference = reference
        self.latency_ns = array("q")
        self.units = self.attempted = self.failed = self.mismatched = 0

    def record(self, i: int, op, raw, ns: int) -> None:
        fp = self.w.fingerprint(op, raw)
        self.mismatched += fp != self.reference[i]
        self.failed += self.w.failed(fp)
        self.attempted += 1
        self.units += self.w.units(op)
        self.latency_ns.append(ns)

    def run(self, seconds: float, min_ops: int, between, samples: int) -> list:
        """Whole rounds until `seconds` have passed and `min_ops` operations have run.

        `between` runs untimed `samples` times, at round boundaries spread
        evenly over the run, and its results are returned.
        """
        clock, execute = time.perf_counter_ns, self.w.execute
        start = clock()
        span = int(seconds * 1e9)
        extra = []
        while True:
            for i, op in enumerate(self.w.ops):
                t = clock()
                raw = execute(op)
                self.record(i, op, raw, clock() - t)
            now = clock()
            while len(extra) < samples and now >= start + len(extra) * span // samples:
                extra.append(between())
            if now >= start + span and self.attempted >= min_ops:
                break
        while len(extra) < samples:
            extra.append(between())
        return extra

    def busy_s(self) -> float:
        return sum(self.latency_ns) / 1e9


def end_to_end(w, args, repeats: int):
    setup_once()  # writes the bytecode caches
    reference = [w.fingerprint(op, w.execute(op)) for op in w.ops]
    rounds = Rounds(w, reference)
    # At least ten samples beyond p90, even when the machine runs slow.  The
    # set-up samples are spread over the run, like the operations.
    setup_ns = rounds.run(args.seconds, round(MIN_OPS * min(1.0, args.scale)), setup_once, repeats)
    peak_kb = w.peak_rss_kb()
    lat = sorted(rounds.latency_ns)
    p90 = statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0]
    print(
        f"{w.name}: {rounds.attempted} operations in {len(lat) // len(w.ops)} rounds, "
        f"{sum(1 for x in lat if x > p90)} beyond p90",
        file=sys.stderr,
    )
    metrics = {
        "throughput_per_s": (rounds.units / rounds.busy_s(), "1/s"),
        "latency_p50_ms": (statistics.median(lat) / 1e6, "ms"),
        "latency_p90_ms": (p90 / 1e6, "ms"),
        "setup_s": (statistics.median(setup_ns) / 1e9, "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    return rounds, w.check(reference), metrics


def traced(w, args, repeats: int):
    import layers
    from tracer import Tracer
    from workloads import RUN_DIR

    reference = [w.fingerprint(op, w.execute(op)) for op in w.ops]
    rounds = Rounds(w, reference)
    tracer = Tracer()
    indices = range(0, len(w.ops), w.trace_stride)
    ops = [w.ops[i] for i in indices]
    untraced_ns = traced_ns = 0
    clock = time.perf_counter_ns
    deadline = clock() + int(args.seconds * 1e9)
    pairs = 0
    # Untraced and traced rounds of the same operations alternate until the
    # time is up; spans are kept from the first trace_rounds traced rounds.
    while pairs < w.trace_rounds or clock() < deadline:
        for i, op in zip(indices, ops):
            start = clock()
            raw = w.execute(op)
            ns = clock() - start
            untraced_ns += ns
            rounds.record(i, op, raw, ns)
        start = clock()
        traced_raws = w.run_traced(tracer if pairs < w.trace_rounds else Tracer(), ops)
        traced_ns += clock() - start
        for i, op, raw in zip(indices, ops, traced_raws):
            rounds.record(i, op, raw, 0)
        pairs += 1
    tracer.write(RUN_DIR / f"spans-{w.name}.csv")
    metrics = layers.op_metrics(tracer, w.trace_rounds * len(ops))
    # Same operations both ways, so the ratio of busy times is the ratio of throughputs.
    metrics["trace.overhead_pct"] = (100.0 * (traced_ns / untraced_ns - 1.0), "%")
    suite = layers.LayerSuite(args.seed, args.scale, repeats)
    metrics.update(suite.run())
    absent = sorted(set(tracer.absent + suite.absent))
    if absent:
        print("absent from this version of the program: " + ", ".join(absent), file=sys.stderr)
    return rounds, w.check(reference) + suite.errors, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "deltascatter" / "__init__.py").is_file():
        print(f"error: no deltascatter sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(1, str(SRC))
    import deltascatter

    if pathlib.Path(deltascatter.__file__).resolve().parent.parent != SRC:
        print(f"error: deltascatter imported from {deltascatter.__file__}", file=sys.stderr)
        return 2
    from workloads import RUN_DIR, WORKLOADS

    RUN_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.scale)
    repeats = max(1, round(REPEATS * min(1.0, args.scale)))
    rounds, errors, metrics = (traced if args.trace else end_to_end)(workload, args, repeats)
    if rounds.mismatched:
        errors.insert(0, f"{rounds.mismatched} operations differ from their warm-up output")
    for message in errors[:MAX_MESSAGES]:
        print(f"check failed: {message}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
