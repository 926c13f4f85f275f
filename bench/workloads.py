"""Seeded inputs and single operations for the three benchmark workloads.

A workload is a *round*: a fixed list of operations built from the seed.  A
run repeats whole rounds, so the share of failed operations is the same in
every run, whatever its length.  Each workload offers:

  execute(op)              the timed call; returns the raw result
  fingerprint(op, raw)     what later rounds must reproduce exactly
  failed(fp)               whether the operation failed
  units(op)                work units the operation completes
  check(fps)               independent checks of one round's outputs
  run_traced(tracer, ops)  the given operations with spans recorded
"""

from __future__ import annotations

import hashlib
import math
import os
import pathlib
import random
import resource
import subprocess
import sys
import time

import deltascatter as ds
import deltascatter.cli as cli

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"

CHILD_ENV = dict(os.environ)
CHILD_ENV["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
)

# k and sqrt(-e0) are each log-uniform on [1e-3, 1e3].
LOG10_LO, LOG10_HI = -3.0, 3.0

# EpsilonSchedule.default_for leaves the last two FULL samples more than the
# 1e-8 stop test apart when max(k, sqrt(-e0)) lies in about [7.7, 200] or
# [770, 2000], so `converged` comes out False on roughly a third of the
# problems above.  Which problems those are depends on the seed, so seeded
# problems keep clear of both bands (with margin) and the fault is kept in a
# fixed, seed-independent set of problems that fails every time.
CLEAR_BELOW = 5.0
CLEAR_BETWEEN = (250.0, 500.0)
FAULT_SCALES = (40.0, 150.0)


def _share_max_below(s: float) -> float:
    """P(max(k, mu) < s) for independent log-uniform k and mu."""
    return ((math.log10(s) - LOG10_LO) / (LOG10_HI - LOG10_LO)) ** 2


def _log_uniform(rng: random.Random, hi: float) -> float:
    return 10.0 ** rng.uniform(LOG10_LO, math.log10(hi))


def problem_below(rng: random.Random, hi: float, above: float = 0.0) -> tuple[float, float]:
    """(k, e0) from the distribution above, given above < max(k, mu) < hi."""
    while True:
        k, mu = _log_uniform(rng, hi), _log_uniform(rng, hi)
        if max(k, mu) > above:
            return k, -mu * mu


def seeded_problems(rng: random.Random, n: int) -> list[tuple[float, float]]:
    """n problems (k, e0) drawn from the distribution above, clear of the fault.

    The two clear ranges of max(k, mu) get their exact expected shares of
    the n problems, so the mix of schedule lengths does not vary by seed.
    """
    low = _share_max_below(CLEAR_BELOW)
    mid = _share_max_below(CLEAR_BETWEEN[1]) - _share_max_below(CLEAR_BETWEEN[0])
    n_low = round(n * low / (low + mid))
    problems = [problem_below(rng, CLEAR_BELOW) for _ in range(n_low)]
    problems += [problem_below(rng, CLEAR_BETWEEN[1], CLEAR_BETWEEN[0]) for _ in range(n - n_low)]
    rng.shuffle(problems)
    return problems


def fault_problems(n: int) -> list[tuple[float, float]]:
    """n fixed problems inside the default_for fault band; no seed involved."""
    rng = random.Random("default_for fault band")
    problems = []
    while len(problems) < n:
        k, mu = _log_uniform(rng, FAULT_SCALES[1]), _log_uniform(rng, FAULT_SCALES[1])
        if max(k, mu) >= FAULT_SCALES[0]:
            problems.append((k, -mu * mu))
    return problems


def spawn(argv: list[str], stdout, stderr) -> tuple[int, int, int]:
    """Run argv to completion from the checkout root.

    Returns (exit code, wall ns, the child's peak RSS in KiB).
    """
    start = time.perf_counter_ns()
    proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, cwd=ROOT, env=CHILD_ENV)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter_ns() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


class InProcess:
    """Shared behaviour of the workloads that call the library in this process."""

    ops: list

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def run_traced(self, tracer, ops) -> list:
        tracer.install()
        try:
            return [self.execute(op) for op in ops]
        finally:
            tracer.uninstall()


class Crosscheck(InProcess):
    """One problem through every route: the paper's three-route comparison."""

    name = "crosscheck"
    trace_rounds = 3
    trace_stride = 1

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        n_seeded = max(2, round(400 * scale))
        seeded = seeded_problems(random.Random(f"crosscheck-{seed}"), n_seeded)
        fault = iter(fault_problems(n_seeded // 2))
        # Every third operation is a fault-band problem.
        self.ops = []
        for i, problem in enumerate(seeded):
            self.ops.append(problem)
            if i % 2 == 1:
                self.ops.append(next(fault))

    def execute(self, op):
        k, e0 = op
        try:
            p = ds.ScatteringProblem(k=k, e0=e0)
            schedule_for = ds.EpsilonSchedule.default_for
            return (
                p.log_x,
                ds.cross_section_closed(p).sigma,
                ds.cross_section_partial_wave(p, 0).sigma,
                ds.cross_section_partial_wave(p, 100).sigma,
                tuple(
                    ds.limit_extrapolate(p, schedule_for(p), mode)
                    for mode in ds.RegularizationMode
                ),
            )
        except (ValueError, ArithmeticError) as exc:
            return (type(exc).__name__, str(exc))

    def fingerprint(self, op, raw):
        return raw

    def failed(self, fp) -> bool:
        return isinstance(fp[0], str) or not all(est.converged for est in fp[4])

    def units(self, op) -> int:
        return 1

    def check(self, fps) -> list[str]:
        import checks

        errors = []
        for (k, e0), fp in zip(self.ops, fps):
            if not self.failed(fp):
                errors += checks.check_routes(k, e0, *fp)
        return errors


class Sweep(InProcess):
    """In-process `sweep` tables that cross the resonance k = sqrt(-e0)."""

    name = "sweep"
    trace_rounds = 1
    # Every fourth table: a traced row records six spans.
    trace_stride = 4
    # A fixed ladder of table sizes, 5 000 to 50 000 rows in steps of 10^(1/15).
    # The steps are finer than the speed swings of a shared 2-core host (up to
    # about 1.5x), so the latency percentiles move smoothly with those swings
    # instead of jumping between clusters.  The largest table dominates peak RSS.
    sizes = tuple(round(5000 * 10 ** (i / 15)) for i in range(16))

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        rng = random.Random(f"sweep-{seed}")
        self.ops = []
        for i, size in enumerate(self.sizes):
            points = max(10, round(size * scale))
            mu = 10.0 ** rng.uniform(-1.0, 1.0)
            e0 = -mu * mu
            k_min = mu / 10.0 ** rng.uniform(1.0, 2.0)
            k_max = mu * 10.0 ** rng.uniform(1.0, 2.0)
            path = RUN_DIR / f"sweep-{i}.csv"
            argv = [
                "sweep", f"--e0={e0!r}", "--k-min", repr(k_min), "--k-max", repr(k_max),
                "--points", str(points), "--output", str(path),
            ]
            self.ops.append((argv, path, e0, k_min, k_max, points))

    def execute(self, op):
        return cli.main(op[0])

    def fingerprint(self, op, raw):
        return raw, hashlib.sha256(op[1].read_bytes()).hexdigest()

    def failed(self, fp) -> bool:
        return fp[0] != 0

    def units(self, op) -> int:
        return op[5]

    def check(self, fps) -> list[str]:
        import checks

        errors = []
        for (_, path, *table), fp in zip(self.ops, fps):
            if not self.failed(fp):
                errors += checks.check_sweep_table(path.read_text(encoding="ascii"), *table)
        return errors


class Cli:
    """Cold `python -m deltascatter` processes, one after another."""

    name = "cli"
    trace_rounds = 1
    trace_stride = 1

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        rng = random.Random(f"cli-{seed}")
        problems = iter(seeded_problems(rng, 6))
        runs = []
        for method in ("closed", "partial-wave"):
            for _ in range(2):
                runs.append(("cross-section", *next(problems), method))
        # The CLI keeps default_for's start but not its longer count, so its
        # FULL limit fails the stop test for every max(k, mu) above about 7.7:
        # the seeded limit runs stay below CLEAR_BELOW.
        for _ in range(2):
            runs.append(("cross-section", *problem_below(rng, CLEAR_BELOW), "limit"))
        for _ in range(2):
            runs.append(("limit-study", *problem_below(rng, CLEAR_BELOW), None))
        for _ in range(2):
            mu = math.sqrt(-next(problems)[1])
            k_range = (mu / 10.0 ** rng.uniform(0.5, 2.0), mu * 10.0 ** rng.uniform(0.5, 2.0), 200)
            runs.append(("sweep", k_range, -mu * mu, None))
        # Seed-independent invocations that exit 3 through the default_for fault.
        k, e0 = fault_problems(1)[0]
        runs += [("cross-section", k, e0, "limit"), ("limit-study", k, e0, None)]
        self.ops = []
        for i, (kind, a, e0, method) in enumerate(runs):
            if kind == "sweep":
                argv = [kind, f"--e0={e0!r}", "--k-min", repr(a[0]), "--k-max", repr(a[1]),
                        "--points", str(a[2])]
            else:
                argv = [kind, "--k", repr(a), f"--e0={e0!r}"]
            if method:
                argv += ["--method", method]
            self.ops.append((kind, a, e0, argv, RUN_DIR / f"cli-{i}.out", RUN_DIR / f"cli-{i}.err"))
        self.peak_child_kb = 0

    def execute(self, op, command=None):
        with open(op[4], "wb") as out, open(op[5], "wb") as err:
            code, _, rss_kb = spawn(command or [sys.executable, "-m", "deltascatter", *op[3]], out, err)
        self.peak_child_kb = max(self.peak_child_kb, rss_kb)
        return code

    def fingerprint(self, op, raw):
        return raw, op[4].read_bytes(), op[5].read_bytes()

    def failed(self, fp) -> bool:
        return fp[0] != 0

    def units(self, op) -> int:
        return 1

    def peak_rss_kb(self) -> int:
        return self.peak_child_kb

    def run_traced(self, tracer, ops) -> list:
        spans = [RUN_DIR / f"cli-{i}.spans" for i in range(len(ops))]
        raws = [self.execute(op, tracer.child_command(path, op[3])) for op, path in zip(ops, spans)]
        for path in spans:
            tracer.load(path)
        return raws

    def check(self, fps) -> list[str]:
        import checks

        errors = []
        for (kind, a, e0, argv, _, _), fp in zip(self.ops, fps):
            if self.failed(fp):
                continue
            text = fp[1].decode("ascii")
            if kind == "cross-section":
                errors += checks.check_cross_section_csv(text, a, e0, argv[-1])
            elif kind == "limit-study":
                errors += checks.check_limit_study_csv(text, a, e0)
            else:
                errors += checks.check_sweep_table(text, e0, *a)
        return errors


WORKLOADS = {w.name: w for w in (Sweep, Crosscheck, Cli)}
