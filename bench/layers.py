"""Per-layer measurements, the same on every workload's traced run.

Per-call times come from timing calls into each layer's public functions,
untraced, over the arguments the `crosscheck` round produces (median of
several passes; each includes the timing loop's own call overhead of
roughly 50-100 ns).  The `cli.sweep.*` figures come from one table of the
`sweep` workload, and the `process.*` figures from fresh interpreters.
"""

from __future__ import annotations

import operator
import os
import statistics
import subprocess
import sys
import time

import deltascatter as ds
import deltascatter.cli as cli

from workloads import RUN_DIR, Cli, Crosscheck, Sweep, spawn

IMPORT_MODULES = (
    "deltascatter",
    "deltascatter.errors",
    "deltascatter.special_functions",
    "deltascatter.scattering",
    "deltascatter.regularization",
    "deltascatter.cli",
    "dataclasses",
    "inspect",
    "argparse",
)

# Metric names are at most 64 characters, which "truncated-log" would pass.
MODE_KEYS = {"full": "full", "asymptotic": "asymptotic", "truncated-log": "trunc-log"}
KERNELS = ("bessel_j0", "bessel_y0", "bessel_k0", "hankel1_0", "k0_small_z", "hankel1_0_small_z")


def _per_call_ns(call, items, repeats: int) -> float:
    passes = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        for item in items:
            call(item)
        passes.append((time.perf_counter_ns() - start) / len(items))
    return statistics.median(passes)


class LayerSuite:
    def __init__(self, seed: int, scale: float, repeats: int) -> None:
        self.seed = seed
        self.scale = scale
        self.repeats = repeats
        self.metrics: dict[str, tuple[float | None, str]] = {}
        self.absent: list[str] = []
        self.errors: list[str] = []

    def timed(self, name: str, unit: str, owner, attr: str, make_call, items, per: float = 1.0):
        fn = getattr(owner, attr, None)
        if fn is None:
            self.absent.append(name)
            self.metrics[name] = (None, unit)
            return
        self.metrics[name] = (_per_call_ns(make_call(fn), items, self.repeats) / per, unit)

    def run(self) -> dict[str, tuple[float | None, str]]:
        self.library()
        self.cli_layer()
        self.process()
        return self.metrics

    def library(self) -> None:
        import checks

        problems = [ds.ScatteringProblem(k=k, e0=e0) for k, e0 in Crosscheck(self.seed, self.scale).ops]
        schedules = [ds.EpsilonSchedule.default_for(p) for p in problems]
        # sigma(eps) evaluates K0 at mu*eps and H0 at k*eps.
        cutoffs = [(p, eps) for p, s in zip(problems, schedules) for eps in s.epsilons()]
        z_mu = [p.bound_state_scale * eps for p, eps in cutoffs]
        z_k = [p.k * eps for p, eps in cutoffs]
        sf = ds.special_functions
        for name in KERNELS:
            zs = z_mu if name in ("bessel_k0", "k0_small_z") else z_k
            self.timed(f"special_functions.{name}.ns_per_call", "ns", sf, name, lambda f: f, zs)
        if not self.absent:
            picked = range(0, len(z_k), max(1, len(z_k) // 64))
            zs = [z_k[i] for i in picked] + [z_mu[i] for i in picked]
            hankels = [sf.hankel1_0(z) for z in zs]
            self.errors += checks.check_bessel(
                zs, [sf.bessel_j0(z) for z in zs], [sf.bessel_y0(z) for z in zs],
                [sf.bessel_k0(z) for z in zs],
                [(h.real, h.imag) if isinstance(h, complex) else (h.re, h.im) for h in hankels],
            )
        reg = ds.regularization
        for mode in ds.RegularizationMode:
            key = MODE_KEYS[mode.value]
            self.timed(
                f"regularization.regularized_cross_section.{key}.ns_per_call", "ns",
                reg, "regularized_cross_section",
                lambda f, m=mode: lambda c: f(c[0], c[1], m), cutoffs,
            )
            self.timed(
                f"regularization.limit_extrapolate.{key}.us_per_call", "us",
                reg, "limit_extrapolate",
                lambda f, m=mode: lambda ps: f(ps[0], ps[1], m), list(zip(problems, schedules)),
                per=1e3,
            )
        self.timed("regularization.default_for.ns_per_call", "ns", ds.EpsilonSchedule,
                   "default_for", lambda f: f, problems)
        inputs = [(p.k, p.e0) for p in problems]
        sc = ds.scattering
        self.timed("scattering.problem_init.ns_per_call", "ns", sc, "ScatteringProblem",
                   lambda f: lambda ke: f(*ke), inputs)
        self.timed("scattering.log_x.ns_per_access", "ns", sc.ScatteringProblem, "log_x",
                   lambda _: operator.attrgetter("log_x"), problems)
        for name in ("cross_section_closed", "s_wave_phase_shift"):
            self.timed(f"scattering.{name}.ns_per_call", "ns", sc, name, lambda f: f, problems)
        for m_max in (0, 100):
            self.timed(f"scattering.cross_section_partial_wave.m{m_max}.ns_per_call", "ns", sc,
                       "cross_section_partial_wave", lambda f, m=m_max: lambda p: f(p, m), problems)

    def cli_layer(self) -> None:
        argvs = [op[3] for op in Cli(self.seed, self.scale).ops]
        self.timed("cli.parse.us_per_call", "us", cli, "build_parser",
                   lambda f: lambda argv: f().parse_args(argv), argvs, per=1e3)
        # A sweep row costs main's own work (formatting, joining, writing)
        # plus these scattering calls; time both untraced over one table.
        argv, path, e0, _, _, points = Sweep(self.seed, self.scale).ops[len(Sweep.sizes) // 2]
        cli.main(argv)
        ks = [float(line.split(",", 1)[0]) for line in path.read_text().splitlines()[1:]]
        self.metrics["cli.sweep.output_bytes_per_row"] = (os.path.getsize(path) / points, "bytes")
        sc = ds.scattering
        names = ("ScatteringProblem", "cross_section_closed", "s_wave_phase_shift")
        if not all(hasattr(sc, n) for n in names) or not hasattr(sc.ScatteringProblem(1.0, -1.0), "log_x"):
            self.absent.append("cli.sweep.self_ns_per_row")
            self.metrics["cli.sweep.self_ns_per_row"] = (None, "ns")
            return
        problem, closed, phase = (getattr(sc, n) for n in names)
        main_ns, scattering_ns = [], []
        for _ in range(self.repeats):
            start = time.perf_counter_ns()
            cli.main(argv)
            main_ns.append(time.perf_counter_ns() - start)
            start = time.perf_counter_ns()
            for k in ks:
                p = problem(k=k, e0=e0)
                closed(p)
                phase(p)
                p.log_x
            scattering_ns.append(time.perf_counter_ns() - start)
        own = statistics.median(main_ns) - statistics.median(scattering_ns)
        self.metrics["cli.sweep.self_ns_per_row"] = (own / points, "ns")

    def process(self) -> None:
        exe = sys.executable
        bare = [spawn([exe, "-c", "pass"], subprocess.DEVNULL, subprocess.DEVNULL)[1]
                for _ in range(self.repeats)]
        self.metrics["process.interpreter_ms"] = (statistics.median(bare) / 1e6, "ms")
        code = ("import time; t = time.perf_counter_ns(); import deltascatter.cli; "
                "print(time.perf_counter_ns() - t)")
        out_path = RUN_DIR / "import-out"
        imports, per_module = [], {m: [] for m in IMPORT_MODULES}
        for _ in range(self.repeats):
            with open(out_path, "wb") as out:
                spawn([exe, "-c", code], out, subprocess.DEVNULL)
            imports.append(int(out_path.read_text()))
            with open(out_path, "wb") as err:
                spawn([exe, "-X", "importtime", "-c", "import deltascatter.cli"], subprocess.DEVNULL, err)
            cumulative = {}
            for line in out_path.read_text().splitlines():
                if line.startswith("import time:") and "|" in line:
                    _, cum, module = (part.strip() for part in line[len("import time:"):].split("|"))
                    if cum.isdigit():
                        cumulative[module] = int(cum)
            for module in IMPORT_MODULES:
                per_module[module].append(cumulative.get(module, 0))
        self.metrics["process.import_ms"] = (statistics.median(imports) / 1e6, "ms")
        for module, values in per_module.items():
            self.metrics[f"process.import.{module}_us"] = (statistics.median(values), "us")


def op_metrics(tracer, n_ops: int) -> dict[str, tuple[float, str]]:
    """Per-operation counts and self time from the spans of traced rounds."""
    calls = samples = regularization_self_ns = 0
    for name, (count, _, own) in tracer.summary().items():
        if name.startswith("special_functions."):
            calls += count
        elif name.startswith("regularization."):
            regularization_self_ns += own
            if name.startswith("regularization.regularized_cross_section."):
                samples += count
    return {
        "special_functions.calls_per_op": (calls / n_ops, "count"),
        "regularization.samples_per_op": (samples / n_ops, "count"),
        "regularization.self_us_per_op": (regularization_self_ns / n_ops / 1e3, "us"),
    }
