"""Spans around the public functions of each deltascatter layer.

install() replaces each traced function everywhere a deltascatter module
binds it, so callers see the wrapper under the name they already use, for
example deltascatter.regularization.hankel1_0 or
deltascatter.cli.cross_section_closed.  A span is (name, start, end, parent)
and lives in memory until write().  A name that a later version of the
program no longer defines is listed in `absent` instead of failing.
"""

from __future__ import annotations

import functools
import pathlib
import sys
import time
from array import array

# (span name, defining module, attribute, how to name one call's span)
_FUNCTIONS = [
    ("special_functions.bessel_j0", "special_functions", "bessel_j0", None),
    ("special_functions.bessel_y0", "special_functions", "bessel_y0", None),
    ("special_functions.bessel_k0", "special_functions", "bessel_k0", None),
    ("special_functions.hankel1_0", "special_functions", "hankel1_0", None),
    ("special_functions.k0_small_z", "special_functions", "k0_small_z", None),
    ("special_functions.hankel1_0_small_z", "special_functions", "hankel1_0_small_z", None),
    ("regularization.regularized_cross_section", "regularization",
     "regularized_cross_section", lambda a, kw: (a[2] if len(a) > 2 else kw["mode"]).value),
    ("regularization.limit_extrapolate", "regularization",
     "limit_extrapolate", lambda a, kw: (a[2] if len(a) > 2 else kw["mode"]).value),
    ("scattering.cross_section_closed", "scattering", "cross_section_closed", None),
    ("scattering.s_wave_phase_shift", "scattering", "s_wave_phase_shift", None),
    ("scattering.cross_section_partial_wave", "scattering", "cross_section_partial_wave",
     lambda a, kw: f"m{a[1] if len(a) > 1 else kw.get('m_max', 0)}"),
    ("cli.main", "cli", "main", None),
]

# (span name, defining module, class, attribute)
_CLASS_ATTRS = [
    ("regularization.default_for", "regularization", "EpsilonSchedule", "default_for"),
    ("scattering.problem_init", "scattering", "ScatteringProblem", "__init__"),
    ("scattering.log_x", "scattering", "ScatteringProblem", "log_x"),
]

_BENCH = str(pathlib.Path(__file__).resolve().parent)
_BOOT = "import sys; sys.path.insert(0, {bench!r}); import tracer; tracer.run_cli_traced({path!r})"


def _modules() -> list:
    return [m for n, m in list(sys.modules.items()) if n == "deltascatter" or n.startswith("deltascatter.")]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("l")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self._current = -1
        self._undo: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, suffix=None):
        fixed = self._id(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = fixed if suffix is None else self._id(f"{name}.{suffix(args, kwargs)}")
            idx = len(self.start)
            self.name_of.append(nid)
            self.parent.append(self._current)
            self.end.append(0)
            self._current = idx
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._current = self.parent[idx]

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = _modules()
        for name, module, attr, suffix in _FUNCTIONS:
            original = getattr(sys.modules.get(f"deltascatter.{module}"), attr, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self.wrap(name, original, suffix)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        for name, module, cls_name, attr in _CLASS_ATTRS:
            cls = getattr(sys.modules.get(f"deltascatter.{module}"), cls_name, None)
            original = getattr(cls, "__dict__", {}).get(attr)
            if original is None:
                self.absent.append(name)
            elif isinstance(original, classmethod):
                self._set(cls, attr, classmethod(self.wrap(name, original.__func__)))
            elif hasattr(original, "__get__") and not callable(original):
                self._set(cls, attr, property(self.wrap(name, original.__get__)))
            else:
                self._set(cls, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def child_command(self, path, cli_args: list[str]) -> list[str]:
        """A `python -m deltascatter` command whose process records its spans to path."""
        return [sys.executable, "-c", _BOOT.format(bench=_BENCH, path=str(path)), *cli_args]

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as out:
            out.write("name,start_ns,end_ns,parent\n")
            for i in range(len(self.start)):
                out.write(f"{self.names[self.name_of[i]]},{self.start[i]},{self.end[i]},{self.parent[i]}\n")

    def load(self, path) -> None:
        """Append the spans another process wrote, keeping parents consistent."""
        offset = len(self.start)
        with open(path, encoding="ascii") as spans:
            next(spans)
            for line in spans:
                name, start, end, parent = line.rstrip("\n").split(",")
                parent = int(parent)
                self.name_of.append(self._id(name))
                self.start.append(int(start))
                self.end.append(int(end))
                self.parent.append(parent + offset if parent >= 0 else -1)

    def summary(self) -> dict[str, tuple[int, int, int]]:
        """name -> (calls, total ns, self ns); self time excludes child spans."""
        child_ns = [0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        out: dict[str, list[int]] = {}
        for i, nid in enumerate(self.name_of):
            duration = self.end[i] - self.start[i]
            entry = out.setdefault(self.names[nid], [0, 0, 0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - child_ns[i]
        return {name: tuple(v) for name, v in out.items()}


def run_cli_traced(path: str) -> None:
    """Body of a traced `python -m deltascatter` child; see Tracer.child_command."""
    import runpy

    import deltascatter.cli  # noqa: F401  (the tracer patches loaded modules)

    tracer = Tracer()
    tracer.install()
    try:
        runpy.run_module("deltascatter", run_name="__main__", alter_sys=True)
    finally:
        tracer.uninstall()
        tracer.write(path)
