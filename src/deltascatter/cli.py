"""Command-line front end emitting CSV tables.

Subcommands:

  cross-section  one (k, e0) pair, by any of the three routes
  limit-study    sigma(eps) trace down a cutoff schedule plus its limit
  sweep          closed-form observables over a geometric momentum grid

Exit codes: 0 success, 2 invalid input or an output (stdout or --output)
that cannot be opened or written, 3 limit did not converge,
4 argument outside a function's accuracy domain (which includes the
singular points where an expression has no finite value, and a cross
section beyond the largest double).  sweep writes rows from the closed-form
kernels as they are computed; an error part way through keeps the rows
already written.  limit-study samples its schedule twice in flat memory:
once for the estimate and every error, before the first byte, and once
more for the rows as they are written.
"""

import argparse
import contextlib
import io
import itertools
import math
import os
import re
import sys
from collections import deque
from collections.abc import Callable, Iterable, Iterator

from .errors import DomainError, ValidationError
from .regularization import (
    EpsilonSchedule, LimitEstimate, RegularizationMode, _fold_limit, _sigma_trace
)
from .scattering import (
    ScatteringProblem,
    _closed_sigma,
    _delta0,
    _ln_x,
    cross_section_closed,
    cross_section_partial_wave,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3
EXIT_DOMAIN = 4

# One sweep row: k, ln x, delta0, sigma, sigma*k.  "%#.15g" formats a
# float exactly as format(value, "#.15g") does, in one call per row.
_SWEEP_ROW = ",".join(["%#.15g"] * 5) + "\n"

# The flag that sets each field a library ValidationError names first.
_FLAGS = {
    "k": "--k",
    "e0": "--e0",
    "eps_start": "--eps-start",
    "factor": "--eps-factor",
    "count": "--eps-count",
}


def _limit(
    args: argparse.Namespace, problem: ScatteringProblem
) -> tuple[LimitEstimate, Callable[[], Iterator[tuple[float, float]]]]:
    """limit_extrapolate's estimate down the schedule the flags ask for, folded
    from its last two samples, and a callable that traces that schedule again.

    Without --eps-start the schedule is default_for's at --eps-factor; with
    it the count is 5, since default_for's count belongs to its own start.
    --eps-count replaces either count.
    """
    if args.eps_start is None:
        schedule = EpsilonSchedule.default_for(problem, args.eps_factor)
    else:
        schedule = EpsilonSchedule(args.eps_start, args.eps_factor, 5)
    if args.eps_count is not None:
        schedule = schedule._replace(count=args.eps_count)
    mode = RegularizationMode(args.mode)
    trace = lambda: _sigma_trace(problem, schedule.epsilons(), mode)
    return _fold_limit(tuple(deque(trace(), 2)), schedule.factor), trace


def run_cross_section(
    args: argparse.Namespace,
) -> tuple[list[str], LimitEstimate | None]:
    problem = ScatteringProblem(k=args.k, e0=args.e0)
    estimate = None
    if args.method == "closed":
        sigma = cross_section_closed(problem).sigma
    elif args.method == "partial-wave":
        sigma = cross_section_partial_wave(problem).sigma
    else:
        estimate, _ = _limit(args, problem)
        sigma = estimate.sigma_limit
    record = "%#.15g,%#.15g,%#.15g,%#.15g,%s,%#.15g\n" % (
        problem.k, problem.e0, problem.x, problem.log_x, args.method, sigma
    )
    return ["k,e0,x,ln_x,method,sigma\n", record], estimate


def run_limit_study(args: argparse.Namespace) -> tuple[Iterator[str], LimitEstimate]:
    """The trace, sampled again as its rows are written: the first pass has
    raised every error and settled the estimate before the first byte."""
    problem = ScatteringProblem(k=args.k, e0=args.e0)
    estimate, trace = _limit(args, problem)
    sigma_closed = cross_section_closed(problem).sigma
    rows = (
        "%#.15g,%#.15g,%#.15g\n" % (eps, sigma_eps, abs(sigma_eps - sigma_closed))
        for eps, sigma_eps in trace()
    )
    limit = "limit,%#.15g,%#.15g\n" % (estimate.sigma_limit, estimate.error_estimate)
    return itertools.chain(["eps,sigma_eps,abs_err_vs_closed\n"], rows, [limit]), estimate


def _geometric_grid(k_min: float, k_max: float, points: int) -> Iterator[float]:
    """Geometrically spaced momenta with both endpoints exact."""
    log_min = math.log(k_min)
    step = (math.log(k_max) - log_min) / (points - 1)
    yield k_min
    for i in range(1, points - 1):
        yield math.exp(log_min + i * step)
    yield k_max


def _sweep_rows(problem: ScatteringProblem, grid: Iterable[float]) -> Iterator[str]:
    """Rows from the object API's kernels, with no object per row: problem
    holds the checked e0 and its mu, and every grid k lies between checked
    endpoints, the first of which is problem.k."""
    yield "k,ln_x,delta0,sigma,sigma_times_k\n"
    e0, mu = problem.e0, problem.bound_state_scale
    for k in grid:
        log_x = _ln_x(mu, k)
        sigma = _closed_sigma(k, e0, log_x)
        yield _SWEEP_ROW % (k, log_x, _delta0(log_x), sigma, sigma * k)


def run_sweep(args: argparse.Namespace) -> tuple[Iterator[str], None]:
    """The sweep table as lazily computed lines, after checking every flag.

    Every flag is checked before the first line, --e0 by building the
    problem at --k-min, whose e0 and mu every row then reads, so a bad flag
    writes nothing; a later error ends the table.
    """
    for flag, k in (("--k-min", args.k_min), ("--k-max", args.k_max)):
        if not (math.isfinite(k) and k > 0.0):
            raise ValidationError(f"{flag} must be finite and positive, got {k!r}")
    if args.k_min >= args.k_max:
        raise ValidationError(
            f"--k-min must be below --k-max, got {args.k_min!r} >= {args.k_max!r}"
        )
    if args.points < 2:
        raise ValidationError(f"--points must be >= 2, got {args.points!r}")
    problem = ScatteringProblem(k=args.k_min, e0=args.e0)
    grid = _geometric_grid(args.k_min, args.k_max, args.points)
    return _sweep_rows(problem, grid), None


# Each flag's add_argument keywords, and each subcommand's summary, runner
# and flags in help order.
_ARGUMENTS = {
    "--k": dict(type=float, required=True, help="incident momentum"),
    "--e0": dict(type=float, required=True,
                 help="bound-state energy, must be negative"),
    "--method": dict(choices=("closed", "partial-wave", "limit"), default="closed",
                     help="route to the cross section"),
    "--mode": dict(choices=sorted(mode.value for mode in RegularizationMode),
                   default=RegularizationMode.FULL.value,
                   help="how the cutoff bracket is evaluated"),
    "--eps-start": dict(type=float, help="largest cutoff (default: 1e-2, shrunk "
                        "to fit the series domain)"),
    "--eps-factor": dict(type=float, default=1e-1, help="ratio of each cutoff to "
                         "the one before, in (0, 1)"),
    "--eps-count": dict(type=int, help="number of cutoffs (default: 5 with "
                        "--eps-start, otherwise enough at --eps-factor to take "
                        "max(k, mu)*eps down to 7e-6)"),
    "--k-min": dict(type=float, required=True, help="smallest momentum of the grid"),
    "--k-max": dict(type=float, required=True, help="largest momentum of the grid"),
    "--points": dict(type=int, default=9, help="number of grid momenta, at least 2"),
    "--output": dict(help="write the table here instead of stdout"),
}
_SUBCOMMANDS = {
    "cross-section": (
        "one (k, e0) pair by a chosen route", run_cross_section,
        "--k --e0 --method --mode --eps-start --eps-factor --eps-count --output",
    ),
    "limit-study": (
        "sigma(eps) trace down a cutoff schedule", run_limit_study,
        "--k --e0 --mode --eps-start --eps-factor --eps-count --output",
    ),
    "sweep": (
        "closed-form observables over a momentum grid", run_sweep,
        "--e0 --k-min --k-max --points --output",
    ),
}


# argparse's own negative-number rule takes no exponent (checked on CPython
# 3.10.13, 3.11.7, 3.12.1, 3.13.0 and 3.13.13), so "--e0 -2.5e-3" would fail.
# No flag here starts like a number: every parser, the root one included,
# reads anything that does as a value.
_NEGATIVE_NUMBER = re.compile(r"^-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltascatter",
        description=(
            "Total cross section for scattering from an attractive point "
            "interaction in two dimensions (hbar = 2m = 1 units)."
        ),
    )
    parser._negative_number_matcher = _NEGATIVE_NUMBER
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    for name, (summary, run, flags) in _SUBCOMMANDS.items():
        sub = subparsers.add_parser(name, help=summary)
        sub._negative_number_matcher = _NEGATIVE_NUMBER
        sub.set_defaults(run=run)
        for flag in flags.split():
            sub.add_argument(flag, **_ARGUMENTS[flag])
    return parser


# Built once: a parser per call is cyclic garbage that only gc.collect frees.
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags and 0 on --help; surface either
        # as a return value so callers always get an int.
        return int(exc.code or 0)
    try:
        lines, estimate = args.run(args)
        with (contextlib.nullcontext(sys.stdout) if args.output is None
              else open(args.output, "w", encoding="ascii", newline="\n")) as handle:
            try:
                handle.writelines(lines)
            finally:
                handle.flush()
    except ValidationError as exc:
        field, space, rest = str(exc).partition(" ")
        print(f"error: {_FLAGS.get(field, field)}{space}{rest}", file=sys.stderr)
        return EXIT_VALIDATION
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        # What stdout still buffers goes to devnull, so the final flush
        # cannot fail again; a reader that has gone ends the run quietly.
        # A stdout with no descriptor, such as an in-process caller's
        # StringIO, has none to redirect, and the caller owns what it holds.
        if args.output is None:
            with contextlib.suppress(io.UnsupportedOperation):
                stdout_fd = sys.stdout.fileno()
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, stdout_fd)
                os.close(devnull)
        if isinstance(exc, BrokenPipeError):
            return EXIT_OK
        target = "stdout" if args.output is None else f"--output {args.output!r}"
        # open() names the file it failed on; a failed write names none.
        failed = "written" if exc.filename is None else "opened"
        print(f"error: {target} cannot be {failed}: {exc.strerror}", file=sys.stderr)
        return EXIT_VALIDATION
    if estimate is None or estimate.converged:
        return EXIT_OK
    sys.stderr.write("warning: limit did not converge to relative %g\n" % estimate.rtol)
    return EXIT_NO_CONVERGENCE
