"""Command-line front end emitting CSV tables.

Subcommands:

  cross-section  one (k, e0) pair, by any of the three routes
  limit-study    sigma(eps) trace down a cutoff schedule plus its limit
  sweep          closed-form observables over a geometric momentum grid

Exit codes: 0 success, 2 invalid input, 3 limit did not converge,
4 argument outside a function's accuracy domain (which includes the
singular points where an expression has no finite value, and a cross
section beyond the largest double).  sweep writes its rows as they are
computed; an error part way through keeps the rows already written.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from collections.abc import Iterable, Iterator

from .errors import DomainError, SingularityError, ValidationError
from .regularization import EpsilonSchedule, RegularizationMode, limit_extrapolate
from .scattering import (
    ScatteringProblem,
    cross_section_closed,
    cross_section_partial_wave,
    s_wave_phase_shift,
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


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValidationError(message)


def _schedule(args: argparse.Namespace, problem: ScatteringProblem) -> EpsilonSchedule:
    """The schedule the flags ask for; omitted flags come from default_for.

    The default count belongs to the default start: default_for counts
    the cutoffs that take max(k, mu)*eps from its start down to 7e-6, so
    its count is taken only when --eps-start is omitted too, and otherwise
    the count defaults to 5.
    """
    default = EpsilonSchedule.default_for(problem)
    if args.eps_start is None:
        eps_start, count = default.eps_start, default.count
    else:
        eps_start, count = args.eps_start, 5
    if args.eps_count is not None:
        count = args.eps_count
    return EpsilonSchedule(eps_start=eps_start, factor=args.eps_factor, count=count)


def run_cross_section(args: argparse.Namespace) -> tuple[list[str], int]:
    problem = ScatteringProblem(k=args.k, e0=args.e0)
    status = EXIT_OK
    if args.method == "closed":
        sigma = cross_section_closed(problem).sigma
    elif args.method == "partial-wave":
        sigma = cross_section_partial_wave(problem).sigma
    else:
        schedule = _schedule(args, problem)
        estimate = limit_extrapolate(problem, schedule, RegularizationMode(args.mode))
        sigma = estimate.sigma_limit
        if not estimate.converged:
            status = EXIT_NO_CONVERGENCE
    record = "%#.15g,%#.15g,%#.15g,%#.15g,%s,%#.15g\n" % (
        problem.k, problem.e0, problem.x, problem.log_x, args.method, sigma
    )
    return ["k,e0,x,ln_x,method,sigma\n", record], status


def run_limit_study(args: argparse.Namespace) -> tuple[list[str], int]:
    problem = ScatteringProblem(k=args.k, e0=args.e0)
    schedule = _schedule(args, problem)
    estimate = limit_extrapolate(problem, schedule, RegularizationMode(args.mode))
    sigma_closed = cross_section_closed(problem).sigma
    lines = ["eps,sigma_eps,abs_err_vs_closed\n"]
    for eps, sigma_eps in estimate.samples:
        lines.append(
            "%#.15g,%#.15g,%#.15g\n" % (eps, sigma_eps, abs(sigma_eps - sigma_closed))
        )
    lines.append(
        "limit,%#.15g,%#.15g\n" % (estimate.sigma_limit, estimate.error_estimate)
    )
    return lines, EXIT_OK if estimate.converged else EXIT_NO_CONVERGENCE


def _geometric_grid(k_min: float, k_max: float, points: int) -> Iterator[float]:
    """Geometrically spaced momenta with both endpoints exact."""
    log_min = math.log(k_min)
    step = (math.log(k_max) - log_min) / (points - 1)
    yield k_min
    for i in range(1, points - 1):
        yield math.exp(log_min + i * step)
    yield k_max


def _sweep_rows(e0: float, grid: Iterable[float]) -> Iterator[str]:
    yield "k,ln_x,delta0,sigma,sigma_times_k\n"
    for k in grid:
        problem = ScatteringProblem(k=k, e0=e0)
        sigma = cross_section_closed(problem).sigma
        delta0 = s_wave_phase_shift(problem).delta0
        yield _SWEEP_ROW % (k, problem.log_x, delta0, sigma, sigma * k)


def run_sweep(args: argparse.Namespace) -> tuple[Iterator[str], int]:
    """The sweep table as lazily computed lines, after checking every flag.

    Every flag is checked before the first line, --e0 by building the first
    row's problem, so a bad flag writes nothing; a later error ends the table.
    """
    _require(
        math.isfinite(args.k_min) and args.k_min > 0.0,
        f"--k-min must be finite and positive, got {args.k_min!r}",
    )
    _require(
        math.isfinite(args.k_max) and args.k_max > 0.0,
        f"--k-max must be finite and positive, got {args.k_max!r}",
    )
    _require(
        args.k_min < args.k_max,
        f"--k-min must be below --k-max, got {args.k_min!r} >= {args.k_max!r}",
    )
    _require(args.points >= 2, f"--points must be >= 2, got {args.points!r}")
    ScatteringProblem(k=args.k_min, e0=args.e0)
    grid = _geometric_grid(args.k_min, args.k_max, args.points)
    return _sweep_rows(args.e0, grid), EXIT_OK


def _add_problem_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--k", type=float, required=True, help="incident momentum")
    sub.add_argument(
        "--e0", type=float, required=True, help="bound-state energy, must be negative"
    )


def _add_schedule_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--mode",
        choices=sorted(mode.value for mode in RegularizationMode),
        default=RegularizationMode.FULL.value,
        help="how the cutoff bracket is evaluated",
    )
    sub.add_argument(
        "--eps-start",
        type=float,
        default=None,
        help="largest cutoff (default: 1e-2, shrunk to fit the series domain)",
    )
    sub.add_argument("--eps-factor", type=float, default=1e-1)
    sub.add_argument(
        "--eps-count",
        type=int,
        default=None,
        help="number of cutoffs (default: 5, or up to 7 when --eps-start is "
        "omitted, enough to take max(k, mu)*eps down to 7e-6)",
    )


def _add_output_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--output", default=None, help="write the table here instead of stdout"
    )


# What argparse from Python 3.13 on takes for the start of a negative number.
_NEGATIVE_NUMBER = re.compile(r"^-\.?\d")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads "-2.5e-3" as a value, not as a flag.

    Before Python 3.13 argparse only recognises negative numbers without an
    exponent, so "--e0 -2.5e-3" failed with "expected one argument".  No
    flag here starts like a number, so anything that does is a value.
    Subparsers inherit the parser class, and with it this rule.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="deltascatter",
        description=(
            "Total cross section for scattering from an attractive point "
            "interaction in two dimensions (hbar = 2m = 1 units)."
        ),
    )
    subparsers = parser.add_subparsers(dest="subcommand", required=True)

    cross = subparsers.add_parser(
        "cross-section", help="one (k, e0) pair by a chosen route"
    )
    cross.set_defaults(run=run_cross_section)
    _add_problem_flags(cross)
    cross.add_argument(
        "--method",
        choices=("closed", "partial-wave", "limit"),
        default="closed",
        help="route to the cross section",
    )
    _add_schedule_flags(cross)
    _add_output_flag(cross)

    study = subparsers.add_parser(
        "limit-study", help="sigma(eps) trace down a cutoff schedule"
    )
    study.set_defaults(run=run_limit_study)
    _add_problem_flags(study)
    _add_schedule_flags(study)
    _add_output_flag(study)

    sweep = subparsers.add_parser(
        "sweep", help="closed-form observables over a momentum grid"
    )
    sweep.set_defaults(run=run_sweep)
    sweep.add_argument(
        "--e0", type=float, required=True, help="bound-state energy, must be negative"
    )
    sweep.add_argument("--k-min", type=float, required=True)
    sweep.add_argument("--k-max", type=float, required=True)
    sweep.add_argument("--points", type=int, default=9)
    _add_output_flag(sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags and 0 on --help; surface either
        # as a return value so callers always get an int.
        return int(exc.code or 0)
    try:
        lines, status = args.run(args)
        if args.output is None:
            sys.stdout.writelines(lines)
            sys.stdout.flush()
        else:
            with open(args.output, "w", encoding="ascii", newline="\n") as handle:
                handle.writelines(lines)
    except ValidationError as exc:
        field, space, rest = str(exc).partition(" ")
        print(f"error: {_FLAGS.get(field, field)}{space}{rest}", file=sys.stderr)
        return EXIT_VALIDATION
    except (DomainError, SingularityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except BrokenPipeError:
        # The reader has gone, so nothing more can be delivered: stop
        # quietly.  What stdout still buffers goes to devnull, so the
        # interpreter's final flush cannot fail again.
        if args.output is None:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return EXIT_OK
    if status == EXIT_NO_CONVERGENCE:
        print("warning: limit did not converge to relative 1e-08", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
