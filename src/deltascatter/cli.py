"""Command-line front end emitting CSV tables.

Subcommands:

  cross-section  one (k, e0) pair, by any of the three routes
  limit-study    sigma(eps) trace down a cutoff schedule plus its limit
  sweep          closed-form observables over a geometric momentum grid

Exit codes: 0 success, 2 invalid input, 3 limit did not converge,
4 argument outside a function's accuracy domain (which includes the
singular points where an expression has no finite value).
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import dataclass

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

_MODES = {mode.value: mode for mode in RegularizationMode}


@dataclass(frozen=True)
class RunConfig:
    """Everything one invocation needs; only subcommand-relevant fields are used."""

    subcommand: str
    k: float | None = None
    e0: float | None = None
    method: str = "closed"
    mode: RegularizationMode = RegularizationMode.FULL
    eps_start: float | None = None
    eps_factor: float = 1e-1
    eps_count: int | None = None
    k_min: float | None = None
    k_max: float | None = None
    points: int | None = None
    output_path: str | None = None


def _fmt(value: float) -> str:
    """15 significant digits with trailing zeros kept; locale-free."""
    return format(value, "#.15g")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValidationError(message)


def _problem(cfg: RunConfig) -> ScatteringProblem:
    _require(
        cfg.k is not None and math.isfinite(cfg.k) and cfg.k > 0.0,
        f"--k must be finite and positive, got {cfg.k!r}",
    )
    _require(
        cfg.e0 is not None and math.isfinite(cfg.e0) and cfg.e0 < 0.0,
        f"--e0 must be negative (a bound state needs e0 < 0), got {cfg.e0!r}",
    )
    return ScatteringProblem(k=cfg.k, e0=cfg.e0)


def _schedule(cfg: RunConfig, problem: ScatteringProblem) -> EpsilonSchedule:
    """The schedule the flags ask for; omitted flags come from default_for.

    The default count belongs to the default start: default_for lengthens
    the schedule as it shrinks the start, so its count is taken only when
    --eps-start is omitted too, and otherwise the count defaults to 5.
    """
    default = EpsilonSchedule.default_for(problem)
    if cfg.eps_start is None:
        eps_start = default.eps_start
    else:
        _require(
            math.isfinite(cfg.eps_start) and cfg.eps_start > 0.0,
            f"--eps-start must be finite and positive, got {cfg.eps_start!r}",
        )
        eps_start = cfg.eps_start
    _require(
        0.0 < cfg.eps_factor < 1.0,
        f"--eps-factor must lie in (0, 1), got {cfg.eps_factor!r}",
    )
    if cfg.eps_count is None:
        count = default.count if cfg.eps_start is None else 5
    else:
        _require(cfg.eps_count >= 2, f"--eps-count must be >= 2, got {cfg.eps_count!r}")
        count = cfg.eps_count
    return EpsilonSchedule(eps_start=eps_start, factor=cfg.eps_factor, count=count)


def run_cross_section(cfg: RunConfig) -> tuple[list[str], int]:
    problem = _problem(cfg)
    status = EXIT_OK
    if cfg.method == "closed":
        sigma = cross_section_closed(problem).sigma
    elif cfg.method == "partial-wave":
        sigma = cross_section_partial_wave(problem).sigma
    else:
        estimate = limit_extrapolate(problem, _schedule(cfg, problem), cfg.mode)
        sigma = estimate.sigma_limit
        if not estimate.converged:
            status = EXIT_NO_CONVERGENCE
    record = [
        _fmt(problem.k),
        _fmt(problem.e0),
        _fmt(problem.x),
        _fmt(problem.log_x),
        cfg.method,
        _fmt(sigma),
    ]
    return ["k,e0,x,ln_x,method,sigma", ",".join(record)], status


def run_limit_study(cfg: RunConfig) -> tuple[list[str], int]:
    problem = _problem(cfg)
    estimate = limit_extrapolate(problem, _schedule(cfg, problem), cfg.mode)
    sigma_closed = cross_section_closed(problem).sigma
    lines = ["eps,sigma_eps,abs_err_vs_closed"]
    for eps, sigma_eps in estimate.samples:
        lines.append(
            f"{_fmt(eps)},{_fmt(sigma_eps)},{_fmt(abs(sigma_eps - sigma_closed))}"
        )
    lines.append(f"limit,{_fmt(estimate.sigma_limit)},{_fmt(estimate.error_estimate)}")
    return lines, EXIT_OK if estimate.converged else EXIT_NO_CONVERGENCE


def _geometric_grid(k_min: float, k_max: float, points: int) -> list[float]:
    """Geometrically spaced momenta with both endpoints exact."""
    log_min = math.log(k_min)
    step = (math.log(k_max) - log_min) / (points - 1)
    grid = [k_min]
    for i in range(1, points - 1):
        grid.append(math.exp(log_min + i * step))
    grid.append(k_max)
    return grid


def run_sweep(cfg: RunConfig) -> tuple[list[str], int]:
    _require(
        cfg.e0 is not None and math.isfinite(cfg.e0) and cfg.e0 < 0.0,
        f"--e0 must be negative (a bound state needs e0 < 0), got {cfg.e0!r}",
    )
    _require(
        cfg.k_min is not None and math.isfinite(cfg.k_min) and cfg.k_min > 0.0,
        f"--k-min must be finite and positive, got {cfg.k_min!r}",
    )
    _require(
        cfg.k_max is not None and math.isfinite(cfg.k_max) and cfg.k_max > 0.0,
        f"--k-max must be finite and positive, got {cfg.k_max!r}",
    )
    _require(
        cfg.k_min < cfg.k_max,
        f"--k-min must be below --k-max, got {cfg.k_min!r} >= {cfg.k_max!r}",
    )
    _require(
        cfg.points is not None and cfg.points >= 2,
        f"--points must be >= 2, got {cfg.points!r}",
    )
    lines = ["k,ln_x,delta0,sigma,sigma_times_k"]
    for k in _geometric_grid(cfg.k_min, cfg.k_max, cfg.points):
        problem = ScatteringProblem(k=k, e0=cfg.e0)
        sigma = cross_section_closed(problem).sigma
        delta0 = s_wave_phase_shift(problem).delta0
        lines.append(
            ",".join(
                [
                    _fmt(k),
                    _fmt(problem.log_x),
                    _fmt(delta0),
                    _fmt(sigma),
                    _fmt(sigma * k),
                ]
            )
        )
    return lines, EXIT_OK


def _add_problem_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--k", type=float, required=True, help="incident momentum")
    sub.add_argument(
        "--e0", type=float, required=True, help="bound-state energy, must be negative"
    )


def _add_schedule_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--mode",
        choices=sorted(_MODES),
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
        help="number of cutoffs (default: 5, or more when --eps-start is "
        "omitted and the start was shrunk)",
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
    _add_problem_flags(study)
    _add_schedule_flags(study)
    _add_output_flag(study)

    sweep = subparsers.add_parser(
        "sweep", help="closed-form observables over a momentum grid"
    )
    sweep.add_argument(
        "--e0", type=float, required=True, help="bound-state energy, must be negative"
    )
    sweep.add_argument("--k-min", type=float, required=True)
    sweep.add_argument("--k-max", type=float, required=True)
    sweep.add_argument("--points", type=int, default=9)
    _add_output_flag(sweep)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        subcommand=args.subcommand,
        k=getattr(args, "k", None),
        e0=getattr(args, "e0", None),
        method=getattr(args, "method", "closed"),
        mode=_MODES[getattr(args, "mode", RegularizationMode.FULL.value)],
        eps_start=getattr(args, "eps_start", None),
        eps_factor=getattr(args, "eps_factor", 1e-1),
        eps_count=getattr(args, "eps_count", None),
        k_min=getattr(args, "k_min", None),
        k_max=getattr(args, "k_max", None),
        points=getattr(args, "points", None),
        output_path=getattr(args, "output", None),
    )


_RUNNERS = {
    "cross-section": run_cross_section,
    "limit-study": run_limit_study,
    "sweep": run_sweep,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags and 0 on --help; surface either
        # as a return value so callers always get an int.
        return int(exc.code or 0)
    cfg = _config_from_args(args)
    try:
        lines, status = _RUNNERS[cfg.subcommand](cfg)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (DomainError, SingularityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    text = "\n".join(lines) + "\n"
    if cfg.output_path is None:
        sys.stdout.write(text)
    else:
        with open(cfg.output_path, "wb") as handle:
            handle.write(text.encode("ascii"))
    if status == EXIT_NO_CONVERGENCE:
        print("warning: limit did not converge to relative 1e-08", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
