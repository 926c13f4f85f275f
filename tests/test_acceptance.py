"""End-to-end delivery checks, one test per numbered criterion.

Each test prints a single pass/fail line (visible under -s or -rA) and
then asserts, so a full run doubles as a checklist.  Tolerances are
pinned here and never loosened to make a run green.
"""

import math
import random
import subprocess
import sys

import mpmath as mp

from deltascatter.cli import main as cli_main
from deltascatter.regularization import (
    EpsilonSchedule,
    RegularizationMode,
    limit_extrapolate,
    regularized_cross_section,
)
from deltascatter.scattering import (
    ScatteringProblem,
    cross_section_closed,
    cross_section_partial_wave,
)
from deltascatter.special_functions import (
    bessel_j0,
    bessel_k0,
    bessel_y0,
    hankel1_0,
    hankel1_0_small_z,
    k0_small_z,
)
from support import GRID_K, GRID_LOG_X, PI_SQ, draw_log_uniform, problem_at


def rel_err(value, reference):
    return abs(value - reference) / abs(reference)


def report(number, label, failures):
    verdict = "PASS" if not failures else "FAIL"
    print(f"criterion {number} [{verdict}] {label}", flush=True)
    assert not failures, f"criterion {number} ({label}): " + "; ".join(failures[:8])


def test_criterion_1_resonance_value():
    sigma = cross_section_closed(ScatteringProblem(k=1.0, e0=-1.0)).sigma
    failures = []
    if rel_err(sigma, 4.0) > 1e-12:
        failures.append(f"sigma = {sigma!r}")
    report(1, "resonance cross section equals 4 (rel 1e-12)", failures)


def test_criterion_2_three_route_equivalence():
    failures = []
    for k in GRID_K:
        for log_x in GRID_LOG_X:
            problem = problem_at(k, log_x)
            closed = cross_section_closed(problem).sigma
            partial = cross_section_partial_wave(problem).sigma
            if rel_err(partial, closed) > 1e-12:
                failures.append(f"partial k={k} lnx={log_x}: {rel_err(partial, closed):.2e}")
            estimate = limit_extrapolate(
                problem, EpsilonSchedule.default_for(problem), RegularizationMode.FULL
            )
            if rel_err(estimate.sigma_limit, closed) > 1e-6:
                failures.append(f"limit k={k} lnx={log_x}: {rel_err(estimate.sigma_limit, closed):.2e}")
    report(2, "closed vs partial-wave (1e-12) vs full-mode limit (1e-6) on 35-point grid", failures)


def test_criterion_3_error_reproduction():
    failures = []
    for k in GRID_K:
        for log_x in GRID_LOG_X:
            if log_x == 0.0:
                continue
            problem = problem_at(k, log_x)
            estimate = limit_extrapolate(
                problem,
                EpsilonSchedule.default_for(problem),
                RegularizationMode.TRUNCATED_LOG,
            )
            wrong_expected = PI_SQ / (k * log_x * log_x)
            if rel_err(estimate.sigma_limit, wrong_expected) > 1e-8:
                failures.append(f"wrong-limit k={k} lnx={log_x}")
            measured_ratio = estimate.sigma_limit / cross_section_closed(problem).sigma
            expected_ratio = (PI_SQ + 4.0 * log_x * log_x) / (4.0 * log_x * log_x)
            if rel_err(measured_ratio, expected_ratio) > 1e-8:
                failures.append(f"ratio k={k} lnx={log_x}")
    report(3, "truncated-log limit and overshoot ratio (rel 1e-8)", failures)


def test_criterion_4_special_function_oracle():
    log_lo, log_hi = math.log(0.001), math.log(2.0)
    points = [0.001]
    points += [math.exp(log_lo + i * (log_hi - log_lo) / 99) for i in range(1, 99)]
    points.append(2.0)
    failures = []
    with mp.workdps(50):
        for z in points:
            for label, ours, oracle in (
                ("j0", bessel_j0(z), mp.besselj(0, z)),
                ("y0", bessel_y0(z), mp.bessely(0, z)),
                ("k0", bessel_k0(z), mp.besselk(0, z)),
            ):
                err = rel_err(ours, float(oracle))
                if err > 1e-10:
                    failures.append(f"{label}(z={z:.6g}): {err:.2e}")
    report(4, "J0/Y0/K0 vs mpmath at 50 digits on 100 points (rel 1e-10)", failures)


def test_criterion_5_asymptotic_order():
    failures = []
    previous = None
    for z in (1e-1, 1e-2, 1e-3, 1e-4):
        bound = z * z * (abs(math.log(z)) + 1.0)
        h, h_small = hankel1_0(z), hankel1_0_small_z(z)
        diffs = (
            abs(bessel_k0(z) - k0_small_z(z)),
            abs(h.real - h_small.real),
            abs(h.imag - h_small.imag),
        )
        for label, diff in zip(("k0", "h-re", "h-im"), diffs):
            if diff > bound:
                failures.append(f"{label} at z={z:g} exceeds bound")
        if previous is not None and not all(d < p for d, p in zip(diffs, previous)):
            failures.append(f"not strictly decreasing at z={z:g}")
        previous = diffs
    report(5, "small-z forms within z^2(|ln z|+1), strictly decreasing to z=1e-4", failures)


def test_criterion_6_unitarity_and_symmetry():
    rng = random.Random(20260819)
    failures = []
    for index in range(1000):
        k = draw_log_uniform(rng, 0.1, 10.0)
        log_x = rng.uniform(-3.0, 3.0)
        if abs(log_x) < 1e-6:
            log_x = math.copysign(1e-6, log_x)
        problem = problem_at(k, log_x)
        sigma = cross_section_closed(problem).sigma
        if sigma * k > 4.0:
            failures.append(f"unitarity #{index}: sigma*k = {sigma * k!r}")
        mirrored = cross_section_closed(problem_at(k, -log_x)).sigma
        if rel_err(sigma, mirrored) > 1e-12:
            failures.append(f"symmetry #{index}")
        base = cross_section_partial_wave(problem, m_max=0).sigma
        for m_max in (1, 10, 100):
            if cross_section_partial_wave(problem, m_max=m_max).sigma != base:
                failures.append(f"m_max #{index}")
    report(6, "1000 random problems: unitarity, ln-x symmetry, exact m_max independence", failures)


def test_criterion_7_truncated_eps_independence():
    rng = random.Random(7)
    failures = []
    for index in range(20):
        k = draw_log_uniform(rng, 0.1, 10.0)
        magnitude = rng.uniform(0.1, 3.0)
        log_x = magnitude if rng.random() < 0.5 else -magnitude
        problem = problem_at(k, log_x)
        values = [
            regularized_cross_section(problem, eps, RegularizationMode.TRUNCATED_LOG)
            for eps in (1e-2, 1e-3, 1e-4, 1e-5)
        ]
        spread = max(rel_err(value, values[0]) for value in values)
        if spread > 1e-12:
            failures.append(f"#{index}: spread {spread:.2e}")
    report(7, "truncated-log sigma(eps) identical across four decades (rel 1e-12)", failures)


GOLDEN_INVOCATIONS = [
    ["cross-section", "--k", "1", "--e0", "-1", "--method", "closed"],
    ["cross-section", "--k", "1", "--e0", "-1", "--method", "partial-wave"],
    ["cross-section", "--k", "2", "--e0", "-29.556224395722598", "--method", "limit"],
    ["limit-study", "--k", "1", "--e0", "-1"],
    ["limit-study", "--k", "1", "--e0", "-7.3890560989306495", "--mode", "truncated-log"],
    ["limit-study", "--k", "1", "--e0", "-1", "--mode", "asymptotic"],
    ["sweep", "--e0", "-1", "--k-min", "0.1", "--k-max", "10", "--points", "5"],
    ["sweep", "--e0", "-1", "--k-min", "0.5", "--k-max", "2", "--points", "9"],
    ["sweep", "--e0", "-4", "--k-min", "1", "--k-max", "4", "--points", "7"],
]

FAILURE_INVOCATIONS = [
    (["cross-section", "--k", "1", "--e0", "0.5"], 2),
    (["cross-section", "--k", "-1", "--e0", "-1"], 2),
    (["sweep", "--e0", "-1", "--k-min", "2", "--k-max", "1", "--points", "5"], 2),
    (["limit-study", "--k", "1", "--e0", "-1", "--eps-count", "1"], 2),
    (
        ["cross-section", "--k", "1", "--e0", "-1", "--method", "limit",
         "--eps-start", "0.5", "--eps-factor", "0.5", "--eps-count", "2"],
        3,
    ),
    (["limit-study", "--k", "1", "--e0", "-1", "--eps-start", "3.0"], 4),
    (["limit-study", "--k", "1", "--e0", "-1", "--mode", "truncated-log"], 4),
]


def test_criterion_8_cli_golden(capsys):
    failures = []
    for argv in GOLDEN_INVOCATIONS:
        code_first = cli_main(argv)
        first = capsys.readouterr().out
        code_second = cli_main(argv)
        second = capsys.readouterr().out
        if code_first != 0 or code_second != 0:
            failures.append(f"{' '.join(argv)}: exit {code_first}/{code_second}")
        if first.encode() != second.encode():
            failures.append(f"{' '.join(argv)}: output drifted")
        if not first.endswith("\n") or "\r" in first:
            failures.append(f"{' '.join(argv)}: malformed line endings")
    for argv, expected in FAILURE_INVOCATIONS:
        code = cli_main(argv)
        capsys.readouterr()
        if code != expected:
            failures.append(f"{' '.join(argv)}: exit {code} != {expected}")
    # the installed entry point must agree with the in-process driver
    probe = GOLDEN_INVOCATIONS[0]
    cli_main(probe)
    in_process = capsys.readouterr().out
    spawned = subprocess.run(
        [sys.executable, "-m", "deltascatter"] + probe, capture_output=True, text=True
    )
    if spawned.returncode != 0 or spawned.stdout != in_process:
        failures.append("python -m deltascatter disagrees with in-process run")
    report(8, "CLI goldens byte-stable; documented exit codes fire", failures)
