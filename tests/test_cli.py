import collections
import contextlib
import errno
import functools
import gc
import hashlib
import io
import itertools
import math
import os
import pathlib
import random
import shutil
import subprocess
import sys
import tempfile
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from deltascatter import cli
from deltascatter.cli import (
    _SWEEP_ROW,
    EXIT_DOMAIN,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_VALIDATION,
    _geometric_grid,
    build_parser,
    main,
)
from deltascatter.errors import DomainError
from deltascatter.regularization import (
    EpsilonSchedule,
    RegularizationMode,
    limit_extrapolate,
    mead_godines_wrong_limit,
)
from deltascatter.scattering import (
    CrossSection,
    PhaseShift,
    ScatteringProblem,
    cross_section_closed,
    s_wave_phase_shift,
)

E0_LOG_X_ONE = -math.e**2  # ln x = 1 at k = 1
DEV_FULL = pathlib.Path("/dev/full")  # a device on which every write fails


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# (argv, exit code, sha256 of stdout) for the acceptance goldens, the README
# examples, the extreme finite inputs, limit-study in every mode, a sweep
# across 600 decades and a run that ends in the convergence warning.  A
# refactor that moves one byte of these tables, or one exit code, fails here.
PINNED_OUTPUTS = [
    ("cross-section --k 1 --e0 -1 --method closed", 0,
     "9fd1075397fcddc7cbdb7d386333d80f8b101dd20e77abc252d0473f78560276"),
    ("cross-section --k 1 --e0 -1 --method partial-wave", 0,
     "c89039fa0cd6d8b5ea25a23d62a5938eace5c1c0f4aad812058e39b1addc8329"),
    ("cross-section --k 2 --e0 -29.556224395722598 --method limit", 0,
     "69823d97f166d3143c798f867d389bb0cf7883c5f4f5670701bd679c4a152730"),
    ("limit-study --k 1 --e0 -1", 0,
     "8edbe6ef6de1f84351d7ae6ea461fd85a79a2fb6a6c9171ec2e2560710afcb6e"),
    ("limit-study --k 1 --e0 -7.3890560989306495 --mode truncated-log", 0,
     "390179f21369408b010e79c51f926b8ecfcee0b11f2f9bdc4fa4e45808998346"),
    ("limit-study --k 1 --e0 -1 --mode asymptotic", 0,
     "1bf1dffa758c4b85b1fccb5d3467f2e2cf1811a6768bcb8f775c8c03fa9dd48b"),
    ("sweep --e0 -1 --k-min 0.1 --k-max 10 --points 5", 0,
     "3fcc5dae8b26105ef0dfc2f856ac9c4659ef3934606fe5410d70149ae711226a"),
    ("sweep --e0 -1 --k-min 0.5 --k-max 2 --points 9", 0,
     "d8c00c773d8aa07b5ee27d9b38de5686087e175b31a23057ac46112c85a253d0"),
    ("sweep --e0 -4 --k-min 1 --k-max 4 --points 7", 0,
     "918ec5042b94014b5742b225beaa501dfd976496dcbf03addb86dde04935a96e"),
    ("cross-section --k 1 --e0 -2.5", 0,
     "52e17be50db658c369adac810281b2df0fbf97d1c2cbefa569813c6b3ba57ed3"),
    ("cross-section --k 1e300 --e0=-1e-300", 0,
     "e1a63ce039f93928ef94fcd373f5a8151e9e10a2f42ee1ee6afd53f1c5fcceb1"),
    ("cross-section --k 1e300 --e0=-1e-300 --method partial-wave", 0,
     "45d5feb54b0de982383ab62f5a879f449df416cc9f5bd058c6929b004d743331"),
    ("cross-section --k 1e-300 --e0=-1e300", 0,
     "df4373b6569ac6cabcdaeda00248f46e3e854877a7300c62fa61b5b341387717"),
    ("cross-section --k 1e-300 --e0=-1e300 --method partial-wave", 0,
     "97c60dce8499bbc7b4f46a628bbd94631d85e00534870dd779502884901f5c37"),
    ("cross-section --k 1e308 --e0=-1", 0,
     "f422688a9f2744a540b0a1db0c05fdc30154b48c90ed011241f070b5f19fe6f0"),
    ("cross-section --k 1e308 --e0=-1 --method partial-wave", 0,
     "a4ee82cccb14ffa6259a4102c58348b1deb052dbcb5399442e0acdc5a43dd74d"),
    ("limit-study --k 2 --e0=-29.556224395722598 --mode full", 0,
     "04b08ec417ec649a70c526692e0f9823cdb06c2145788d1516d0e2a8a712732a"),
    ("limit-study --k 2 --e0=-29.556224395722598 --mode asymptotic", 0,
     "6a894228e833f1f3e86d90d9a674ec15f97cf8330fa4ec72c6c6cbbd293c3650"),
    ("limit-study --k 2 --e0=-29.556224395722598 --mode truncated-log", 0,
     "c9f72e25d68565cc0a6fc47807f4bed9bd2f5c041397c2f8c6dab2c995449eb2"),
    ("sweep --e0 -3.7 --k-min 1e-300 --k-max 1e300 --points 2001", 0,
     "004dda7f9a1fc7e13c285e98c1cb43905189273ac6b6cdc840304e1e4ecb1ea4"),
    ("cross-section --k 1 --e0 -1 --method limit "
     "--eps-start 0.5 --eps-factor 0.5 --eps-count 2", 3,
     "68775d1c94fdc1efe0be597300685696ec7f4018415340cc5ba88c3f6d7ea452"),
]


@pytest.mark.parametrize("argv, code, digest", PINNED_OUTPUTS)
def test_pinned_output_bytes(capsys, argv, code, digest):
    actual_code, out, _ = run_cli(capsys, argv.split())
    assert (actual_code, hashlib.sha256(out.encode("ascii")).hexdigest()) == (code, digest)


class TestCrossSection:
    def test_closed_resonance_record(self, capsys):
        code, out, err = run_cli(
            capsys, ["cross-section", "--k", "1", "--e0", "-1", "--method", "closed"]
        )
        assert code == EXIT_OK
        assert out == (
            "k,e0,x,ln_x,method,sigma\n"
            "1.00000000000000,-1.00000000000000,1.00000000000000,"
            "0.00000000000000,closed,4.00000000000000\n"
        )
        assert err == ""

    def test_partial_wave_matches_closed_sigma(self, capsys):
        _, out_closed, _ = run_cli(
            capsys, ["cross-section", "--k", "1", "--e0", "-1", "--method", "closed"]
        )
        _, out_partial, _ = run_cli(
            capsys,
            ["cross-section", "--k", "1", "--e0", "-1", "--method", "partial-wave"],
        )
        assert out_partial.split(",")[-1] == out_closed.split(",")[-1]
        assert "partial-wave" in out_partial

    def test_limit_method(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["cross-section", "--k", "1", "--e0", "-1", "--method", "limit"],
        )
        assert code == EXIT_OK
        sigma = float(out.splitlines()[1].split(",")[-1])
        assert sigma == pytest.approx(4.0, rel=1e-8)

    def test_positive_e0_is_validation_error(self, capsys):
        code, out, err = run_cli(
            capsys, ["cross-section", "--k", "1", "--e0", "0.5", "--method", "closed"]
        )
        assert code == EXIT_VALIDATION
        assert out == ""
        assert "--e0" in err and "negative" in err

    def test_bad_momentum_is_validation_error(self, capsys):
        code, _, err = run_cli(capsys, ["cross-section", "--k", "-1", "--e0", "-1"])
        assert code == EXIT_VALIDATION
        assert "--k" in err

    def test_unknown_flag_exits_two(self, capsys):
        code = main(["cross-section", "--k", "1", "--e0", "-1", "--nope"])
        capsys.readouterr()
        assert code == EXIT_VALIDATION

    def test_limit_non_convergence_exits_three(self, capsys):
        code, out, err = run_cli(
            capsys,
            [
                "cross-section", "--k", "1", "--e0", "-1", "--method", "limit",
                "--eps-start", "0.5", "--eps-factor", "0.5", "--eps-count", "2",
            ],
        )
        assert code == EXIT_NO_CONVERGENCE
        assert out.startswith("k,e0,x,ln_x,method,sigma\n")
        assert "converge" in err

    def test_near_unit_factor_does_not_pass_a_shallow_limit(self, capsys):
        # Adjacent samples agree to 1e-8 although the last is 4.9e-5 off 4.
        argv = ["cross-section", "--k", "1", "--e0=-1", "--method", "limit"]
        code, out, err = run_cli(capsys, argv + ["--eps-factor", "0.999999"])
        assert code == EXIT_NO_CONVERGENCE
        assert out.splitlines()[-1].endswith(",limit,4.00019591821861")
        assert "converge" in err
        for factor in ("0.5", "0.9", "0.99"):
            code, out, err = run_cli(capsys, argv + ["--eps-factor", factor])
            assert (code, err) == (EXIT_OK, "")
            assert float(out.splitlines()[-1].split(",")[-1]) == pytest.approx(4.0, rel=1e-10)

    @pytest.mark.parametrize(
        "factor, rtol", [("0.5", "1e-08"), ("0.9", "2e-09"), ("0.999999", "2e-14")]
    )
    def test_warning_names_the_tested_rtol(self, capsys, factor, rtol):
        # Two cutoffs are too few to converge at any of these factors.
        code, _, err = run_cli(
            capsys,
            [
                "cross-section", "--k", "1", "--e0=-1", "--method", "limit",
                "--eps-factor", factor, "--eps-count", "2",
            ],
        )
        assert code == EXIT_NO_CONVERGENCE
        assert err == f"warning: limit did not converge to relative {rtol}\n"

    @pytest.mark.parametrize(
        "k, e0, method, sigma",
        [
            ("1e300", "-1e-300", "closed", "9.19268423123385e-306"),
            ("1e300", "-1e-300", "partial-wave", "9.19268423123385e-306"),
            ("1e-300", "-1e300", "closed", "9.19268423123385e+294"),
            ("1e308", "-1", "closed", "1.96229729165596e-313"),
            ("1e308", "-1", "partial-wave", "1.96229729165596e-313"),
        ],
    )
    def test_extreme_finite_inputs(self, capsys, k, e0, method, sigma):
        code, out, err = run_cli(
            capsys, ["cross-section", "--k", k, f"--e0={e0}", "--method", method]
        )
        assert (code, err) == (EXIT_OK, "")
        assert out.splitlines()[1].split(",")[-1] == sigma

    def test_limit_uses_the_whole_default_schedule(self, capsys):
        # max(k, mu) = 300 shrinks the default start, and the longer
        # default count must come along with it.
        code, out, err = run_cli(
            capsys, ["cross-section", "--k", "300", "--e0=-1", "--method", "limit"]
        )
        problem = ScatteringProblem(k=300.0, e0=-1.0)
        estimate = limit_extrapolate(
            problem, EpsilonSchedule.default_for(problem), RegularizationMode.FULL
        )
        assert estimate.converged
        assert (code, err) == (EXIT_OK, "")
        assert out.splitlines()[1].split(",")[-1] == format(
            estimate.sigma_limit, "#.15g"
        )

    @pytest.mark.parametrize("k, e0", [("50", "-100"), ("1e200", "-1")])
    def test_default_schedule_converges_at_any_scale(self, capsys, k, e0):
        sigma = {}
        for method in ("closed", "limit"):
            code, out, err = run_cli(
                capsys, ["cross-section", "--k", k, f"--e0={e0}", "--method", method]
            )
            assert (code, err) == (EXIT_OK, "")
            sigma[method] = float(out.splitlines()[1].split(",")[-1])
        assert sigma["limit"] == pytest.approx(sigma["closed"], rel=1e-8)


class TestUnderflowedCutoffs:
    """Where mu*eps underflows to 0 the limit route takes its log from
    ln mu + ln eps, and lands on the closed form."""

    @pytest.mark.parametrize("mode", ["full", "asymptotic", "truncated-log"])
    def test_limit_route(self, capsys, mode):
        code, out, err = run_cli(
            capsys,
            [
                "cross-section", "--k", "1e300", "--e0=-1e-300",
                "--method", "limit", "--mode", mode,
            ],
        )
        assert (code, err) == (EXIT_OK, "")
        problem = ScatteringProblem(k=1e300, e0=-1e-300)
        if mode == "truncated-log":
            expected = mead_godines_wrong_limit(problem)
        else:
            expected = cross_section_closed(problem).sigma
        sigma = float(out.splitlines()[1].split(",")[-1])
        assert sigma == pytest.approx(expected, rel=1e-12)

    def test_subnormal_cutoff_product_limit(self, capsys):
        # mu/k is about 1e-318, so mu*eps is a subnormal of a few bits; the
        # limit taken from the rounded product was 1.2e-4 off, with exit 0.
        sigma = {}
        for method in ("closed", "limit"):
            code, out, err = run_cli(
                capsys,
                [
                    "cross-section", "--k", "3.751301378942422e+258",
                    "--e0=-2.6617079507249583e-119", "--method", method,
                ],
            )
            assert (code, err) == (EXIT_OK, "")
            sigma[method] = float(out.splitlines()[1].split(",")[-1])
        assert sigma["limit"] == pytest.approx(sigma["closed"], rel=1e-12)

    def test_memory_does_not_grow_with_eps_count(self, capsys):
        # The cutoffs reach 0 after 322 of the 2 000 000 asked for.
        argv = [
            "cross-section", "--k", "1", "--e0=-1", "--method", "limit",
            "--eps-count", "2000000",
        ]
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == EXIT_DOMAIN
        assert peak < 2**20


# The argv of each subcommand that --e0 completes, in TestNegativeExponentValues
# and test_space_form_under_other_cpythons.
E0_HEADS = [
    ["cross-section", "--k", "1"],
    ["limit-study", "--k", "1"],
    ["sweep", "--k-min", "0.01", "--k-max", "1", "--points", "4"],
]


class TestNegativeExponentValues:
    @pytest.mark.parametrize("head", E0_HEADS)
    def test_space_form_matches_equals_form(self, capsys, head):
        code_eq, out_eq, _ = run_cli(capsys, head + ["--e0=-2.5e-3"])
        code_sp, out_sp, err_sp = run_cli(capsys, head + ["--e0", "-2.5e-3"])
        assert code_eq == EXIT_OK
        assert (code_sp, out_sp, err_sp) == (code_eq, out_eq, "")

    def test_root_parser_reads_a_number_as_a_subcommand(self, capsys):
        # Without the rule on the root parser too, argparse takes "-2.5e-3"
        # for a flag there and blames the missing subcommand instead.
        code, out, err = run_cli(capsys, ["-2.5e-3"])
        assert (code, out) == (EXIT_VALIDATION, "")
        assert "error: argument subcommand: invalid choice: '-2.5e-3'" in err.splitlines()[-1]


class TestLimitStudy:
    def test_full_mode_table(self, capsys):
        code, out, err = run_cli(capsys, ["limit-study", "--k", "1", "--e0", "-1"])
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "eps,sigma_eps,abs_err_vs_closed"
        assert len(lines) == 7
        errs = [float(line.split(",")[2]) for line in lines[1:6]]
        assert errs == sorted(errs, reverse=True)
        assert all(later < earlier for earlier, later in zip(errs, errs[1:]))
        summary = lines[6].split(",")
        assert summary[0] == "limit"
        assert float(summary[1]) == pytest.approx(4.0, rel=1e-6)

    def test_truncated_mode_rows_identical(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "limit-study", "--k", "1", "--e0", repr(E0_LOG_X_ONE),
                "--mode", "truncated-log",
            ],
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        sigmas = {line.split(",")[1] for line in lines[1:6]}
        assert len(sigmas) == 1
        assert float(lines[6].split(",")[1]) == pytest.approx(
            9.869604401089358, rel=1e-8
        )

    def test_asymptotic_resonance_error_estimate_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, ["limit-study", "--k", "1", "--e0", "-1", "--mode", "asymptotic"]
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[6] == "limit,4.00000000000000,0.00000000000000"

    def test_eps_outside_domain_exits_four(self, capsys):
        code, out, err = run_cli(
            capsys, ["limit-study", "--k", "1", "--e0", "-1", "--eps-start", "3.0"]
        )
        assert code == EXIT_DOMAIN
        assert out == ""
        assert err == (
            "error: at k=1.0, e0=-1.0, eps=3.0 the cutoff must be positive with "
            "mu*eps = 3.0 and k*eps = 3.0 both at most 2.0\n"
        )

    def test_truncated_resonance_exits_four(self, capsys):
        # the truncated bracket vanishes identically when k = mu
        code, _, err = run_cli(
            capsys, ["limit-study", "--k", "1", "--e0", "-1", "--mode", "truncated-log"]
        )
        assert code == EXIT_DOMAIN
        assert "bracket" in err

    def test_default_count_follows_the_default_start(self, capsys):
        problem = ScatteringProblem(k=300.0, e0=-1.0)
        count = EpsilonSchedule.default_for(problem).count
        assert count > 5
        _, out, _ = run_cli(capsys, ["limit-study", "--k", "300", "--e0", "-1"])
        assert len(out.splitlines()) == count + 2
        _, out, _ = run_cli(
            capsys,
            ["limit-study", "--k", "300", "--e0", "-1", "--eps-start", "1e-3"],
        )
        assert len(out.splitlines()) == 5 + 2

    @pytest.mark.parametrize("mode", ["full", "asymptotic"])
    @pytest.mark.parametrize("factor", ["0.5", "0.3"])
    @pytest.mark.parametrize("k, e0", [(1.0, -1.0), (1.0, -2.5), (300.0, -1.0)])
    def test_default_count_follows_the_factor(self, capsys, k, e0, factor, mode):
        # Counted at factor 0.1, a factor of 0.5 stopped at eps 6.25e-4 at
        # k=1, e0=-1, short of the default depth, and exited 3.
        problem = ScatteringProblem(k=k, e0=e0)
        schedule = EpsilonSchedule.default_for(problem, float(factor))
        argv = ["limit-study", "--k", repr(k), f"--e0={e0!r}", "--eps-factor", factor]
        code, out, err = run_cli(capsys, argv + ["--mode", mode])
        assert (code, err) == (EXIT_OK, "")
        lines = out.splitlines()
        assert len(lines) == schedule.count + 2
        last_eps = list(schedule.epsilons())[-1]
        assert lines[-2].split(",")[0] == format(last_eps, "#.15g")
        assert max(k, problem.bound_state_scale) * last_eps <= 7e-6
        sigma_closed = cross_section_closed(problem).sigma
        assert float(lines[-1].split(",")[1]) == pytest.approx(sigma_closed, rel=3e-11)

    @pytest.mark.parametrize(
        "flags, message",
        [
            ("--eps-start -1", "--eps-start must be finite and positive, got -1.0"),
            ("--eps-start inf", "--eps-start must be finite and positive, got inf"),
            ("--eps-factor 1", "--eps-factor must lie in (0, 1), got 1.0"),
            # Rounds cutoff 3 back to cutoff 2.
            (
                "--eps-factor 0.9999999999999999",
                "--eps-factor must shrink every cutoff, but cutoff 3, "
                "0.009999999999999998, is not below 0.009999999999999998",
            ),
            # Of two bad flags, the one checked first is named.
            (
                "--eps-start -1 --eps-count 1",
                "--eps-start must be finite and positive, got -1.0",
            ),
            ("--eps-factor 1 --eps-count 1", "--eps-factor must lie in (0, 1), got 1.0"),
            (
                "--eps-start -1 --eps-factor 2",
                "--eps-start must be finite and positive, got -1.0",
            ),
        ],
    )
    def test_bad_schedule_flag_is_named(self, capsys, tmp_path, flags, message):
        argv = ["limit-study", "--k", "1", "--e0", "-1"] + flags.split()
        code, out, err = run_cli(capsys, argv)
        assert (code, out, err) == (EXIT_VALIDATION, "", f"error: {message}\n")
        target = tmp_path / "table.csv"
        code, out, err = run_cli(capsys, argv + ["--output", str(target)])
        assert (code, out, err) == (EXIT_VALIDATION, "", f"error: {message}\n")
        assert not target.exists()

    def test_subnormal_start_names_the_factor(self, capsys):
        # 0.9 * 5e-324 rounds back to 5e-324.
        argv = ["limit-study", "--k", "1", "--e0=-2", "--eps-start", "5e-324"]
        code, out, err = run_cli(capsys, argv + ["--eps-factor", "0.9"])
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err == (
            "error: --eps-factor must shrink every cutoff, but cutoff 2, "
            "5e-324, is not below 5e-324\n"
        )

    def test_bad_eps_count_exits_two(self, capsys):
        code, _, err = run_cli(
            capsys, ["limit-study", "--k", "1", "--e0", "-1", "--eps-count", "1"]
        )
        assert code == EXIT_VALIDATION
        assert "--eps-count" in err

    def test_error_after_the_first_samples_writes_nothing(self, capsys, tmp_path):
        # Two cutoffs are sampled before the third, 1e-326, rounds to 0.0.
        argv = [
            "limit-study", "--k", "1", "--e0=-1", "--eps-start", "1e-320",
            "--eps-factor", "0.001",
        ]
        message = (
            "error: at k=1.0, e0=-1.0, eps=0.0 the cutoff must be positive with "
            "mu*eps = 0.0 and k*eps = 0.0 both at most 2.0\n"
        )
        assert run_cli(capsys, argv) == (EXIT_DOMAIN, "", message)
        target = tmp_path / "table.csv"
        assert run_cli(capsys, argv + ["--output", str(target)]) == (EXIT_DOMAIN, "", message)
        assert not target.exists()

    @pytest.mark.parametrize("mode", [mode.value for mode in RegularizationMode])
    @pytest.mark.parametrize("factor", [0.1, 0.5])
    def test_rows_replay_the_samples_of_the_estimate(self, mode, factor):
        # The rows come from a second pass down the schedule; they are the
        # samples limit_extrapolate folds, and the limit line its estimate.
        rng = random.Random(21)
        # k and mu log-uniform on [1e-3, 1e3], after one resonant problem.
        problems = [ScatteringProblem(k=1.0, e0=-1.0)] + [
            ScatteringProblem(k=10 ** rng.uniform(-3, 3), e0=-(100 ** rng.uniform(-3, 3)))
            for _ in range(12)
        ]
        regularization, codes = RegularizationMode(mode), set()
        for problem, count in itertools.product(problems, (None, 3)):
            if regularization is RegularizationMode.TRUNCATED_LOG and problem.log_x == 0.0:
                continue  # the truncated bracket vanishes at resonance: exit 4
            schedule = EpsilonSchedule.default_for(problem, factor)
            argv = [
                "limit-study", "--k", repr(problem.k), f"--e0={problem.e0!r}",
                "--mode", mode, "--eps-factor", repr(factor),
            ]
            if count is not None:
                # Three cutoffs: too short a schedule for FULL limits to pass.
                schedule = schedule._replace(count=count)
                argv += ["--eps-count", str(count)]
            estimate = limit_extrapolate(problem, schedule, regularization)
            code, out, err = run_main(argv)
            closed = cross_section_closed(problem).sigma
            rows = [
                "%#.15g,%#.15g,%#.15g" % (eps, sigma, abs(sigma - closed))
                for eps, sigma in estimate.samples
            ]
            limit = "limit,%#.15g,%#.15g" % (estimate.sigma_limit, estimate.error_estimate)
            assert code in (EXIT_OK, EXIT_NO_CONVERGENCE), err
            assert (code == EXIT_NO_CONVERGENCE) == (not estimate.converged)
            assert out.splitlines() == ["eps,sigma_eps,abs_err_vs_closed", *rows, limit]
            codes.add(code)
        # The two log modes' brackets do not depend on eps, so only FULL warns.
        assert codes == ({EXIT_OK, EXIT_NO_CONVERGENCE} if mode == "full" else {EXIT_OK})


@pytest.mark.parametrize(
    "head",
    [["cross-section", "--method", "limit"], ["limit-study"]],
    ids=lambda head: head[0],
)
def test_limit_memory_is_flat_down_a_long_schedule(head):
    # Both subcommands hold two samples at a time, however many the schedule
    # has; all 2 000 or 8 000 cutoffs here are sampled, and only the longer
    # schedule meets the stop test.  A first short run fills the one-time
    # caches (argparse's, re's) outside the trace, and collecting first keeps
    # earlier garbage from freeing mid-trace.
    head = head + [
        "--k", "1", "--e0=-1", "--eps-factor", "0.999", "--output", os.devnull,
        "--eps-count",
    ]
    main(head + ["2"])
    codes, peaks = [], []
    for count in ("2000", "8000"):
        gc.collect()
        tracemalloc.start()
        try:
            codes.append(main(head + [count]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert codes == [EXIT_NO_CONVERGENCE, EXIT_OK]
    assert abs(peaks[1] - peaks[0]) < 0.1 * peaks[0], peaks


def test_main_leaves_no_cyclic_garbage(capsys):
    # The parser is built once at import, so a call leaves no cycle of
    # objects that only the collector could free.
    argv = ["cross-section", "--k", "1", "--e0=-1"]
    main(argv)
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        held, _ = tracemalloc.get_traced_memory()
        collected = gc.collect()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert held < 8 * 1024
    assert collected == 0
    capsys.readouterr()


class TestSweep:
    def test_resonance_row(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--e0", "-1", "--k-min", "0.1", "--k-max", "10", "--points", "5"],
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "k,ln_x,delta0,sigma,sigma_times_k"
        assert len(lines) == 6
        middle = lines[3].split(",")
        assert float(middle[0]) == pytest.approx(1.0, rel=1e-15)
        assert float(middle[2]) == pytest.approx(1.5707963267948966, abs=1e-12)
        assert float(middle[4]) == pytest.approx(4.0, rel=1e-12)

    def test_unitarity_and_symmetry_of_rows(self, capsys):
        _, out, _ = run_cli(
            capsys,
            ["sweep", "--e0", "-1", "--k-min", "0.1", "--k-max", "10", "--points", "5"],
        )
        rows = [line.split(",") for line in out.splitlines()[1:]]
        sigma_k = [float(row[4]) for row in rows]
        assert all(value <= 4.0 for value in sigma_k)
        # grid is symmetric about k = 1, so ln_x mirror pairs must agree
        assert sigma_k[0] == pytest.approx(sigma_k[4], rel=1e-12)
        assert sigma_k[1] == pytest.approx(sigma_k[3], rel=1e-12)

    def test_endpoints_exact(self, capsys):
        _, out, _ = run_cli(
            capsys,
            ["sweep", "--e0", "-4", "--k-min", "0.25", "--k-max", "8", "--points", "4"],
        )
        rows = out.splitlines()[1:]
        assert rows[0].split(",")[0] == "0.250000000000000"
        assert rows[-1].split(",")[0] == "8.00000000000000"

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--e0", "-1", "--k-min", "2", "--k-max", "1", "--points", "5"],
            ["sweep", "--e0", "-1", "--k-min", "0", "--k-max", "1", "--points", "5"],
            ["sweep", "--e0", "-1", "--k-min", "0.1", "--k-max", "1", "--points", "1"],
            ["sweep", "--e0", "1", "--k-min", "0.1", "--k-max", "1", "--points", "5"],
        ],
    )
    def test_validation_failures_exit_two(self, capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err.startswith("error:")


# Tables written to /dev/full, with their test ids.
UNWRITABLE_ARGVS = [
    ["cross-section", "--k", "1", "--e0", "-1"],
    ["limit-study", "--k", "1", "--e0", "-1"],
    ["sweep", "--e0=-1", "--k-min", "0.01", "--k-max", "100", "--points", "100000"],
    # The first row fails with a DomainError while the header is buffered.
    ["sweep", "--e0=-1", "--k-min", "1e-320", "--k-max", "1", "--points", "5"],
]
UNWRITABLE_IDS = ["cross-section", "limit-study", "sweep", "sweep-domain-error"]


class TestOutputPlumbing:
    def test_output_file_matches_stdout_bytes(self, capsys, tmp_path):
        argv = ["sweep", "--e0", "-1", "--k-min", "0.5", "--k-max", "2", "--points", "3"]
        _, out, _ = run_cli(capsys, argv)
        target = tmp_path / "table.csv"
        code = main(argv + ["--output", str(target)])
        capsys.readouterr()
        assert code == EXIT_OK
        assert target.read_bytes() == out.encode("ascii")

    @pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["cross-section", "--k", "1", "--e0", "-1"],
            ["limit-study", "--k", "1", "--e0", "-1"],
            ["sweep", "--e0", "-1", "--k-min", "0.5", "--k-max", "2"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_unopenable_output_exits_two(self, capsys, tmp_path, argv, where):
        target = tmp_path / "missing" / "table.csv" if where == "missing-dir" else tmp_path
        code, out, err = run_cli(capsys, argv + ["--output", str(target)])
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err.startswith(f"error: --output {str(target)!r} cannot be opened: ")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(not DEV_FULL.exists(), reason="no /dev/full")
    @pytest.mark.parametrize("target", ["stdout", "unbuffered-stdout", "--output"])
    @pytest.mark.parametrize("argv", UNWRITABLE_ARGVS, ids=UNWRITABLE_IDS)
    def test_unwritable_output_exits_two(self, argv, target):
        env = dict(os.environ)
        env.pop("PYTHONUNBUFFERED", None)
        command = [sys.executable, "-m", "deltascatter"] + argv
        if target == "unbuffered-stdout":
            command.insert(1, "-u")
        if target == "--output":
            command += ["--output", str(DEV_FULL)]
            where = f"--output {str(DEV_FULL)!r}"
        else:
            where = "stdout"
        with open(DEV_FULL, "w") as full:
            result = subprocess.run(
                command, stdout=full, stderr=subprocess.PIPE, env=env, text=True
            )
        assert (result.returncode, result.stderr) == (
            EXIT_VALIDATION,
            f"error: {where} cannot be written: {os.strerror(errno.ENOSPC)}\n",
        )

    def test_determinism_across_runs(self, capsys):
        argv = ["limit-study", "--k", "2", "--e0", "-4", "--mode", "full"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second

    def test_module_invocation_matches_in_process(self, capsys):
        argv = ["cross-section", "--k", "1", "--e0", "-1"]
        _, out, _ = run_cli(capsys, argv)
        result = subprocess.run(
            [sys.executable, "-m", "deltascatter"] + argv,
            capture_output=True,
            text=True,
        )
        assert result.returncode == EXIT_OK
        assert result.stdout == out


def test_dev_mode_runs_raise_no_warning(tmp_path):
    """python -X dev -W error -m deltascatter exits as documented, with no
    warning, traceback or unraisable exception on stderr: no error path
    leaves a file unclosed, and argparse's private matcher draws no warning."""
    command = [sys.executable, "-X", "dev", "-W", "error", "-m", "deltascatter"]
    table, unwritten = str(tmp_path / "table.csv"), tmp_path / "unwritten.csv"
    runs = [
        (["cross-section", "--k", "1", "--e0=-1"], EXIT_OK),
        (["limit-study", "--k", "1", "--e0=-1", "--output", table], EXIT_OK),
        (["sweep", "--e0=-1", "--k-min", "1e-320", "--k-max", "1", "--points", "3",
          "--output", table], EXIT_DOMAIN),
        (["limit-study", "--k", "1", "--e0=-1", "--eps-start", "1e-320",
          "--eps-factor", "0.001", "--output", str(unwritten)], EXIT_DOMAIN),
        (["cross-section", "--k", "1", "--e0=-1",
          "--output", str(tmp_path / "missing" / "x")], EXIT_VALIDATION),
        (["cross-section", "--k", "1", "--e0=-1", "--method", "limit",
          "--mode", "truncated-log"], EXIT_DOMAIN),
    ]
    results = []
    for argv, expected in runs:
        result = subprocess.run(command + argv, capture_output=True, text=True, timeout=120)
        results.append((argv, expected, result.returncode, result.stderr))
    # A reader that closes the pipe after the header.
    argv = ["sweep", "--e0=-1", "--k-min", "0.01", "--k-max", "100", "--points", "200000"]
    with subprocess.Popen(
        command + argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    ) as child:
        child.stdout.readline()
        child.stdout.close()
        stderr = child.stderr.read()
        results.append((argv, EXIT_OK, child.wait(timeout=120), stderr))
    failures = [
        (argv, code, stderr[-300:])
        for argv, expected, code, stderr in results
        if code != expected
        or any(word in stderr for word in ("Warning", "Traceback", "Exception ignored"))
    ]
    assert failures == []
    assert not unwritten.exists()


@functools.cache
def other_cpythons():
    """One CPython per minor version 3.10 .. 3.13, other than the one running:
    python3.10 .. python3.13 on PATH first, then $PYENV_ROOT/versions/*/bin/python3
    (default ~/.pyenv), since a pyenv shim with no version set does not start."""
    probe = (
        "import os, sys; print(sys.implementation.name == 'cpython' "
        "and (3, 10) <= sys.version_info < (3, 14) and sys.version_info[1]); "
        "print(os.path.realpath(sys.executable))"
    )
    pyenv = pathlib.Path(os.environ.get("PYENV_ROOT", pathlib.Path.home() / ".pyenv"))
    candidates = [shutil.which(f"python3.{minor}") for minor in range(10, 14)]
    candidates += sorted(map(str, pyenv.glob("versions/*/bin/python3")))
    own, found = os.path.realpath(sys.executable), {}
    for exe in filter(None, candidates):
        try:
            result = subprocess.run(
                [exe, "-c", probe], capture_output=True, text=True, timeout=60
            )
        except (OSError, subprocess.TimeoutExpired):
            continue
        minor, _, path = result.stdout.partition("\n")
        path = path.rstrip("\n")
        if result.returncode == 0 and minor.isdigit() and path != own:
            found.setdefault(minor, exe)
    return list(found.values())


def run_children(argvs, options=()):
    """(interpreter, argv, exit code, stdout, stderr) of each argv as a
    python [options] -m deltascatter child of each other CPython; skips when
    none starts."""
    interpreters = other_cpythons()
    if not interpreters:
        pytest.skip("no other CPython 3.10 .. 3.13 starts from PATH or pyenv")
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    runs = []
    for exe in interpreters:
        for argv in argvs:
            result = subprocess.run(
                [exe, *options, "-m", "deltascatter", *argv],
                capture_output=True, env=env, timeout=120,
            )
            runs.append((exe, argv, result.returncode, result.stdout, result.stderr))
    return runs


def test_pinned_outputs_under_other_cpythons():
    # The package promises stdlib only and requires-python >= 3.10: every
    # pinned table must come out the same under each version.
    expected = {tuple(argv.split()): (code, digest) for argv, code, digest in PINNED_OUTPUTS}
    failures = [
        (exe, argv, code, err[-200:])
        for exe, argv, code, out, err in run_children(list(expected))
        if (code, hashlib.sha256(out).hexdigest()) != expected[argv]
    ]
    assert failures == []


def test_space_form_under_other_cpythons():
    # build_parser sets _negative_number_matcher, a private argparse
    # attribute, so a new Python is where the space form would break first.
    argvs = [("-2.5e-3",)] + [tuple(head + form) for head in E0_HEADS
                              for form in (["--e0=-2.5e-3"], ["--e0", "-2.5e-3"])]
    runs = {(exe, argv): (code, out, err) for exe, argv, code, out, err in run_children(argvs)}
    failures = []
    for exe in {exe for exe, _ in runs}:
        code, out, err = runs[exe, ("-2.5e-3",)]
        blamed = b"error: argument subcommand: invalid choice: '-2.5e-3'" in err.splitlines()[-1]
        if (code, out, blamed) != (EXIT_VALIDATION, b"", True):
            failures.append((exe, "-2.5e-3", code, err[-200:]))
        for head in E0_HEADS:
            code, out, _ = runs[exe, tuple(head + ["--e0=-2.5e-3"])]
            space_form = runs[exe, tuple(head + ["--e0", "-2.5e-3"])]
            if code != EXIT_OK or space_form != (code, out, b""):
                failures.append((exe, head, code, space_form[0], space_form[2][-200:]))
    assert failures == []


@pytest.mark.skipif(not DEV_FULL.exists(), reason="no /dev/full")
def test_unwritable_output_under_other_cpythons():
    # --output's flush and close share stdout's write path; each Python's io
    # must still raise one write error there, named once on stderr.
    argvs = [tuple(argv) + ("--output", str(DEV_FULL)) for argv in UNWRITABLE_ARGVS]
    message = (
        f"error: --output {str(DEV_FULL)!r} cannot be written: "
        f"{os.strerror(errno.ENOSPC)}\n"
    ).encode()
    failures = [
        (exe, argv, code, err[-300:])
        for exe, argv, code, out, err in run_children(argvs)
        if (code, out, err) != (EXIT_VALIDATION, b"", message)
    ]
    assert failures == []


def test_dev_mode_under_other_cpythons():
    # Annotations evaluate at definition time and build_parser sets a private
    # argparse attribute: a newer or older Python is where either would warn
    # first.
    expected = {
        ("cross-section", "--k", "1", "--e0=-1", "--method", "limit"): (EXIT_OK, b""),
        ("limit-study", "--k", "1", "--e0=-1"): (EXIT_OK, b""),
        ("sweep", "--e0=-1", "--k-min", "0.5", "--k-max", "2"): (EXIT_OK, b""),
        ("cross-section", "--k", "1", "--e0=-1", "--method", "limit",
         "--mode", "truncated-log"): (
            EXIT_DOMAIN,
            b"error: the regularizing bracket vanished; sigma(eps) is undefined here\n",
        ),
    }
    runs = run_children(list(expected), ("-X", "dev", "-W", "error"))
    failures = [
        (exe, argv, code, err[-300:])
        for exe, argv, code, out, err in runs
        if (code, err) != expected[argv]
    ]
    assert failures == []


class FailingStringIO(io.StringIO):
    """A stdout with no file descriptor on which every write fails."""

    def __init__(self, error):
        super().__init__()
        self.error = error

    def write(self, text):
        raise self.error


PROC_FD = pathlib.Path("/proc/self/fd")


@pytest.mark.parametrize(
    "error, code, message",
    [
        (OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)), EXIT_VALIDATION,
         f"error: stdout cannot be written: {os.strerror(errno.ENOSPC)}\n"),
        (BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE)), EXIT_OK, ""),
    ],
    ids=["no-space", "broken-pipe"],
)
def test_failed_write_to_a_stdout_without_descriptor(error, code, message):
    open_fds = len(os.listdir(PROC_FD)) if PROC_FD.exists() else None
    err = io.StringIO()
    with contextlib.redirect_stdout(FailingStringIO(error)), contextlib.redirect_stderr(err):
        result = main(["cross-section", "--k", "1", "--e0", "-1"])
    assert (result, err.getvalue()) == (code, message)
    if open_fds is not None:
        assert len(os.listdir(PROC_FD)) == open_fds


def open_fd_count():
    """Descriptors this process holds, or None where /proc is absent."""
    return len(os.listdir(PROC_FD)) if PROC_FD.exists() else None


# The file side of main's one write path, which otherwise only children reach.
@pytest.mark.skipif(not DEV_FULL.exists(), reason="no /dev/full")
def test_unwritable_output_file_in_process(capsys):
    open_fds = open_fd_count()
    result = main(["cross-section", "--k", "1", "--e0", "-1", "--output", str(DEV_FULL)])
    assert (result, *capsys.readouterr()) == (
        EXIT_VALIDATION, "",
        f"error: --output {str(DEV_FULL)!r} cannot be written: {os.strerror(errno.ENOSPC)}\n",
    )
    assert open_fd_count() == open_fds


def test_row_error_to_an_output_file_in_process(capsys, tmp_path):
    target = tmp_path / "table.csv"
    open_fds = open_fd_count()
    result = main(["sweep", "--e0=-1", "--k-min", "1e-320", "--k-max", "1",
                   "--points", "5", "--output", str(target)])
    # The first row fails with a DomainError while the header is buffered.
    assert (result, *capsys.readouterr(), target.read_text()) == (
        EXIT_DOMAIN, "",
        "error: the cross section at k=1e-320, e0=-1.0 exceeds the largest double\n",
        "k,ln_x,delta0,sigma,sigma_times_k\n",
    )
    assert open_fd_count() == open_fds


def flag_rows(parser):
    """Each action of parser, and each entry of its subcommand list, as values."""
    rows = []
    for action in parser._actions:
        for a in [action, *getattr(action, "_choices_actions", ())]:
            rows.append((
                a.option_strings, a.dest, a.default, getattr(a.type, "__name__", a.type),
                None if a.choices is None else list(a.choices), a.required, a.help,
            ))
    return rows


def test_every_parser_flag_is_pinned():
    # --help's layout differs between Python versions; what it is made of does not.
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if a.dest == "subcommand"]
    parsers = {"deltascatter": parser, **subparsers.choices}
    eps_start_help = "largest cutoff (default: 1e-2, shrunk to fit the series domain)"
    eps_factor_help = "ratio of each cutoff to the one before, in (0, 1)"
    eps_count_help = (
        "number of cutoffs (default: 5 with --eps-start, otherwise enough at "
        "--eps-factor to take max(k, mu)*eps down to 7e-6)"
    )
    assert {name: flag_rows(p) for name, p in parsers.items()} == {
        "deltascatter": [
            (["-h", "--help"], "help", "==SUPPRESS==", None, None, False,
             "show this help message and exit"),
            ([], "subcommand", None, None, ["cross-section", "limit-study", "sweep"],
             True, None),
            ([], "cross-section", None, None, None, False,
             "one (k, e0) pair by a chosen route"),
            ([], "limit-study", None, None, None, False,
             "sigma(eps) trace down a cutoff schedule"),
            ([], "sweep", None, None, None, False,
             "closed-form observables over a momentum grid"),
        ],
        "cross-section": [
            (["-h", "--help"], "help", "==SUPPRESS==", None, None, False,
             "show this help message and exit"),
            (["--k"], "k", None, "float", None, True, "incident momentum"),
            (["--e0"], "e0", None, "float", None, True,
             "bound-state energy, must be negative"),
            (["--method"], "method", "closed", None,
             ["closed", "partial-wave", "limit"], False, "route to the cross section"),
            (["--mode"], "mode", "full", None, ["asymptotic", "full", "truncated-log"],
             False, "how the cutoff bracket is evaluated"),
            (["--eps-start"], "eps_start", None, "float", None, False, eps_start_help),
            (["--eps-factor"], "eps_factor", 0.1, "float", None, False,
             eps_factor_help),
            (["--eps-count"], "eps_count", None, "int", None, False, eps_count_help),
            (["--output"], "output", None, None, None, False,
             "write the table here instead of stdout"),
        ],
        "limit-study": [
            (["-h", "--help"], "help", "==SUPPRESS==", None, None, False,
             "show this help message and exit"),
            (["--k"], "k", None, "float", None, True, "incident momentum"),
            (["--e0"], "e0", None, "float", None, True,
             "bound-state energy, must be negative"),
            (["--mode"], "mode", "full", None, ["asymptotic", "full", "truncated-log"],
             False, "how the cutoff bracket is evaluated"),
            (["--eps-start"], "eps_start", None, "float", None, False, eps_start_help),
            (["--eps-factor"], "eps_factor", 0.1, "float", None, False,
             eps_factor_help),
            (["--eps-count"], "eps_count", None, "int", None, False, eps_count_help),
            (["--output"], "output", None, None, None, False,
             "write the table here instead of stdout"),
        ],
        "sweep": [
            (["-h", "--help"], "help", "==SUPPRESS==", None, None, False,
             "show this help message and exit"),
            (["--e0"], "e0", None, "float", None, True,
             "bound-state energy, must be negative"),
            (["--k-min"], "k_min", None, "float", None, True,
             "smallest momentum of the grid"),
            (["--k-max"], "k_max", None, "float", None, True,
             "largest momentum of the grid"),
            (["--points"], "points", 9, "int", None, False,
             "number of grid momenta, at least 2"),
            (["--output"], "output", None, None, None, False,
             "write the table here instead of stdout"),
        ],
    }


def test_cli_import_loads_no_dataclasses_or_inspect():
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import deltascatter.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")


class TestUnrepresentableSigma:
    """Valid input whose cross section exceeds the largest double exits 4."""

    @pytest.mark.parametrize("method", ["closed", "partial-wave", "limit"])
    def test_cross_section(self, capsys, method):
        code, out, err = run_cli(
            capsys, ["cross-section", "--k", "1e-320", "--e0=-1", "--method", method]
        )
        assert (code, out) == (EXIT_DOMAIN, "")
        assert "k=1e-320, e0=-1.0" in err and "largest double" in err
        assert "sigma must" not in err

    @pytest.mark.parametrize("mode", ["full", "asymptotic"])
    def test_tiny_sigma_by_the_limit_route(self, capsys, mode):
        # 4*k*|bracket|^2 overflows at k = 1e304; sigma itself is 2.0e-309.
        head = ["cross-section", "--k", "1e304", "--e0=-1"]
        _, closed, _ = run_cli(capsys, head)
        code, out, err = run_cli(
            capsys, head + ["--method", "limit", "--mode", mode, "--eps-count", "5"]
        )
        assert (code, err) == (EXIT_OK, "")
        sigma = float(out.splitlines()[1].split(",")[-1])
        assert sigma == pytest.approx(
            float(closed.splitlines()[1].split(",")[-1]), rel=1e-9, abs=0.0
        )

    def test_limit_study(self, capsys):
        # The closed-form column of the study is what cannot be represented.
        code, out, err = run_cli(
            capsys,
            [
                "limit-study", "--k", "1e-320", "--e0=-1",
                "--eps-start", "1e-2", "--eps-count", "2",
            ],
        )
        assert (code, out) == (EXIT_DOMAIN, "")
        assert "largest double" in err

    def test_sweep_keeps_the_rows_before_the_failing_row(self, capsys, tmp_path):
        argv = ["sweep", "--e0=-1", "--k-min", "1e-320", "--k-max", "1", "--points", "5"]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (EXIT_DOMAIN, "k,ln_x,delta0,sigma,sigma_times_k\n")
        assert "largest double" in err
        target = tmp_path / "table.csv"
        code, _, _ = run_cli(capsys, argv + ["--output", str(target)])
        assert code == EXIT_DOMAIN
        assert target.read_bytes() == out.encode("ascii")


class TestStreamedSweep:
    @given(st.tuples(*[st.floats(allow_nan=False)] * 5))
    def test_row_format_is_fmt_per_value(self, row):
        assert _SWEEP_ROW % row == ",".join(format(v, "#.15g") for v in row) + "\n"

    def test_memory_does_not_grow_with_points(self, capsys, tmp_path):
        argv = [
            "sweep", "--e0=-1", "--k-min", "0.01", "--k-max", "100",
            "--points", "100000", "--output", str(tmp_path / "table.csv"),
        ]
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert peak < 2**20

    def test_bad_flags_create_no_output_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, _, _ = run_cli(
            capsys,
            [
                "sweep", "--e0=-1", "--k-min", "2", "--k-max", "1",
                "--output", str(target),
            ],
        )
        assert code == EXIT_VALIDATION
        assert not target.exists()

    def test_closed_pipe_ends_the_run_quietly(self):
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "deltascatter", "sweep", "--e0=-1",
                "--k-min", "0.01", "--k-max", "100", "--points", "200000",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        head = proc.stdout.read(100)
        proc.stdout.close()
        code = proc.wait(timeout=120)
        err = proc.stderr.read()
        proc.stderr.close()
        assert head.startswith(b"k,ln_x,delta0,sigma,sigma_times_k\n")
        assert (code, err) == (EXIT_OK, b"")


def log_uniform(low, high):
    return st.floats(math.log(low), math.log(high)).map(math.exp)


def sweep_by_object_api(e0, k_min, k_max, points):
    """(exit code, stdout, stderr) of sweep, built from the object API."""
    out = "k,ln_x,delta0,sigma,sigma_times_k\n"
    for k in _geometric_grid(k_min, k_max, points):
        problem = ScatteringProblem(k=k, e0=e0)
        try:
            sigma = cross_section_closed(problem).sigma
        except DomainError as exc:
            return EXIT_DOMAIN, out, f"error: {exc}\n"
        delta0 = s_wave_phase_shift(problem).delta0
        out += _SWEEP_ROW % (k, problem.log_x, delta0, sigma, sigma * k)
    return EXIT_OK, out, ""


class TestSweepKernels:
    """sweep builds its rows from the kernels behind the object API."""

    @settings(max_examples=300, deadline=None)
    @given(
        minus_e0=log_uniform(1e-300, 1e300),
        ends=st.tuples(log_uniform(1e-300, 1e300), log_uniform(1e-300, 1e300)),
        points=st.integers(2, 60),
    )
    @example(minus_e0=1.0, ends=(1e-320, 1.0), points=5)
    @example(minus_e0=1e-300, ends=(1e-320, 1e-310), points=7)
    @example(minus_e0=1e300, ends=(1e-300, 1e300), points=41)
    @example(minus_e0=1e-300, ends=(1e-10, 1e300), points=31)
    def test_rows_equal_the_object_api_bit_for_bit(self, minus_e0, ends, points):
        k_min, k_max = sorted(ends)
        assume(k_min < k_max)
        argv = [
            "sweep", f"--e0={-minus_e0!r}", "--k-min", repr(k_min),
            "--k-max", repr(k_max), "--points", str(points),
        ]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        expected = sweep_by_object_api(-minus_e0, k_min, k_max, points)
        assert (code, out.getvalue(), err.getvalue()) == expected

    @settings(max_examples=500, deadline=None)
    @given(
        ends=st.tuples(
            st.floats(5e-324, sys.float_info.max), st.floats(5e-324, sys.float_info.max)
        ),
        points=st.integers(2, 3000),
    )
    @example(ends=(5e-324, sys.float_info.max), points=3000)
    @example(ends=(5e-324, 1e-323), points=3000)
    def test_every_grid_momentum_is_positive_and_finite(self, ends, points):
        # Why a row need not check its k again: exp(log(5e-324)) is 5e-324.
        k_min, k_max = sorted(ends)
        assume(k_min < k_max)
        assert all(0.0 < k < math.inf for k in _geometric_grid(k_min, k_max, points))

    def test_rows_build_no_objects(self, monkeypatch, tmp_path):
        built = collections.Counter()
        for cls in (ScatteringProblem, CrossSection, PhaseShift):

            def counted(made, *args, _new=cls.__new__, **kwargs):
                built[made.__name__] += 1
                return _new(made, *args, **kwargs)

            monkeypatch.setattr(cls, "__new__", staticmethod(counted))
        argv = [
            "sweep", "--e0=-1", "--k-min", "0.01", "--k-max", "100",
            "--points", "10000", "--output", str(tmp_path / "table.csv"),
        ]
        assert main(argv) == EXIT_OK
        assert built["ScatteringProblem"] <= 1
        assert built["CrossSection"] == built["PhaseShift"] == 0
        # The count sees the object API when it is used.
        problem = ScatteringProblem(k=1.0, e0=-1.0)
        cross_section_closed(problem)
        s_wave_phase_shift(problem)
        assert built["CrossSection"] == built["PhaseShift"] == 1


@st.composite
def cli_argvs(draw):
    """Any argv of the grammar, over all doubles."""
    subcommand = draw(st.sampled_from(["cross-section", "limit-study", "sweep"]))
    e0 = -draw(log_uniform(1e-320, 1e308))
    argv = [subcommand, f"--e0={e0!r}"]
    if subcommand == "sweep":
        for flag in ("--k-min", "--k-max"):
            argv.append(f"{flag}={draw(log_uniform(1e-320, 1e308))!r}")
        return argv + ["--points", str(draw(st.integers(0, 50)))]
    argv += ["--k", repr(draw(log_uniform(1e-320, 1e308)))]
    if subcommand == "cross-section":
        argv += ["--method", draw(st.sampled_from(["closed", "partial-wave", "limit"]))]
    argv += ["--mode", draw(st.sampled_from(["full", "asymptotic", "truncated-log"]))]
    for flag, values in (
        ("--eps-start", log_uniform(1e-320, 1e308)),
        ("--eps-factor", st.floats(0.0, 1.0)),
        ("--eps-count", st.integers(0, 8)),
    ):
        value = draw(st.none() | values)
        if value is not None:
            argv.append(f"{flag}={value!r}")
    return argv


def run_main(argv):
    """(exit code, stdout, stderr) of main, run in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=500, deadline=None)
@given(cli_argvs(), st.sampled_from([None, "file", "dir", "missing-dir", "dev-full"]))
def test_no_argv_in_the_grammar_exits_one(argv, output):
    assume(output != "dev-full" or DEV_FULL.exists())
    code, out, err = run_main(argv)
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_NO_CONVERGENCE, EXIT_DOMAIN)
    if output is None:
        return
    with tempfile.TemporaryDirectory() as tmp:
        target = {
            "file": os.path.join(tmp, "table.csv"),
            "dir": tmp,
            "missing-dir": os.path.join(tmp, "missing", "table.csv"),
            "dev-full": str(DEV_FULL),
        }[output]
        result = run_main(argv + ["--output", target])
        if output == "file":
            table = pathlib.Path(target)
            assert (table.read_text("ascii") if table.exists() else "") == out
    if output == "file" or out == "":
        # Written in full, or the run stopped before the output was opened.
        assert result == (code, "", err)
    else:
        failed = "written" if output == "dev-full" else "opened"
        assert result[:2] == (EXIT_VALIDATION, "")
        assert result[2].startswith(f"error: --output {target!r} cannot be {failed}: ")
        assert result[2].count("\n") == 1


def fingerprint_argv(rng):
    """One argv of any subcommand, with good and bad values for every flag.

    Numbers are drawn as decimal strings from integers, so the argvs are
    the same on every platform.
    """

    def number(low, high):
        if rng.random() < 0.1:
            return rng.choice(["0", "1", "inf", "nan", "5e-324", "1e308", "x"])
        return f"{rng.randint(1, 99)}e{rng.randint(low, high)}"

    def maybe(flag, value):
        return [f"{flag}={value}"] if rng.random() < 0.5 else []

    subcommand = rng.choice(["cross-section", "limit-study", "sweep"])
    sign = "-" if rng.random() < 0.9 else ""
    argv = [subcommand, f"--e0={sign}{number(-320, 308)}"]
    if subcommand == "sweep":
        argv += [f"--k-min={number(-320, 10)}", f"--k-max={number(-10, 308)}"]
        return argv + maybe("--points", rng.choice(["-1", "1", "2", "5", "40", "x"]))
    argv.append(f"--k={'-' if rng.random() < 0.1 else ''}{number(-320, 308)}")
    if subcommand == "cross-section":
        argv += maybe("--method", rng.choice(["closed", "partial-wave", "limit", "x"]))
    argv += maybe("--mode", rng.choice(["full", "asymptotic", "truncated-log", "x"]))
    argv += maybe("--eps-start", rng.choice(["-1", "0", "inf", "nan", "3", "5e-324"])
                  if rng.random() < 0.3 else number(-320, 0))
    argv += maybe("--eps-factor", rng.choice(
        ["0.1", "0.5", "0.9", "0.9999999999999999", "1", "0", "-0.5", "nan", "x"]))
    return argv + maybe("--eps-count", rng.choice(["-1", "1", "2", "2", "3", "5", "8", "x"]))


def test_fingerprint_of_exit_codes_and_texts():
    # argparse's own messages differ between Python versions, so a flag it
    # rejects is pinned by exit code and the argument blamed, not by text.
    digest = hashlib.sha256()
    rng = random.Random(20261019)
    for _ in range(1000):
        argv = fingerprint_argv(rng)
        code, out, err = run_main(argv)
        if err.startswith("usage:"):
            err = err.splitlines()[-1].partition(": error: ")[2].partition(":")[0]
        digest.update(repr((argv, code, out, err)).encode())
    assert digest.hexdigest() == (
        "91f021e36d00a272948e98e68d3e99bb2268f42c305ecd57d8f670eab5c7a2c6"
    )
