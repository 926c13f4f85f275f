import collections
import enum
import hashlib
import math
import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from deltascatter.errors import DomainError, ValidationError
from deltascatter.regularization import (
    EpsilonSchedule,
    RegularizationMode,
    limit_extrapolate,
    mead_godines_wrong_limit,
    regularized_cross_section,
)
from deltascatter import regularization, special_functions
from deltascatter.scattering import ScatteringProblem, cross_section_closed
from deltascatter.special_functions import (
    EULER_GAMMA,
    TWO_OVER_PI,
    bessel_k0,
    hankel1_0,
    hankel1_0_small_z,
    k0_small_z,
)
from support import PI_SQ, draw_log_uniform, log_uniform, problem_at

momenta = st.floats(min_value=0.1, max_value=10.0)
log_ratios = st.floats(min_value=-3.0, max_value=3.0)
cutoffs = st.floats(min_value=1e-8, max_value=1e-3)
modes = st.sampled_from(list(RegularizationMode))


# (k, mu): both on [1e-3, 1e3], or k anywhere on [1e-150, 1e150] with
# mu/k on [1e-3, 1e3].
scales = st.one_of(
    st.tuples(log_uniform(1e-3, 1e3), log_uniform(1e-3, 1e3)),
    st.tuples(log_uniform(1e-150, 1e150), log_uniform(1e-3, 1e3)).map(
        lambda k_ratio: (k_ratio[0], k_ratio[0] * k_ratio[1])
    ),
)


def complex_chain_sigma(problem, eps, mode):
    """sigma(eps) with the bracket built by builtin complex arithmetic."""
    z_mu = problem.bound_state_scale * eps
    z_k = problem.k * eps
    if mode is RegularizationMode.FULL:
        k0_value, h0 = bessel_k0(z_mu), hankel1_0(z_k)
    elif mode is RegularizationMode.ASYMPTOTIC:
        k0_value, h0 = k0_small_z(z_mu), hankel1_0_small_z(z_k)
    else:
        k0_value = -math.log(z_mu)
        h0 = complex(0.0, TWO_OVER_PI * math.log(z_k))
    bracket = complex(k0_value, 0.0) * (0.25 * TWO_OVER_PI) + 1j * h0 * -0.25
    modulus_sq = bracket.real * bracket.real + bracket.imag * bracket.imag
    if modulus_sq == 0.0:
        return None
    return 1.0 / (4.0 * problem.k * modulus_sq)


class TestEpsilonSchedule:
    def test_epsilons_geometric(self):
        schedule = EpsilonSchedule(eps_start=1e-2, factor=1e-1, count=3)
        assert list(schedule.epsilons()) == [1e-2 * 1e-1**i for i in range(3)]
        assert list(schedule.epsilons()) == pytest.approx([1e-2, 1e-3, 1e-4], rel=1e-15)

    @given(log_uniform(1e-3, 6.9), log_uniform(1e-3, 6.9))
    def test_default(self, k, mu):
        # The one default schedule is the stock one below max(k, mu) = 7.
        schedule = EpsilonSchedule.default_for(ScatteringProblem(k=k, e0=-mu * mu))
        assert schedule == EpsilonSchedule(eps_start=1e-2, factor=1e-1, count=5)

    def test_default_for_plain_problem_is_stock(self):
        assert EpsilonSchedule.default_for(problem_at(1.0, 0.0)) == EpsilonSchedule(
            eps_start=1e-2, factor=1e-1, count=5
        )

    def test_default_for_shrinks_and_deepens(self):
        # mu = 10 e^3 makes mu*1e-2 overflow the series domain once.
        schedule = EpsilonSchedule.default_for(problem_at(10.0, 3.0))
        assert schedule.eps_start == pytest.approx(1e-3)
        assert schedule.count == 6
        problem = problem_at(10.0, 3.0)
        largest = list(schedule.epsilons())[0]
        assert problem.bound_state_scale * largest <= 2.0

    @pytest.mark.parametrize("eps_start", [0.0, -1e-2, math.nan, math.inf])
    def test_bad_eps_start(self, eps_start):
        with pytest.raises(ValidationError):
            EpsilonSchedule(eps_start=eps_start, factor=0.1, count=3)

    @pytest.mark.parametrize("factor", [0.0, 1.0, 1.5, 1.1, -0.1, -2.0, math.nan])
    def test_bad_factor(self, factor):
        with pytest.raises(ValidationError):
            EpsilonSchedule(eps_start=1e-2, factor=factor, count=3)
        with pytest.raises(ValidationError):
            EpsilonSchedule.default_for(problem_at(1.0, 0.0), factor)

    @pytest.mark.parametrize(
        "factor, count", [(0.5, 12), (0.3, 8), (0.9, 70), (1.0 - 1e-6, 10_000)]
    )
    def test_default_count_follows_the_factor(self, factor, count):
        # Enough cutoffs to take max(k, mu)*eps from 1e-2 to 7e-6, and at most
        # 10 000 however close the factor is to 1.
        schedule = EpsilonSchedule.default_for(problem_at(1.0, 0.0), factor)
        assert schedule == EpsilonSchedule(eps_start=1e-2, factor=factor, count=count)

    def test_default_depth_over_the_accuracy_contract(self):
        """README's "at most seven at the default factor 0.1", on 200 000
        seeded problems, k log-uniform on [1e-300, 1e300] and mu on
        [1e-150, 1e150], one in five within 1e-3 of resonance, and at the
        largest k: the first cutoff inside the series domain, the last
        positive with max(k, mu)*eps at most 7e-6, and seven at most."""
        rng = random.Random(29)

        def draws():
            yield from [(sys.float_info.max, 1.0), (1e300, 1e-150), (1e-300, 1e150)]
            for i in range(200_000):
                mu = draw_log_uniform(rng, 1e-150, 1e150)
                if i % 5 == 0:
                    yield mu * math.exp(rng.uniform(-1e-3, 1e-3)), mu
                else:
                    yield draw_log_uniform(rng, 1e-300, 1e300), mu

        largest = 0
        for k, mu in draws():
            problem = ScatteringProblem(k=k, e0=-mu * mu)
            schedule = EpsilonSchedule.default_for(problem)
            scale = max(k, problem.bound_state_scale)
            last_eps = list(schedule.epsilons())[-1]
            assert schedule.count <= 7, (k, mu)
            assert scale * schedule.eps_start <= 2.0, (k, mu)
            assert last_eps > 0.0 and scale * last_eps <= 7e-6, (k, mu)
            largest = max(largest, schedule.count)
        assert largest == 7

    @pytest.mark.parametrize("count", [0, 1, -3])
    def test_bad_count(self, count):
        with pytest.raises(ValidationError):
            EpsilonSchedule(eps_start=1e-2, factor=0.1, count=count)

    def test_cutoffs_that_fail_to_shrink(self):
        # 0.9 * 5e-324 rounds back to 5e-324, the smallest subnormal.
        schedule = EpsilonSchedule(eps_start=5e-324, factor=0.9, count=3)
        with pytest.raises(ValidationError, match=r"^factor .*cutoff 2, 5e-324,"):
            list(schedule.epsilons())


class TestLimitEstimateType:
    """A LimitEstimate's contracts, held by its producer limit_extrapolate."""

    def test_rejects_single_sample(self):
        # Cutoff 2 underflows to 0.0, leaving one usable sample.
        schedule = EpsilonSchedule(eps_start=1e-300, factor=1e-30, count=2)
        with pytest.raises(DomainError, match="eps=0.0"):
            limit_extrapolate(problem_at(1.0, 0.0), schedule, RegularizationMode.FULL)

    def test_rejects_nondecreasing_eps(self, monkeypatch):
        sampled = []

        def k0_sum(z, log_half):
            sampled.append(z)
            return 1.0

        # Each FULL sample sums K0 once, at z = mu*eps = eps here.
        monkeypatch.setattr("deltascatter.regularization._k0_sum", k0_sum)
        schedule = EpsilonSchedule(eps_start=5e-324, factor=0.9, count=3)
        with pytest.raises(ValidationError, match="^factor "):
            limit_extrapolate(problem_at(1.0, 0.0), schedule, RegularizationMode.FULL)
        # The cutoff that fails to shrink is never sampled.
        assert sampled == [5e-324]

    def test_error_is_the_gap_when_sigma_falls(self):
        problem = ScatteringProblem(k=1.0, e0=-2.0)
        schedule = EpsilonSchedule(eps_start=1e-2, factor=1e-300, count=2)
        estimate = limit_extrapolate(problem, schedule, RegularizationMode.FULL)
        (_, sigma_prev), (_, sigma_last) = estimate.samples
        assert sigma_last < sigma_prev
        assert estimate.error_estimate == sigma_prev - sigma_last


class TestRegularizedCrossSection:
    @pytest.mark.parametrize("eps", [0.0, -1e-3, math.nan, math.inf])
    def test_bad_eps_rejected(self, eps):
        with pytest.raises(DomainError):
            regularized_cross_section(problem_at(1.0, 0.0), eps, RegularizationMode.FULL)

    def test_unknown_mode_rejected(self):
        # A mode is a RegularizationMode member; not its value, not None.
        problem = problem_at(1.0, 0.5)
        schedule = EpsilonSchedule.default_for(problem)
        with pytest.raises(ValidationError, match=r"^unknown regularization mode: 'full'$"):
            limit_extrapolate(problem, schedule, "full")
        with pytest.raises(ValidationError, match=r"^unknown regularization mode: None$"):
            regularized_cross_section(problem, 1e-3, None)
        # The mode is checked before the first cutoff, even one out of domain.
        problem = ScatteringProblem(k=1.0, e0=-1.0)
        with pytest.raises(ValidationError, match=r"^unknown regularization mode: 'full'$"):
            limit_extrapolate(problem, EpsilonSchedule(3.0, 0.5, 2), "full")
        with pytest.raises(ValidationError, match=r"^unknown regularization mode: None$"):
            regularized_cross_section(problem, 3.0, None)
        # Nor a look-alike member: the mode is matched by identity.
        look_alike = enum.Enum("Mode", {"FULL": "full"}).FULL
        message = r"^unknown regularization mode: <Mode\.FULL: 'full'>$"
        with pytest.raises(ValidationError, match=message):
            limit_extrapolate(problem, schedule, look_alike)
        with pytest.raises(ValidationError, match=message):
            regularized_cross_section(problem, 1e-3, look_alike)

    @pytest.mark.parametrize("mode", list(RegularizationMode))
    def test_underflowed_cutoff_names_the_input(self, mode):
        # mu*eps = 1e-451 underflows to 0, but its log, ln mu + ln eps, is
        # exact: the sample is finite, and K0's series is its log term alone.
        problem = ScatteringProblem(k=1e300, e0=-1e-300)
        eps = 1e-301
        mu, z_k = problem.bound_state_scale, problem.k * eps
        assert mu * eps == 0.0
        log_z_mu = math.log(mu) + math.log(eps)
        if mode is RegularizationMode.TRUNCATED_LOG:
            k0_value, h0 = -log_z_mu, complex(0.0, TWO_OVER_PI * math.log(z_k))
        else:
            k0_value = -(log_z_mu - math.log(2.0)) - EULER_GAMMA
            full = mode is RegularizationMode.FULL
            h0 = (hankel1_0 if full else hankel1_0_small_z)(z_k)
        bracket = k0_value / (2.0 * math.pi) - 0.25j * h0
        expected = 1.0 / (4.0 * problem.k * abs(bracket) ** 2)
        sigma = regularized_cross_section(problem, eps, mode)
        assert sigma == pytest.approx(expected, rel=1e-12)
        # A cutoff that itself underflows to 0 is refused, naming the input.
        with pytest.raises(
            DomainError, match=r"^at k=1e\+300, e0=-1e-300, eps=0\.0 the cutoff must "
        ):
            regularized_cross_section(problem, eps * 1e-30, mode)

    # (k, e0, eps, then .hex() of sigma(eps) in FULL, ASYMPTOTIC and
    # TRUNCATED_LOG), frozen before products off the normal doubles took
    # their logs from ln a + ln eps: a product at the smallest normal double
    # and one ulp above it, a subnormal eps with normal products, and a
    # product at the top of the series domain.
    NORMAL_EDGE_PINS = [
        (1.0, -4.0, 2.2250738585072014e-308,
         "0x1.ac8d5cec039bbp+1", "0x1.ac8d5cec039bbp+1", "0x1.48ad36a8c3312p+4"),
        (2.0, -1.0, 2.2250738585072014e-308,
         "0x1.ac8d5cec039bbp+0", "0x1.ac8d5cec039bbp+0", "0x1.48ad36a8c3312p+3"),
        (1.0, -4.0, 2.225073858507202e-308,
         "0x1.ac8d5cec039bbp+1", "0x1.ac8d5cec039bbp+1", "0x1.48ad36a8c3312p+4"),
        (2.0, -1.0, 2.225073858507202e-308,
         "0x1.ac8d5cec039bbp+0", "0x1.ac8d5cec039bbp+0", "0x1.48ad36a8c3312p+3"),
        (1e300, -1e300, 5e-324,
         "0x1.d0c6509b2190dp-1011", "0x1.d0c6509b2190dp-1011", "0x1.d0c8c69dfc81ep-1011"),
        (1e300, -1e300, 1e-310,
         "0x1.d0c6509b2190dp-1011", "0x1.d0c6509b2190dp-1011", "0x1.d0c8c69dfc81ep-1011"),
        (3e307, -2.5e306, 1e-320,
         "0x0.0007ada54abfdp-1022", "0x0.0007ada54abfdp-1022", "0x0.0007adaf217f4p-1022"),
        (4.0, -0.25, 0.5,
         "0x1.c208b591ebec8p-2", "0x1.74071e211d324p-2", "0x1.2428309602a05p-1"),
        (1.0, -4.0, 1.0,
         "0x1.a2badce60c8eap+2", "0x1.ac8d5cec03b66p+1", "0x1.48ad36a8c2f46p+4"),
        (4.0, -0.25, 0.49999999999999994,
         "0x1.c208b591ebec6p-2", "0x1.74071e211d322p-2", "0x1.2428309602a05p-1"),
    ]

    @pytest.mark.parametrize("k, e0, eps, full, asymptotic, truncated", NORMAL_EDGE_PINS)
    def test_bit_pinned_at_the_normal_edge(self, k, e0, eps, full, asymptotic, truncated):
        problem = ScatteringProblem(k=k, e0=e0)
        for mode, pin in zip(RegularizationMode, (full, asymptotic, truncated)):
            assert regularized_cross_section(problem, eps, mode).hex() == pin

    @pytest.mark.parametrize("mode", list(RegularizationMode))
    def test_overflowing_sigma_raises(self, mode):
        problem = ScatteringProblem(k=1e-320, e0=-1.0)
        with pytest.raises(DomainError, match="largest double"):
            regularized_cross_section(problem, 1e-2, mode)

    @pytest.mark.parametrize("mode", list(RegularizationMode))
    def test_tiny_sigma_is_not_zero(self, mode):
        # 4*k*|bracket|^2 overflows here; sigma itself is about 2e-309.
        problem = ScatteringProblem(k=1e304, e0=-1.0)
        eps = 1e-305
        sigma = regularized_cross_section(problem, eps, mode)
        closed = cross_section_closed(problem).sigma
        if mode is RegularizationMode.TRUNCATED_LOG:
            closed = mead_godines_wrong_limit(problem)
        assert sigma == pytest.approx(closed, rel=1e-3, abs=0.0)

    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6, 5.96e-8])
    def test_truncated_logs_that_round_equal_off_resonance(self, eps):
        # ln x = 2.2e-16: the two bare logs round equal, but ln x is not 0.
        problem = ScatteringProblem(k=1.0, e0=-1.0000000000000004)
        sigma = regularized_cross_section(problem, eps, RegularizationMode.TRUNCATED_LOG)
        assert sigma == pytest.approx(mead_godines_wrong_limit(problem), rel=1e-12)

    @pytest.mark.parametrize(
        "mode", [RegularizationMode.FULL, RegularizationMode.ASYMPTOTIC]
    )
    def test_series_domain_guard(self, mode):
        # mu*eps = 3 exceeds the series domain in both restricted modes
        message = (
            r"^at k=1\.0, e0=-1\.0, eps=3\.0 the cutoff must be positive with "
            r"mu\*eps = 3\.0 and k\*eps = 3\.0 both at most 2\.0$"
        )
        with pytest.raises(DomainError, match=message):
            regularized_cross_section(problem_at(1.0, 0.0), 3.0, mode)

    def test_truncated_accepts_large_eps(self):
        sigma = regularized_cross_section(
            problem_at(1.0, 1.0), 5.0, RegularizationMode.TRUNCATED_LOG
        )
        assert sigma == pytest.approx(PI_SQ, rel=1e-12)

    def test_truncated_eps_independent(self):
        problem = problem_at(1.0, 1.0)
        values = [
            regularized_cross_section(problem, eps, RegularizationMode.TRUNCATED_LOG)
            for eps in (1e-2, 1e-4)
        ]
        assert values[0] == pytest.approx(values[1], rel=1e-12)
        assert values[0] == pytest.approx(PI_SQ, rel=1e-12)

    def test_truncated_log_offset_convention_is_immaterial(self):
        # Retaining ln(z/2) instead of ln z shifts both logs by the same
        # constant, which cancels inside the bracket.
        problem = problem_at(1.7, 0.8)
        for eps in (1e-2, 1e-3, 1e-4):
            sigma = regularized_cross_section(
                problem, eps, RegularizationMode.TRUNCATED_LOG
            )
            k0_alt = -math.log(0.5 * problem.bound_state_scale * eps)
            h0_alt_im = TWO_OVER_PI * math.log(0.5 * problem.k * eps)
            bracket_re = 0.25 * TWO_OVER_PI * k0_alt + 0.25 * h0_alt_im
            sigma_alt = 1.0 / (4.0 * problem.k * bracket_re * bracket_re)
            assert sigma_alt == pytest.approx(sigma, rel=1e-12)

    def test_truncated_singular_at_resonance(self):
        with pytest.raises(DomainError, match="bracket vanished"):
            regularized_cross_section(
                problem_at(1.5, 0.0), 1e-3, RegularizationMode.TRUNCATED_LOG
            )

    @pytest.mark.parametrize("k", [1.0, 3.0, 0.7])
    def test_asymptotic_resonance_exact(self, k):
        problem = problem_at(k, 0.0)
        for eps in (1e-2, 1e-3, 0.5):
            sigma = regularized_cross_section(
                problem, eps, RegularizationMode.ASYMPTOTIC
            )
            assert sigma == 4.0 / k

    def test_full_mode_near_resonance_value(self):
        sigma = regularized_cross_section(
            problem_at(1.0, 0.0), 1e-4, RegularizationMode.FULL
        )
        assert sigma == pytest.approx(4.0, rel=1e-6)

    @pytest.mark.parametrize("mode", list(RegularizationMode))
    @given(k=momenta, log_x=st.one_of(st.just(0.0), log_ratios), eps=cutoffs)
    def test_bit_identical_to_complex_chain(self, mode, k, log_x, eps):
        problem = problem_at(k, log_x)
        expected = complex_chain_sigma(problem, eps, mode)
        if expected is None and problem.log_x != 0.0:
            # Only the truncated bare logs can cancel off resonance; there
            # the bracket is taken as its exact value -ln x/(2 pi).
            assert mode is RegularizationMode.TRUNCATED_LOG
            expected = mead_godines_wrong_limit(problem)
            assert regularized_cross_section(problem, eps, mode) == pytest.approx(
                expected, rel=1e-12
            )
        elif expected is None:
            with pytest.raises(DomainError, match="bracket vanished"):
                regularized_cross_section(problem, eps, mode)
        else:
            assert regularized_cross_section(problem, eps, mode) == expected

    @given(momenta, log_ratios, cutoffs, modes)
    def test_positive(self, k, log_x, eps, mode):
        problem = problem_at(k, log_x)
        if mode is RegularizationMode.TRUNCATED_LOG and problem.log_x == 0.0:
            return
        assert regularized_cross_section(problem, eps, mode) > 0.0


class TestLimitExtrapolate:
    @pytest.mark.parametrize("mode", [RegularizationMode.FULL, RegularizationMode.ASYMPTOTIC])
    @pytest.mark.parametrize("k, e0", [(1.0, -1.0), (3.0, -0.02), (1e-5, -1e4)])
    def test_cutoff_guard_is_the_only_domain_check(self, monkeypatch, mode, k, e0):
        calls = []

        def counting(check):
            def counted(z, name):
                calls.append(name)
                check(z, name)
            return counted

        for check in ("_require_series_domain", "_require_positive"):
            monkeypatch.setattr(
                f"deltascatter.special_functions.{check}",
                counting(getattr(special_functions, check)),
            )
        problem = ScatteringProblem(k=k, e0=e0)
        estimate = limit_extrapolate(problem, EpsilonSchedule.default_for(problem), mode)
        assert estimate.converged
        assert calls == []
        # The public kernels still check their own argument.
        for kernel in (bessel_k0, hankel1_0, k0_small_z, hankel1_0_small_z):
            kernel(0.5)
        assert calls == ["bessel_k0", "hankel1_0", "k0_small_z", "hankel1_0_small_z"]

    def test_full_samples_run_one_ladder_each(self, monkeypatch):
        # Each FULL sample sums the K0 ladder and the shared J0/Y0 ladder
        # once, and no sample goes back through a public function.
        calls = collections.Counter()

        def counted(name, kernel):
            def call(*args):
                calls[name] += 1
                return kernel(*args)
            return call

        def public(*args):
            raise AssertionError("a sample went through a public function")

        for name in ("_k0_sum", "_h0_sum"):
            kernel = getattr(regularization, name)
            monkeypatch.setattr(regularization, name, counted(name, kernel))
        monkeypatch.setattr(regularization, "regularized_cross_section", public)
        for module in (special_functions, regularization):
            for name in (
                "bessel_j0", "bessel_y0", "bessel_k0", "hankel1_0",
                "k0_small_z", "hankel1_0_small_z",
            ):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, public)
        samples = 0
        for k, e0 in [(1.0, -2.5), (1e-5, -1e4), (3e250, -1e-250)]:
            problem = ScatteringProblem(k=k, e0=e0)
            schedule = EpsilonSchedule.default_for(problem)
            estimate = limit_extrapolate(problem, schedule, RegularizationMode.FULL)
            assert len(estimate.samples) == schedule.count
            samples += schedule.count
        assert calls == {"_k0_sum": samples, "_h0_sum": samples}

    def test_full_mode_reference_case(self):
        estimate = limit_extrapolate(
            problem_at(1.0, 0.0),
            EpsilonSchedule(eps_start=1e-2, factor=1e-1, count=5),
            RegularizationMode.FULL,
        )
        assert estimate.converged
        assert estimate.sigma_limit == pytest.approx(4.0, rel=1e-8)
        assert len(estimate.samples) == 5
        assert estimate.error_estimate == abs(
            estimate.samples[-1][1] - estimate.samples[-2][1]
        )

    def test_truncated_mode_converges_to_wrong_value(self):
        problem = problem_at(1.0, 1.0)
        estimate = limit_extrapolate(
            problem,
            EpsilonSchedule(eps_start=1e-2, factor=1e-1, count=5),
            RegularizationMode.TRUNCATED_LOG,
        )
        assert estimate.converged
        assert estimate.sigma_limit == pytest.approx(PI_SQ, rel=1e-12)

    def test_asymptotic_resonance_samples_all_exact(self):
        problem = problem_at(2.0, 0.0)
        estimate = limit_extrapolate(
            problem,
            EpsilonSchedule(eps_start=1e-2, factor=1e-1, count=5),
            RegularizationMode.ASYMPTOTIC,
        )
        assert estimate.converged
        assert estimate.error_estimate == 0.0
        assert all(sigma == 2.0 for _, sigma in estimate.samples)

    def test_not_converged_is_a_result(self):
        schedule = EpsilonSchedule(eps_start=0.5, factor=0.5, count=2)
        estimate = limit_extrapolate(
            problem_at(1.0, 0.0), schedule, RegularizationMode.FULL
        )
        assert not estimate.converged

    @pytest.mark.parametrize(
        "factor, rtol", [(0.1, 1e-8), (0.5, 1e-8), (0.75, 5e-9), (0.999999, 2e-14)]
    )
    def test_rtol_is_the_one_tested(self, factor, rtol):
        schedule = EpsilonSchedule(eps_start=1e-2, factor=factor, count=3)
        estimate = limit_extrapolate(problem_at(1.0, 0.5), schedule, RegularizationMode.FULL)
        assert estimate.rtol == pytest.approx(rtol, rel=1e-9)
        gap = estimate.error_estimate
        assert estimate.converged == (gap <= estimate.rtol * estimate.sigma_limit)

    def test_domain_error_propagates(self):
        schedule = EpsilonSchedule(eps_start=3.0, factor=0.1, count=2)
        with pytest.raises(DomainError):
            limit_extrapolate(problem_at(1.0, 0.0), schedule, RegularizationMode.FULL)

    @given(scales)
    def test_default_schedule_converges_at_any_scale(self, k_mu):
        k, mu = k_mu
        problem = ScatteringProblem(k=k, e0=-mu * mu)
        schedule = EpsilonSchedule.default_for(problem)
        closed = cross_section_closed(problem).sigma
        for mode in (RegularizationMode.FULL, RegularizationMode.ASYMPTOTIC):
            estimate = limit_extrapolate(problem, schedule, mode)
            assert estimate.converged
            assert estimate.sigma_limit == pytest.approx(closed, rel=1e-8)

    # The whole double range, where mu/k runs from 1e-450 to 1e450 and a
    # cutoff product can round to a subnormal or to 0.
    @given(log_uniform(1e-300, 1e300), log_uniform(1e-150, 1e150))
    def test_default_schedule_converges_over_the_double_range(self, k, mu):
        problem = ScatteringProblem(k=k, e0=-mu * mu)
        schedule = EpsilonSchedule.default_for(problem)
        try:
            closed = cross_section_closed(problem).sigma
        except DomainError:
            closed = None
        for mode in (RegularizationMode.FULL, RegularizationMode.ASYMPTOTIC):
            if closed is None:
                with pytest.raises(DomainError):
                    limit_extrapolate(problem, schedule, mode)
                continue
            estimate = limit_extrapolate(problem, schedule, mode)
            assert estimate.converged
            assert estimate.sigma_limit == pytest.approx(closed, rel=1e-8)

    @pytest.mark.parametrize("log_x", [-2.0, -0.5, 0.5, 2.0])
    def test_mode_agreement_off_resonance(self, log_x):
        problem = problem_at(1.3, log_x)
        schedule = EpsilonSchedule.default_for(problem)
        closed = cross_section_closed(problem).sigma
        full = limit_extrapolate(problem, schedule, RegularizationMode.FULL)
        asym = limit_extrapolate(problem, schedule, RegularizationMode.ASYMPTOTIC)
        trunc = limit_extrapolate(problem, schedule, RegularizationMode.TRUNCATED_LOG)
        assert full.sigma_limit == pytest.approx(closed, rel=1e-6)
        assert asym.sigma_limit == pytest.approx(closed, rel=1e-8)
        ratio = trunc.sigma_limit / closed
        expected = (PI_SQ + 4.0 * log_x**2) / (4.0 * log_x**2)
        assert ratio == pytest.approx(expected, rel=1e-8)

    def test_monotone_convergence_diagnostics(self):
        for problem in (problem_at(1.0, 0.0), problem_at(1.0, 1.0)):
            closed = cross_section_closed(problem).sigma
            schedule = EpsilonSchedule(eps_start=1e-3, factor=1e-1, count=4)
            estimate = limit_extrapolate(problem, schedule, RegularizationMode.FULL)
            errors = [abs(sigma - closed) for _, sigma in estimate.samples]
            for larger, smaller in zip(errors, errors[1:]):
                assert smaller < larger


def predicted_gap(problem, eps):
    """sigma(eps)/sigma - 1 of a FULL sample to O(z^2): K0, J0 and Y0 to
    that order (DLMF 10.8, 10.31) move the bracket from its limit
    B0 = -ln x/(2 pi) - i/4 by dB_re = [z_mu^2 (1 - L_mu) + z_k^2 (1 - L_k)]/(8 pi)
    and dB_im = z_k^2/16, with L = ln(z/2) + gamma, and sigma ~ 1/|B|^2."""
    z_mu, z_k = problem.bound_state_scale * eps, problem.k * eps
    l_mu, l_k = (math.log(z / 2.0) + EULER_GAMMA for z in (z_mu, z_k))
    b0_re, b0_im = -problem.log_x / (2.0 * math.pi), -0.25
    db_re = (z_mu**2 * (1.0 - l_mu) + z_k**2 * (1.0 - l_k)) / (8.0 * math.pi)
    db_im = z_k**2 / 16.0
    return -2.0 * (b0_re * db_re + b0_im * db_im) / (b0_re**2 + b0_im**2)


def test_predicted_gap_explains_the_default_stop():
    """3 000 seeded problems, k and mu log-uniform on [1e-3, 1e3], down
    default_for in FULL mode.  Where max(k, mu)*eps <= 1e-3 and the gap is
    above 1e-9, predicted_gap matches each sample's observed gap to 1e-3 of
    itself.  At the next-to-last cutoff it is below 1e-8 and at the last at
    most 1e-9, so the last two samples pass the 1e-8 stop test; the gap
    depends on max(k, mu)*eps and ln x alone, and its peak over ln x at
    those two cutoffs, 7e-5 and 7e-6, is held to the same bounds."""
    rng = random.Random(22)
    matched, worst_match, next_to_last, last = 0, 0.0, 0.0, 0.0
    for _ in range(3_000):
        k, mu = (draw_log_uniform(rng, 1e-3, 1e3) for _ in range(2))
        problem = ScatteringProblem(k=k, e0=-mu * mu)
        scale = max(problem.k, problem.bound_state_scale)
        sigma = cross_section_closed(problem).sigma
        schedule = EpsilonSchedule.default_for(problem)
        estimate = limit_extrapolate(problem, schedule, RegularizationMode.FULL)
        gaps = [predicted_gap(problem, eps) for eps, _ in estimate.samples]
        for (eps, sigma_eps), gap in zip(estimate.samples, gaps):
            if scale * eps <= 1e-3 and abs(gap) > 1e-9:
                matched += 1
                miss = abs(sigma_eps / sigma - 1.0 - gap) / abs(gap)
                worst_match = max(worst_match, miss)
        next_to_last = max(next_to_last, abs(gaps[-2]))
        last = max(last, abs(gaps[-1]))
    assert matched >= 4_000
    assert worst_match <= 1e-3
    assert next_to_last < 1e-8
    assert last <= 1e-9
    grid = [problem_at(1.0, i / 100) for i in range(-1_000, 1_001)]
    for z, bound in ((7e-5, 1e-8), (7e-6, 1e-9)):
        peak = max(abs(predicted_gap(p, z / max(p.k, p.bound_state_scale))) for p in grid)
        assert peak < bound, (z, peak)


# Cutoffs for the limit route's fingerprint: bad ones, subnormal ones, and
# ones whose products leave the series domain for large k or mu.
FINGERPRINT_CUTOFFS = (
    0.0, -1.0, math.nan, math.inf, 5e-324, 1e-310, 1e-200, 1e-8, 1e-3, 1.0
)


def _outcome(function, *args):
    """A result as text: floats as .hex(), a LimitEstimate field by field,
    an error as its type and message."""
    try:
        result = function(*args)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"
    if isinstance(result, float):
        return result.hex()
    samples = " ".join(f"{eps.hex()},{sigma.hex()}" for eps, sigma in result.samples)
    return (
        f"{result.sigma_limit.hex()} {result.error_estimate.hex()} "
        f"{result.converged} {result.rtol.hex()} [{samples}]"
    )


LIMIT_ROUTE_SHA256 = "ad4fb0d0e95b8bd1407c1dc0e638c7e6d5422e36b8897e449e8c7e761a22741b"


def test_limit_route_fingerprint():
    """Every sample, limit and error text of the limit route over 1 200
    seeded problems in all three modes, bit for bit as the route gave them
    when each sample was one regularized_cross_section call."""
    rng = random.Random(17)
    bounds = [(1e-3, 1e3, 1e-3, 1e3)] * 600 + [(1e-300, 1e300, 1e-150, 1e150)] * 600
    scales = [
        (draw_log_uniform(rng, k_low, k_high), draw_log_uniform(rng, mu_low, mu_high))
        for k_low, k_high, mu_low, mu_high in bounds
    ]
    digest = hashlib.sha256()
    for k, mu in scales:
        problem = ScatteringProblem(k=k, e0=-mu * mu)
        schedule = EpsilonSchedule.default_for(problem)
        for mode in RegularizationMode:
            lines = [_outcome(limit_extrapolate, problem, schedule, mode)]
            lines += [
                _outcome(regularized_cross_section, problem, eps, mode)
                for eps in FINGERPRINT_CUTOFFS
            ]
            digest.update("\n".join([repr(problem), mode.value, *lines, ""]).encode())
    assert digest.hexdigest() == LIMIT_ROUTE_SHA256


class TestWrongLimit:
    def test_log_x_one(self):
        assert mead_godines_wrong_limit(problem_at(1.0, 1.0)) == pytest.approx(
            PI_SQ, rel=1e-12
        )

    def test_k_two(self):
        assert mead_godines_wrong_limit(problem_at(2.0, 1.0)) == pytest.approx(
            4.934802200544679, rel=1e-12
        )

    def test_singular_at_resonance(self):
        with pytest.raises(DomainError, match="diverges at resonance"):
            mead_godines_wrong_limit(problem_at(1.0, 0.0))

    def test_overshoot_factor(self):
        # wrong/correct = (pi^2 + 4 ln_x^2)/(4 ln_x^2), frozen at ln x = 1
        problem = problem_at(1.0, 1.0)
        wrong = mead_godines_wrong_limit(problem)
        correct = cross_section_closed(problem).sigma
        assert correct == pytest.approx(2.846398243431996, rel=1e-12)
        assert wrong / correct == pytest.approx(3.4674011002723395, rel=1e-12)

    def test_ratio_approaches_one_far_from_resonance(self):
        problem = problem_at(1.0, 100.0)
        ratio = mead_godines_wrong_limit(problem) / cross_section_closed(problem).sigma
        assert ratio == pytest.approx(1.0, abs=1e-3)
        assert ratio > 1.0

    @given(momenta, log_ratios.filter(lambda v: abs(v) >= 0.05))
    def test_always_overshoots(self, k, log_x):
        problem = problem_at(k, log_x)
        assert mead_godines_wrong_limit(problem) > cross_section_closed(problem).sigma
