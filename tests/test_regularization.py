import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from deltascatter.errors import DomainError, SingularityError, ValidationError
from deltascatter.regularization import (
    EpsilonSchedule,
    RegularizationMode,
    limit_extrapolate,
    mead_godines_wrong_limit,
    regularized_cross_section,
)
from deltascatter.scattering import ScatteringProblem, cross_section_closed
from deltascatter.special_functions import (
    TWO_OVER_PI,
    bessel_k0,
    hankel1_0,
    hankel1_0_small_z,
    k0_small_z,
)

PI_SQ = 9.869604401089358


def problem_at(k, log_x):
    return ScatteringProblem(k=k, e0=-((k * math.exp(log_x)) ** 2))


momenta = st.floats(min_value=0.1, max_value=10.0)
log_ratios = st.floats(min_value=-3.0, max_value=3.0)
cutoffs = st.floats(min_value=1e-8, max_value=1e-3)
modes = st.sampled_from(list(RegularizationMode))


def log_uniform(low, high):
    return st.floats(math.log(low), math.log(high)).map(math.exp)


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

    @pytest.mark.parametrize("factor", [0.0, 1.0, 1.5, -0.1, math.nan])
    def test_bad_factor(self, factor):
        with pytest.raises(ValidationError):
            EpsilonSchedule(eps_start=1e-2, factor=factor, count=3)

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

        def sample(problem, eps, mode):
            sampled.append(eps)
            return 1.0

        monkeypatch.setattr(
            "deltascatter.regularization.regularized_cross_section", sample
        )
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

    @pytest.mark.parametrize(
        "mode, hint",
        [
            # mu/k = 1e-450: no eps puts both products in (0, 2].
            (RegularizationMode.FULL, "not both in the series domain (0, 2.0]; no eps"),
            (RegularizationMode.ASYMPTOTIC, "series domain (0, 2.0]; no eps"),
            # Without the series bound eps = 1e-170 would do.
            (RegularizationMode.TRUNCATED_LOG, "positive and finite; use a larger eps"),
        ],
    )
    def test_underflowed_cutoff_names_the_input(self, mode, hint):
        problem = ScatteringProblem(k=1e300, e0=-1e-300)
        with pytest.raises(DomainError, match=r"k=1e\+300, e0=-1e-300, eps=1e-301") as info:
            regularized_cross_section(problem, 1e-301, mode)
        assert hint in str(info.value)
        regularized_cross_section(problem, 1e-170, RegularizationMode.TRUNCATED_LOG)

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
        with pytest.raises(DomainError, match=r"\(0, 2\.0\]; use a smaller eps$"):
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
        with pytest.raises(SingularityError):
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
            with pytest.raises(SingularityError):
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
        with pytest.raises(SingularityError):
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
