import copy
import math
import pickle
import random
import sys

import mpmath as mp
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from deltascatter.errors import DomainError, ValidationError
from deltascatter.regularization import (
    EpsilonSchedule,
    RegularizationMode,
    limit_extrapolate,
    mead_godines_wrong_limit,
)
from deltascatter.scattering import (
    ScatteringProblem,
    cross_section_closed,
    cross_section_partial_wave,
    s_wave_phase_shift,
)

GRID_K = [0.1, 0.5, 1.0, 2.0, 10.0]
GRID_LOG_X = [-3.0, -1.0, -0.1, 0.0, 0.1, 1.0, 3.0]


def problem_at(k, log_x):
    """Problem whose ln x lands at log_x up to one rounding of exp."""
    return ScatteringProblem(k=k, e0=-((k * math.exp(log_x)) ** 2))


def grid_problems():
    return [problem_at(k, lx) for k in GRID_K for lx in GRID_LOG_X]


momenta = st.floats(min_value=1e-3, max_value=1e3)
log_ratios = st.floats(min_value=-6.0, max_value=6.0)


@st.composite
def problems(draw):
    return problem_at(draw(momenta), draw(log_ratios))


class TestScatteringProblem:
    @pytest.mark.parametrize("k", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_bad_momentum_rejected(self, k):
        with pytest.raises(ValidationError):
            ScatteringProblem(k=k, e0=-1.0)

    @pytest.mark.parametrize("e0", [0.0, 0.5, math.nan, math.inf, -math.inf])
    def test_bad_energy_rejected(self, e0):
        with pytest.raises(ValidationError):
            ScatteringProblem(k=1.0, e0=e0)

    def test_immutable(self):
        problem = ScatteringProblem(k=1.0, e0=-2.5)
        schedule = EpsilonSchedule(eps_start=1e-2, factor=0.1, count=2)
        records = [
            (problem, ("k", "e0", "bound_state_scale", "x", "log_x")),
            (cross_section_closed(problem), ("sigma",)),
            (s_wave_phase_shift(problem), ("delta0",)),
            (schedule, ("eps_start", "factor", "count")),
            (
                limit_extrapolate(problem, schedule, RegularizationMode.ASYMPTOTIC),
                ("sigma_limit", "error_estimate", "samples", "converged", "rtol"),
            ),
        ]
        for record, names in records:
            before = [getattr(record, name) for name in names]
            for name in names:
                with pytest.raises(AttributeError):
                    setattr(record, name, 2.0)
                with pytest.raises(AttributeError):
                    delattr(record, name)
            assert [getattr(record, name) for name in names] == before

    def test_record_reprs(self):
        problem = ScatteringProblem(k=1.0, e0=-2.5)
        schedule = EpsilonSchedule(eps_start=0.01, factor=0.1, count=2)
        estimate = limit_extrapolate(problem, schedule, RegularizationMode.ASYMPTOTIC)
        assert [
            repr(record)
            for record in (
                problem,
                cross_section_closed(problem),
                s_wave_phase_shift(problem),
                schedule,
                estimate,
            )
        ] == [
            "ScatteringProblem(k=1.0, e0=-2.5)",
            "CrossSection(sigma=3.6864044949134)",
            "PhaseShift(delta0=1.8545883457278631)",
            "EpsilonSchedule(eps_start=0.01, factor=0.1, count=2)",
            "LimitEstimate(sigma_limit=3.6864044949133996, "
            "error_estimate=8.881784197001252e-16, "
            "samples=((0.01, 3.6864044949134005), (0.001, 3.6864044949133996)), "
            "converged=True, rtol=1e-08)",
        ]

    def test_replace_and_make_validate(self):
        problem = ScatteringProblem(k=1.0, e0=-2.5)
        schedule = EpsilonSchedule(eps_start=1e-2, factor=0.1, count=2)
        with pytest.raises(ValidationError, match="^k "):
            problem._replace(k=-1.0)
        with pytest.raises(ValidationError, match="^e0 "):
            ScatteringProblem._make((1.0, 0.0))
        with pytest.raises(ValidationError, match="^factor "):
            schedule._replace(factor=2.0)
        with pytest.raises(ValidationError, match="^count "):
            EpsilonSchedule._make((1e-2, 0.1, 1))

    def test_replace_computes_the_derived_scales_again(self):
        replaced = ScatteringProblem(k=1.0, e0=-2.5)._replace(k=2.0)
        fresh = ScatteringProblem(k=2.0, e0=-2.5)
        assert type(replaced) is ScatteringProblem and replaced == fresh
        derived = ("bound_state_scale", "x", "log_x")
        assert [getattr(replaced, name).hex() for name in derived] == [
            getattr(fresh, name).hex() for name in derived
        ]

    def test_bound_state_scale(self):
        assert ScatteringProblem(k=1.0, e0=-1.0).bound_state_scale == 1.0
        assert ScatteringProblem(k=2.0, e0=-4.0).bound_state_scale == 2.0
        assert ScatteringProblem(k=1.0, e0=-2.0).bound_state_scale == 1.4142135623730951

    def test_log_x(self):
        assert ScatteringProblem(k=1.0, e0=-1.0).log_x == 0.0
        assert ScatteringProblem(k=1.0, e0=-math.e**2).log_x == pytest.approx(
            1.0, abs=5e-16
        )
        assert ScatteringProblem(k=math.e, e0=-1.0).log_x == pytest.approx(
            -1.0, abs=5e-16
        )

    def test_no_attribute_can_be_set(self):
        problem = ScatteringProblem(k=1.0, e0=-2.5)
        assert ScatteringProblem.__slots__ == () and not hasattr(problem, "__dict__")
        for name in ("mu", "_mu", "_x", "_log_x", "sigma"):
            with pytest.raises(AttributeError):
                setattr(problem, name, 1.0)

    def test_derived_scales_are_the_expressions_on_each_copy(self):
        rng = random.Random(24)
        for _ in range(2000):
            k = 10.0 ** rng.uniform(-300.0, 300.0)
            e0 = -((10.0 ** rng.uniform(-150.0, 150.0)) ** 2)
            problem = ScatteringProblem(k=k, e0=e0)
            mu = math.sqrt(-e0)
            x = mu / k
            if sys.float_info.min <= x < math.inf:
                log_x = math.log(x)
            else:
                log_x = math.log(mu) - math.log(k)
            expected = [v.hex() for v in (mu, x, log_x)]
            copies = (
                problem,
                pickle.loads(pickle.dumps(problem)),
                copy.deepcopy(problem),
                problem._replace(),
                problem._replace(k=k),
            )
            for same in copies:
                assert type(same) is ScatteringProblem and same == problem
                derived = (same.bound_state_scale, same.x, same.log_x)
                assert [v.hex() for v in derived] == expected
            assert repr(problem) == f"ScatteringProblem(k={k!r}, e0={e0!r})"
            assert hash(problem) == hash((k, e0))
        assert ScatteringProblem._fields == ("k", "e0")


class TestClosedForm:
    def test_resonance_value_exact(self):
        assert cross_section_closed(ScatteringProblem(k=1.0, e0=-1.0)).sigma == 4.0

    def test_log_x_one(self):
        # 2 pi^2 / (pi^2 + 4), frozen from the high-precision oracle
        problem = ScatteringProblem(k=2.0, e0=-4.0 * math.e**2)
        assert cross_section_closed(problem).sigma == pytest.approx(
            1.423199121715998, rel=1e-12
        )

    def test_log_x_minus_half_pi(self):
        problem = ScatteringProblem(k=1.0, e0=-math.exp(-math.pi))
        assert cross_section_closed(problem).sigma == pytest.approx(2.0, rel=1e-12)

    @given(problems())
    def test_positive(self, problem):
        assert cross_section_closed(problem).sigma > 0.0


class TestPhaseShift:
    def test_resonance_is_half_pi_exactly(self):
        problem = ScatteringProblem(k=1.0, e0=-1.0)
        assert s_wave_phase_shift(problem).delta0 == 0.5 * math.pi

    def test_quarter_pi(self):
        problem = ScatteringProblem(k=1.0, e0=-math.exp(-math.pi))
        assert s_wave_phase_shift(problem).delta0 == pytest.approx(
            0.7853981633974483, rel=1e-12
        )

    def test_three_quarter_pi(self):
        problem = ScatteringProblem(k=1.0, e0=-math.exp(math.pi))
        assert s_wave_phase_shift(problem).delta0 == pytest.approx(
            2.356194490192345, rel=1e-12
        )

    @given(problems())
    def test_branch_interval(self, problem):
        delta0 = s_wave_phase_shift(problem).delta0
        assert 0.0 < delta0 < math.pi
        if problem.log_x == 0.0:
            assert delta0 == 0.5 * math.pi

    @given(problems())
    def test_consistency_with_closed_form(self, problem):
        delta0 = s_wave_phase_shift(problem).delta0
        sigma = 4.0 * math.sin(delta0) ** 2 / problem.k
        assert sigma == pytest.approx(cross_section_closed(problem).sigma, rel=1e-12)


class TestPartialWave:
    @given(st.floats(min_value=1e-150, max_value=1e150))
    @example(1.0)
    def test_resonance_value_exact(self, k):
        # sqrt(k*k) is exactly k, so ln x is 0.0, tan(delta_0) is math.inf
        # and sin^2 must come out exactly 1.0.
        problem = ScatteringProblem(k=k, e0=-k * k)
        assert problem.log_x == 0.0
        assert cross_section_partial_wave(problem, m_max=5).sigma == 4.0 / k

    def test_matches_closed_example(self):
        problem = ScatteringProblem(k=1.0, e0=-math.exp(-math.pi))
        assert cross_section_partial_wave(problem, m_max=0).sigma == pytest.approx(
            2.0, rel=1e-12
        )

    def test_negative_m_max_rejected(self):
        with pytest.raises(ValidationError):
            cross_section_partial_wave(ScatteringProblem(k=1.0, e0=-1.0), m_max=-1)

    @given(problems(), st.integers(min_value=0, max_value=100))
    def test_m_max_independence_exact(self, problem, m_max):
        base = cross_section_partial_wave(problem, m_max=0).sigma
        assert cross_section_partial_wave(problem, m_max=m_max).sigma == base

    def test_huge_m_max_returns_the_m0_bits(self):
        problem = problem_at(0.7, -1.3)
        base = cross_section_partial_wave(problem, m_max=0).sigma
        assert cross_section_partial_wave(problem, m_max=10**9).sigma == base

    def test_route_equivalence_on_grid(self):
        for problem in grid_problems():
            closed = cross_section_closed(problem).sigma
            for m_max in (0, 3):
                partial = cross_section_partial_wave(problem, m_max=m_max).sigma
                assert partial == pytest.approx(closed, rel=1e-12)


ROUTES = pytest.mark.parametrize(
    "route", [cross_section_closed, cross_section_partial_wave]
)


class TestInvariants:
    @ROUTES
    @given(problems())
    def test_unitarity_bound(self, route, problem):
        sigma = route(problem).sigma
        assert sigma * problem.k <= 4.0 * (1.0 + 1e-15)

    @ROUTES
    def test_unitarity_strict_off_resonance(self, route):
        for problem in grid_problems():
            if problem.log_x != 0.0:
                assert route(problem).sigma * problem.k < 4.0

    @ROUTES
    @given(momenta, log_ratios)
    def test_log_x_sign_symmetry(self, route, k, log_x):
        sigma_plus = route(problem_at(k, log_x)).sigma
        sigma_minus = route(problem_at(k, -log_x)).sigma
        assert sigma_plus == pytest.approx(sigma_minus, rel=1e-12)

    def test_resonance_maximum(self):
        k = 0.7
        magnitudes = [0.0, 0.05, 0.3, 1.0, 2.5, 5.0]
        values = [
            cross_section_closed(problem_at(k, lx)).sigma * k for lx in magnitudes
        ]
        assert values[0] == pytest.approx(4.0, rel=1e-15)
        for larger, smaller in zip(values, values[1:]):
            assert smaller < larger


def exact_sigma(k, e0):
    with mp.workdps(40):
        log_x = mp.log(mp.sqrt(-mp.mpf(e0)) / k)
        return 4 * mp.pi**2 / (k * (mp.pi**2 + 4 * log_x**2))


class TestWholeDoubleRange:
    """Where x = mu/k under- or overflows, or k * denominator overflows."""

    @pytest.mark.parametrize(
        "k, e0, log_x",
        [(1e300, -1e-300, -1036.1632918473207), (1e-300, -1e300, 1036.1632918473207)],
    )
    def test_log_x_when_ratio_leaves_the_double_range(self, k, e0, log_x):
        problem = ScatteringProblem(k=k, e0=e0)
        assert problem.x in (0.0, math.inf)
        assert problem.log_x == pytest.approx(log_x, rel=1e-15)

    def test_phase_shift_when_ratio_overflows(self):
        delta0 = s_wave_phase_shift(ScatteringProblem(k=1e-300, e0=-1e300)).delta0
        assert delta0 == pytest.approx(math.pi - math.pi / (2 * 1036.1632918473207))

    def test_closed_form_when_k_times_denominator_overflows(self):
        problem = ScatteringProblem(k=1e308, e0=-1.0)
        closed = cross_section_closed(problem).sigma
        assert closed == pytest.approx(float(exact_sigma(1e308, -1.0)), rel=1e-9)
        assert format(closed, "#.15g") == format(
            cross_section_partial_wave(problem).sigma, "#.15g"
        )

    @given(
        st.floats(min_value=5e-324, max_value=1.7e308),
        st.floats(min_value=-1.7e308, max_value=-5e-324),
    )
    def test_routes_match_exact_value(self, k, e0):
        exact = exact_sigma(k, e0)
        assume(1e-300 < exact < 1e300)
        problem = ScatteringProblem(k=k, e0=e0)
        for sigma in (
            cross_section_closed(problem).sigma,
            cross_section_partial_wave(problem).sigma,
        ):
            assert abs(sigma - exact) <= 1e-13 * exact

    @pytest.mark.parametrize("route", [cross_section_closed, cross_section_partial_wave])
    def test_unrepresentable_sigma_is_a_domain_error(self, route):
        with pytest.raises(DomainError) as excinfo:
            route(ScatteringProblem(k=1e-320, e0=-1.0))
        message = str(excinfo.value)
        assert "k=1e-320, e0=-1.0" in message
        assert "exceeds the largest double" in message

    @given(
        st.floats(min_value=-323.0, max_value=-290.0).map(lambda t: 10.0**t),
        st.floats(min_value=-323.0, max_value=308.0).map(lambda t: -(10.0**t)),
    )
    def test_routes_overflow_only_where_sigma_does(self, k, e0):
        exact = exact_sigma(k, e0)
        largest = mp.mpf(sys.float_info.max)
        # Within rounding of the largest double either outcome is right.
        assume(abs(exact / largest - 1) > 1e-12)
        problem = ScatteringProblem(k=k, e0=e0)
        for route in (cross_section_closed, cross_section_partial_wave):
            if exact > largest:
                with pytest.raises(DomainError):
                    route(problem)
            else:
                assert math.isfinite(route(problem).sigma)


# The accuracy contract README states for the closed and partial-wave routes,
# in units in the last place of the exact sigma.
CONTRACT_ULP = 8.0
# ... and for the FULL and ASYMPTOTIC limits down EpsilonSchedule.default_for,
# relative to the exact sigma.  TRUNCATED_LOG's limit is wrong by design.
LIMIT_CONTRACT_REL = {RegularizationMode.FULL: 2e-10, RegularizationMode.ASYMPTOTIC: 1e-13}


def asymptotic_error_model(problem, eps):
    """Relative error ASYMPTOTIC's sigma(eps) can carry from rounding.

    Its bracket's real part, -ln x/(2 pi), is the difference of the two
    cutoff logs ln(mu eps/2) and ln(k eps/2), each rounded to within
    2^-53 of its size, which reaches about 745.  With L = ln x and
    sigma ~ 1/(L^2 + pi^2/4), that error reaches sigma as at most
    2|L|(|ln(mu eps/2)| + |ln(k eps/2)|) 2^-53/(L^2 + pi^2/4), largest near
    |L| = pi/2, on top of 16 * 2^-53 for the arithmetic after the logs.
    """
    log_x, log_half_eps = problem.log_x, math.log(eps) - math.log(2.0)
    logs = abs(math.log(problem.bound_state_scale) + log_half_eps) + abs(
        math.log(problem.k) + log_half_eps
    )
    return (2.0 * abs(log_x) * logs / (log_x * log_x + math.pi**2 / 4) + 16.0) * 2.0**-53


def truncated_log_error_model(problem, eps):
    """Relative gap TRUNCATED_LOG's sigma(eps) can carry from rounding, to
    mead_godines_wrong_limit.

    Its bracket's real part is the difference of the two bare logs
    ln(mu eps) and ln(k eps), which is L = ln x up to rounding.  Each log is
    rounded to within 2^-53 of its size, and its product mu*eps or k*eps to
    within 2^-53 relative, which the log turns into 2^-53 absolute: the 2.
    sigma goes as 1/L^2, doubling the relative error of L, on top of 16 * 2^-53
    for the arithmetic after the logs.  Near resonance, where this exceeds
    about 1e-2, a sample is rounding noise.
    """
    log_eps = math.log(eps)
    logs = abs(math.log(problem.bound_state_scale) + log_eps) + abs(
        math.log(problem.k) + log_eps
    )
    return (2.0 * (logs + 2.0) / abs(problem.log_x) + 16.0) * 2.0**-53


def test_truncated_log_samples_within_their_rounding_model():
    """9 000 seeded draws: k log-uniform on [1e-300, 1e300] and mu on
    [1e-150, 1e150], and three draws in ten with |ln x| log-uniform on
    [1e-14, 1].  Every sample down default_for whose model is at most 1e-2
    is within twice truncated_log_error_model of mead_godines_wrong_limit."""
    rng = random.Random(7)

    def log_uniform(low, high):
        return math.exp(rng.uniform(math.log(low), math.log(high)))

    worst_over_model, samples = 0.0, 0
    for _ in range(9_000):
        if rng.random() < 0.3:
            mu = log_uniform(1e-150, 1e150)
            k = mu * math.exp(rng.choice((-1.0, 1.0)) * log_uniform(1e-14, 1.0))
        else:
            k, mu = log_uniform(1e-300, 1e300), log_uniform(1e-150, 1e150)
        problem = ScatteringProblem(k=k, e0=-mu * mu)
        wrong_limit = mead_godines_wrong_limit(problem)
        schedule = EpsilonSchedule.default_for(problem)
        estimate = limit_extrapolate(problem, schedule, RegularizationMode.TRUNCATED_LOG)
        for eps, sigma in estimate.samples:
            model = truncated_log_error_model(problem, eps)
            if model <= 1e-2:
                samples += 1
                worst_over_model = max(worst_over_model, abs(sigma / wrong_limit - 1) / model)
    assert samples > 50_000
    assert worst_over_model <= 2.0


def test_accuracy_contract_against_mpmath():
    """6 000 seeded draws: k log-uniform on [1e-300, 1e300] and mu on
    [1e-150, 1e150], and one draw in five in the resonance band
    mu = k e^t, |t| <= 1e-3.  Both routes stay within CONTRACT_ULP of the
    40-digit sigma, with mu = sqrt(-e0) taken in mpmath; the FULL and
    ASYMPTOTIC limits down default_for converge within LIMIT_CONTRACT_REL,
    and ASYMPTOTIC's within twice asymptotic_error_model."""
    rng = random.Random(22)

    def log_uniform(low, high):
        return math.exp(rng.uniform(math.log(low), math.log(high)))

    routes = (cross_section_closed, cross_section_partial_wave)
    worst = dict.fromkeys((route.__name__ for route in routes), 0.0)
    worst_limit = dict.fromkeys(LIMIT_CONTRACT_REL, 0.0)
    worst_over_model, unconverged = 0.0, []
    for i in range(6_000):
        if i % 5 == 0:
            mu = log_uniform(1e-150, 1e150)
            k = mu * math.exp(-rng.uniform(-1e-3, 1e-3))
        else:
            k, mu = log_uniform(1e-300, 1e300), log_uniform(1e-150, 1e150)
        problem = ScatteringProblem(k=k, e0=-mu * mu)
        schedule = EpsilonSchedule.default_for(problem)
        with mp.workdps(40):
            exact = exact_sigma(k, problem.e0)
            ulp = math.ulp(float(exact))
            for route in routes:
                error = float(abs(mp.mpf(route(problem).sigma) - exact)) / ulp
                worst[route.__name__] = max(worst[route.__name__], error)
            for mode in LIMIT_CONTRACT_REL:
                estimate = limit_extrapolate(problem, schedule, mode)
                if not estimate.converged:
                    unconverged.append((k, mu, mode))
                error = float(abs(mp.mpf(estimate.sigma_limit) / exact - 1))
                worst_limit[mode] = max(worst_limit[mode], error)
                if mode is RegularizationMode.ASYMPTOTIC:
                    model = asymptotic_error_model(problem, estimate.samples[-1][0])
                    worst_over_model = max(worst_over_model, error / model)
    assert max(worst.values()) <= CONTRACT_ULP, worst
    assert unconverged == []
    assert all(worst_limit[m] <= LIMIT_CONTRACT_REL[m] for m in worst_limit), worst_limit
    assert worst_over_model <= 2.0
