import dataclasses
import math
import sys

import mpmath as mp
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from deltascatter.errors import DomainError, ValidationError
from deltascatter.scattering import (
    ScatteringProblem,
    cross_section_closed,
    cross_section_partial_wave,
    s_wave_phase_shift,
    sin_sq_from_tan,
)

GRID_K = [0.1, 0.5, 1.0, 2.0, 10.0]
GRID_LOG_X = [-3.0, -1.0, -0.1, 0.0, 0.1, 1.0, 3.0]


def problem_at(k, log_x):
    """Problem whose ln x lands at log_x up to one rounding of exp."""
    return ScatteringProblem(k=k, e0=-((k * math.exp(log_x)) ** 2))


def grid_problems():
    return [problem_at(k, lx) for k in GRID_K for lx in GRID_LOG_X]


momenta = st.floats(min_value=1e-3, max_value=1e3)
log_uniform = st.floats(min_value=-300.0, max_value=300.0).map(lambda t: 10.0**t)
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
        problem = ScatteringProblem(k=1.0, e0=-1.0)
        with pytest.raises(AttributeError):
            problem.k = 2.0

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


    @given(log_uniform, log_uniform)
    def test_derived_scales_are_the_expressions_computed_once(self, k, minus_e0):
        e0 = -minus_e0
        problem = ScatteringProblem(k=k, e0=e0)
        mu = math.sqrt(-e0)
        x = mu / k
        if sys.float_info.min <= x < math.inf:
            log_x = math.log(x)
        else:
            log_x = math.log(mu) - math.log(k)
        stored = (problem.bound_state_scale, problem.x, problem.log_x)
        assert [v.hex() for v in stored] == [v.hex() for v in (mu, x, log_x)]
        assert repr(problem) == f"ScatteringProblem(k={k!r}, e0={e0!r})"
        assert problem == ScatteringProblem(k=k, e0=e0)
        assert hash(problem) == hash((k, e0))
        assert [f.name for f in dataclasses.fields(problem)] == ["k", "e0"]


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


class TestSinSqFromTan:
    def test_trivial_points(self):
        assert sin_sq_from_tan(0.0) == 0.0
        assert sin_sq_from_tan(1.0) == 0.5
        assert sin_sq_from_tan(-1.0) == 0.5
        assert sin_sq_from_tan(math.inf) == 1.0
        assert sin_sq_from_tan(-math.inf) == 1.0

    def test_nan_rejected(self):
        with pytest.raises(ValidationError):
            sin_sq_from_tan(math.nan)

    @given(st.floats(min_value=-1e300, max_value=1e300))
    def test_range(self, t):
        value = sin_sq_from_tan(t)
        assert 0.0 <= value <= 1.0

    @given(st.floats(min_value=-1e6, max_value=1e6))
    def test_strictly_below_one_for_moderate_tan(self, t):
        assert sin_sq_from_tan(t) < 1.0

    @given(st.floats(min_value=-1e300, max_value=1e300))
    def test_even(self, t):
        assert sin_sq_from_tan(t) == sin_sq_from_tan(-t)


class TestPartialWave:
    def test_resonance_value_exact(self):
        problem = ScatteringProblem(k=1.0, e0=-1.0)
        assert cross_section_partial_wave(problem, m_max=5).sigma == 4.0

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


class TestInvariants:
    @given(problems())
    def test_unitarity_bound(self, problem):
        sigma = cross_section_closed(problem).sigma
        assert sigma * problem.k <= 4.0 * (1.0 + 1e-15)

    def test_unitarity_strict_off_resonance(self):
        for problem in grid_problems():
            if problem.log_x != 0.0:
                assert cross_section_closed(problem).sigma * problem.k < 4.0

    @given(momenta, log_ratios)
    def test_log_x_sign_symmetry(self, k, log_x):
        sigma_plus = cross_section_closed(problem_at(k, log_x)).sigma
        sigma_minus = cross_section_closed(problem_at(k, -log_x)).sigma
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
