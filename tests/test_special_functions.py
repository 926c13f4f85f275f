import math
import random
import sys

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltascatter.errors import DomainError
from deltascatter.special_functions import (
    EULER_GAMMA,
    TWO_OVER_PI,
    bessel_j0,
    bessel_k0,
    bessel_y0,
    hankel1_0,
    hankel1_0_small_z,
    k0_small_z,
)
from series_oracle import j0_series, k0_series, y0_series

# Frozen from tests/series_oracle.py at 50 digits, rounded to doubles.
J0_KNOWN = {0.5: 0.9384698072408129, 1.0: 0.7651976865579666, 2.0: 0.22389077914123567}
Y0_KNOWN = {0.5: -0.44451873350670656, 1.0: 0.08825696421567696, 2.0: 0.5103756726497451}
K0_KNOWN = {0.1: 2.427069024702017, 1.0: 0.42102443824070834, 2.0: 0.11389387274953344}

# 2 e^(-gamma), where the ln(z/2) + gamma prefactor crosses zero.
LOG_NODE = 1.1229189671337703

in_domain = st.floats(min_value=1e-3, max_value=2.0, allow_nan=False)
positive = st.floats(min_value=1e-300, max_value=1e300, allow_nan=False)
subnormal = st.floats(min_value=5e-324, max_value=sys.float_info.min, exclude_max=True)

OUT_OF_DOMAIN = [0.0, -1.0, 2.0000000001, 3.0, math.inf, -math.inf, math.nan]


def test_euler_gamma_leading_digits():
    assert str(EULER_GAMMA).startswith("0.57721566")


def test_euler_gamma_matches_high_precision():
    assert EULER_GAMMA == pytest.approx(float(mp.euler), rel=1e-15)


@pytest.mark.parametrize("z,expected", sorted(J0_KNOWN.items()))
def test_j0_known_values(z, expected):
    assert bessel_j0(z) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("z,expected", sorted(Y0_KNOWN.items()))
def test_y0_known_values(z, expected):
    assert bessel_y0(z) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("z,expected", sorted(K0_KNOWN.items()))
def test_k0_known_values(z, expected):
    assert bessel_k0(z) == pytest.approx(expected, rel=1e-13)


def test_j0_small_argument_limit():
    assert bessel_j0(1e-9) == 1.0
    assert bessel_j0(1e-4) == pytest.approx(1.0, abs=1e-8)


def test_y0_small_argument_divergence():
    # Dominated by the (2/pi) ln(z/2) term far below the node.
    z = 1e-8
    expected = TWO_OVER_PI * (math.log(0.5 * z) + EULER_GAMMA)
    assert bessel_y0(z) == pytest.approx(expected, rel=1e-12)
    assert bessel_y0(z) < -10.0


@pytest.mark.parametrize(
    "z, expected",
    [(1e-200, "-0x1.253f7fcd3252ap+8"), (5e-324, "-0x1.d9ffc3469e1b2p+8")],
)
def test_y0_where_the_series_terms_underflow(z, expected):
    # z*z underflows, so the correction series stops at its first term.
    assert bessel_y0(z).hex() == expected


def test_k0_small_argument_divergence():
    z = 1e-8
    assert bessel_k0(z) == pytest.approx(-math.log(0.5 * z) - EULER_GAMMA, rel=1e-12)


def test_y0_at_log_node_is_pure_correction_series():
    # ln(z/2) + gamma vanishes there, so removing that term changes nothing.
    prefactor = math.log(0.5 * LOG_NODE) + EULER_GAMMA
    assert abs(prefactor) < 2e-16
    value = bessel_y0(LOG_NODE)
    assert value - TWO_OVER_PI * prefactor * bessel_j0(LOG_NODE) == pytest.approx(
        value, rel=1e-15
    )


# K0 falls strictly, but its computed values carry rounding noise of a few
# dozen ulp, so two arguments a few ulp apart may tie or swap.  On the
# domain d ln K0 / d ln z <= -0.14, so a relative gap of 1e-12 moves K0 by
# at least 1.4e-13 relative, some hundreds of ulp: the order then shows.
K0_MIN_RELATIVE_GAP = 1e-12


@given(
    st.tuples(in_domain, in_domain)
    .map(sorted)
    .filter(lambda pair: pair[1] - pair[0] >= K0_MIN_RELATIVE_GAP * pair[1])
)
def test_k0_strictly_decreasing(pair):
    z1, z2 = pair
    assert bessel_k0(z1) > bessel_k0(z2)


@given(in_domain)
def test_k0_positive(z):
    assert bessel_k0(z) > 0.0


@given(in_domain)
def test_j0_bounded_by_one(z):
    assert abs(bessel_j0(z)) <= 1.0


@given(in_domain)
def test_hankel_components_bit_identical_to_parts(z):
    h = hankel1_0(z)
    assert h.real == bessel_j0(z)
    assert h.imag == bessel_y0(z)


def test_hankel_components_bit_identical_on_random_arguments():
    rng = random.Random(20260)
    zs = [2.0] + [2.0 - rng.uniform(0.0, 2.0) for _ in range(9000)]
    zs += [10.0 ** rng.uniform(-300.0, 0.0) for _ in range(1000)]
    for z in zs:
        h = hankel1_0(z)
        assert (h.real, h.imag) == (bessel_j0(z), bessel_y0(z)), z


@given(in_domain)
def test_series_determinism(z):
    assert bessel_j0(z) == bessel_j0(z)
    assert bessel_y0(z) == bessel_y0(z)
    assert bessel_k0(z) == bessel_k0(z)


def test_hankel_known_value():
    h = hankel1_0(1.0)
    assert h.real == pytest.approx(J0_KNOWN[1.0], rel=1e-13)
    assert h.imag == pytest.approx(Y0_KNOWN[1.0], rel=1e-13)


def test_hankel_im_negative_below_node():
    assert hankel1_0(0.1).imag == pytest.approx(-1.5342386513503667, rel=1e-13)
    assert hankel1_0(0.1).imag < 0.0


@pytest.mark.parametrize(
    "func", [bessel_j0, bessel_y0, bessel_k0, hankel1_0], ids=lambda f: f.__name__
)
@pytest.mark.parametrize("z", OUT_OF_DOMAIN)
def test_series_domain_rejected(func, z):
    with pytest.raises(DomainError):
        func(z)


@pytest.mark.parametrize("func", [k0_small_z, hankel1_0_small_z], ids=lambda f: f.__name__)
@pytest.mark.parametrize("z", [0.0, -1.0, math.inf, -math.inf, math.nan])
def test_small_z_forms_reject_nonpositive(func, z):
    with pytest.raises(DomainError):
        func(z)


def test_small_z_forms_accept_large_arguments():
    # The two-term forms carry no series, so no 2.0 cap applies.
    assert k0_small_z(2.5) < 0.0
    assert hankel1_0_small_z(2.5).real == 1.0


def test_k0_small_z_values():
    assert k0_small_z(2.0) == -EULER_GAMMA
    assert k0_small_z(0.01) == pytest.approx(4.721101701646504, rel=1e-15)
    assert abs(k0_small_z(LOG_NODE)) < 1e-15


def test_hankel_small_z_values():
    at_two = hankel1_0_small_z(2.0)
    assert at_two.real == 1.0
    assert at_two.imag == pytest.approx(0.36746690519661596, rel=1e-14)
    at_node = hankel1_0_small_z(LOG_NODE)
    assert at_node.real == 1.0
    assert abs(at_node.imag) < 1e-15


@given(positive)
def test_hankel_small_z_real_part_always_one(z):
    assert hankel1_0_small_z(z).real == 1.0


@given(positive)
def test_small_z_forms_share_the_rounded_log(z):
    # im = (2/pi)(ln(z/2)+gamma) and k0_small_z = -(ln(z/2)+gamma) are built
    # from bitwise-negated intermediates, so this holds exactly; downstream
    # cancellation at resonance depends on it.
    assert hankel1_0_small_z(z).imag == -(TWO_OVER_PI * k0_small_z(z))


@pytest.mark.parametrize("z", [0.0015, 0.01, 0.11, 0.5, 0.9, 1.3, 1.7, 2.0])
def test_against_live_oracle(z):
    assert bessel_j0(z) == pytest.approx(float(j0_series(mp.mpf(z))), rel=1e-10)
    assert bessel_y0(z) == pytest.approx(float(y0_series(mp.mpf(z))), rel=1e-10)
    assert bessel_k0(z) == pytest.approx(float(k0_series(mp.mpf(z))), rel=1e-10)


@given(subnormal)
def test_subnormal_arguments_against_mpmath(z):
    # z/2 rounds below the normal doubles, and at 5e-324 it rounds to 0.
    with mp.workdps(30):
        k0 = float(mp.besselk(0, z))
        y0 = float(mp.bessely(0, z))
    assert bessel_k0(z) == pytest.approx(k0, rel=1e-10)
    assert k0_small_z(z) == pytest.approx(k0, rel=1e-10)
    assert bessel_y0(z) == pytest.approx(y0, rel=1e-10)
    assert hankel1_0(z) == pytest.approx(complex(1.0, y0), rel=1e-10)
    assert hankel1_0_small_z(z) == pytest.approx(complex(1.0, y0), rel=1e-10)


def test_asymptotic_consistency_order():
    grid = [1e-1, 1e-2, 1e-3, 1e-4]
    previous = None
    for z in grid:
        bound = z * z * (abs(math.log(z)) + 1.0)
        diff_k0 = abs(bessel_k0(z) - k0_small_z(z))
        h, h_small = hankel1_0(z), hankel1_0_small_z(z)
        diff_re = abs(h.real - h_small.real)
        diff_im = abs(h.imag - h_small.imag)
        for diff in (diff_k0, diff_re, diff_im):
            assert diff <= bound
        if previous is not None:
            assert diff_k0 < previous[0]
            assert diff_re < previous[1]
            assert diff_im < previous[2]
        previous = (diff_k0, diff_re, diff_im)
