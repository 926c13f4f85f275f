import hashlib
import math
import random
import sys

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltascatter.errors import DomainError
from deltascatter import special_functions
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
from series_oracle import h0_ladders, j0_series, k0_ladder, k0_series, y0_series

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
    # im = (2/pi)(ln(z/2)+gamma) and k0_small_z = -(ln(z/2)+gamma), the m = 0
    # terms of the Y0 and K0 series, are built from one rounded ln(z/2)+gamma,
    # negated for K0, so this holds exactly; downstream cancellation at
    # resonance depends on it.
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


# The double nearest Y0's first zero 0.89357696627916752...  Y0 there is
# about -2.3e-17 and bessel_y0 returns 0.0, so near it Y0 has an absolute
# bound, not a relative one.
Y0_ZERO = 0.8935769662791675

# In units of 2^-52 |f| for J0 and K0, and of 2^-52 max(|Y0|, 1) for Y0:
# at least twice the worst of 8 000 draws like the test's at seeds 7 and 24
# (J0 2.76, K0 33.0, Y0 2.40; 0.36 within 2e-6 of Y0_ZERO).
KERNEL_ERROR_BOUNDS = {"j0": 6.0, "k0": 80.0, "y0": 5.0}


def test_kernel_error_bounds_against_mpmath():
    """J0, Y0 and K0 against mpmath at 40 digits on 1 000 seeded z, half
    log-uniform on [1e-300, 2] and half uniform on (0, 2]; Y0 also on 100
    seeded z within 2e-6 of Y0_ZERO and the 72 doubles around it."""
    rng = random.Random(24)
    zs = []
    for _ in range(500):
        zs.append(min(2.0, 10.0 ** rng.uniform(-300.0, math.log10(2.0))))
        zs.append(2.0 * (1.0 - rng.random()))
    near_zero = [Y0_ZERO + rng.uniform(-2e-6, 2e-6) for _ in range(100)]
    near_zero += [Y0_ZERO + i * math.ulp(Y0_ZERO) for i in range(-36, 36)]
    worst = dict.fromkeys(KERNEL_ERROR_BOUNDS, 0.0)
    with mp.workdps(40):
        for z in zs:
            j0, k0 = mp.besselj(0, z), mp.besselk(0, z)
            worst["j0"] = max(worst["j0"], abs(bessel_j0(z) - j0) / abs(j0))
            worst["k0"] = max(worst["k0"], abs(bessel_k0(z) - k0) / k0)
        for z in zs + near_zero:
            y0 = mp.bessely(0, z)
            worst["y0"] = max(worst["y0"], abs(bessel_y0(z) - y0) / max(abs(y0), 1))
    in_units = {name: float(error) / 2.0**-52 for name, error in worst.items()}
    assert {
        name: units for name, units in in_units.items() if units > KERNEL_ERROR_BOUNDS[name]
    } == {}


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


# (z, then .hex() of J0, Y0, K0, the two-term K0 and the two-term Y0 at z),
# frozen from the term-by-term series loops: subnormal z, z where z*z/4
# underflows (1e-200), and the domain up to 2.
KERNEL_PINS = [
    ("5e-324", "0x1.0000000000000p+0", "-0x1.d9ffc3469e1b2p+8", "0x1.74472b1ee1463p+9", "0x1.74472b1ee1463p+9", "-0x1.d9ffc3469e1b2p+8"),
    ("1e-323", "0x1.0000000000000p+0", "-0x1.d98ecc206020dp+8", "0x1.73ee7212e55d5p+9", "0x1.73ee7212e55d5p+9", "-0x1.d98ecc206020dp+8"),
    ("2.5e-322", "0x1.0000000000000p+0", "-0x1.d77ef98f5d7fdp+8", "0x1.724fe50eec362p+9", "0x1.724fe50eec362p+9", "-0x1.d77ef98f5d7fdp+8"),
    ("1e-310", "0x1.0000000000000p+0", "-0x1.c67e6ea19fcfep+8", "0x1.64f56a6ce37a8p+9", "0x1.64f56a6ce37a8p+9", "-0x1.c67e6ea19fcfep+8"),
    ("2.225073858507201e-308", "0x1.0000000000000p+0", "-0x1.c30d8f820740cp+8", "0x1.624194afb5f72p+9", "0x1.624194afb5f72p+9", "-0x1.c30d8f820740cp+8"),
    ("2.2250738585072014e-308", "0x1.0000000000000p+0", "-0x1.c30d8f820740ep+8", "0x1.624194afb5f73p+9", "0x1.624194afb5f73p+9", "-0x1.c30d8f820740ep+8"),
    ("4.450147717014403e-308", "0x1.0000000000000p+0", "-0x1.c29c985bc9467p+8", "0x1.61e8dba3ba0e4p+9", "0x1.61e8dba3ba0e4p+9", "-0x1.c29c985bc9467p+8"),
    ("1e-300", "0x1.0000000000000p+0", "-0x1.b7d5cd487e960p+8", "0x1.59721b5792256p+9", "0x1.59721b5792256p+9", "-0x1.b7d5cd487e960p+8"),
    ("1e-250", "0x1.0000000000000p+0", "-0x1.6e8aa68ad8744p+8", "0x1.1fe18fecfb7b7p+9", "0x1.1fe18fecfb7b7p+9", "-0x1.6e8aa68ad8744p+8"),
    ("1e-200", "0x1.0000000000000p+0", "-0x1.253f7fcd3252ap+8", "0x1.cca20904c9a34p+8", "0x1.cca20904c9a34p+8", "-0x1.253f7fcd3252ap+8"),
    ("1.5e-162", "0x1.0000000000000p+0", "-0x1.da92d8ebd20a7p+7", "0x1.74bab0397950bp+8", "0x1.74bab0397950bp+8", "-0x1.da92d8ebd20a7p+7"),
    ("1e-160", "0x1.0000000000000p+0", "-0x1.d539f4d15ad5cp+7", "0x1.7087905a3ef9dp+8", "0x1.7087905a3ef9dp+8", "-0x1.d539f4d15ad5cp+7"),
    ("1e-155", "0x1.0000000000000p+0", "-0x1.c6915378399bdp+7", "0x1.65044144eda4ap+8", "0x1.65044144eda4ap+8", "-0x1.c6915378399bdp+7"),
    ("1e-100", "0x1.0000000000000p+0", "-0x1.255264a3cc1e7p+7", "0x1.ccbfb6b4ddf76p+7", "0x1.ccbfb6b4ddf76p+7", "-0x1.255264a3cc1e7p+7"),
    ("1e-50", "0x1.0000000000000p+0", "-0x1.25782e50ffb61p+6", "0x1.ccfb1215069f9p+6", "0x1.ccfb1215069f9p+6", "-0x1.25782e50ffb61p+6"),
    ("1e-20", "0x1.0000000000000p+0", "-0x1.d642788dc3fb3p+4", "0x1.7157502acd46bp+5", "0x1.7157502acd46bp+5", "-0x1.d642788dc3fb3p+4"),
    ("1e-10", "0x1.0000000000000p+0", "-0x1.d770c5f760b81p+3", "0x1.7244bdab6fe79p+4", "0x1.7244bdab6fe79p+4", "-0x1.d770c5f760b81p+3"),
    ("1e-8", "0x1.0000000000000p+0", "-0x1.799ff089bf455p+3", "0x1.2895f6bc9a934p+4", "0x1.2895f6bc9a934p+4", "-0x1.799ff089bf455p+3"),
    ("1e-6", "0x1.ffffffffff734p-1", "-0x1.1bcf1b1c1d7edp+3", "0x1.bdce5f9b8b013p+3", "0x1.bdce5f9b8a7ddp+3", "-0x1.1bcf1b1c1dd27p+3"),
    ("1e-4", "0x1.ffffffea86712p-1", "-0x1.7bfc8b4b5330fp+2", "0x1.2a70d1cbbbe9ap+3", "0x1.2a70d1bddfd52p+3", "-0x1.7bfc8b5cf8bf4p+2"),
    ("1e-3", "0x1.fffff79c84387p-1", "-0x1.1e2bb09429a5ap+2", "0x1.c1841e07ec99ep+2", "0x1.c184159e1501bp+2", "-0x1.1e2bb5ef574c8p+2"),
    ("0.01", "0x1.fffcb924fa352p-1", "-0x1.80b2c5336d328p+1", "0x1.2e28dfa81d125p+2", "0x1.2e2687c06a590p+2", "-0x1.80b5c1036bb35p+1"),
    ("0.05", "0x1.ffae17c1aebb7p-1", "-0x1.fab420311f794p+0", "0x1.8e9f387e56147p+1", "0x1.8e4affc168487p+1", "-0x1.fb1f528e4bf5ep+0"),
    ("0.1", "0x1.feb8865590ab4p-1", "-0x1.88c3dd3fcf18dp+0", "0x1.36aa32a31d694p+1", "0x1.3591f3c57f60bp+1", "-0x1.8a282c50519b6p+0"),
    ("0.2", "0x1.fae48d9bfc0d4p-1", "-0x1.14c351831ea96p+0", "0x1.c0b1332b1105bp+0", "0x1.b9b1cf932cf1ep+0", "-0x1.193106125740fp+0"),
    ("0.25", "0x1.f807fc72aa864p-1", "-0x1.dcf723b7d21f3p-1", "0x1.8aa02fbb2cb70p+0", "0x1.8091e003f7bdap+0", "-0x1.e9a6462b810a0p-1"),
    ("0.3", "0x1.f48b6d692fb9ep-1", "-0x1.9d52f65f30ce4p-1", "0x1.5f598ae31a9bap+0", "0x1.51e53fe02e90cp+0", "-0x1.ae38cfc1cc079p-1"),
    ("0.5", "0x1.e07f1d54c3f35p-1", "-0x1.c72feb3b7b8a2p-2", "0x1.d94d74dd716b0p-1", "0x1.9e3f90184bdc5p-1", "-0x1.07b7f9af8c552p-1"),
    ("0.7071067811865476", "0x1.c1f8f1b4f83f4p-1", "-0x1.767edeeb83047p-3", "0x1.4e646c7635ce6p-1", "0x1.d99af040f419ap-2", "-0x1.2d81a6e323f55p-2"),
    ("0.75", "0x1.ba7df6a752a18p-1", "-0x1.18ee09734f23bp-3", "0x1.389e425d015f5p-1", "0x1.9d4ce1649e33ep-2", "-0x1.071d7a9953b56p-2"),
    ("0.9", "0x1.9d73c25f5b27ap-1", "0x1.70db50ee18e85p-8", "0x1.f2696e0e206b6p-2", "0x1.c534c1aaf3008p-3", "-0x1.20851b8bd3610p-3"),
    ("1.0", "0x1.87c7fdbd7b8f0p-1", "0x1.6980226f358e2p-4", "0x1.af2107c43e11ap-2", "0x1.dadb014541eb0p-4", "-0x1.2e4d699cbd01ep-4"),
    ("1.1229189671337703", "0x1.6ae1bee6963cap-1", "0x1.6c73d31a1a651p-3", "0x1.6aa2011a0e9a2p-2", "0x1.0000000000000p-53", "-0x1.45f306dc9c883p-54"),
    ("1.25", "0x1.4ab433d10e1c1p-1", "0x1.0869ff937fa13p-2", "0x1.30bedd3b38200p-2", "-0x1.b723f7ae11590p-4", "0x1.1790c62caebd7p-4"),
    ("1.4142135623730951", "0x1.1e46d4a0b681ep-1", "0x1.60e880f3b44a8p-2", "0x1.e9c364314b140p-3", "-0x1.d85adf3ca6488p-3", "0x1.2cb5e4298ae8ep-3"),
    ("1.5", "0x1.060e46ce9651bp-1", "0x1.87a0b0d068369p-2", "0x1.b5dfb0da31282p-3", "-0x1.287b7e7aa90a0p-2", "0x1.797e3cbd2b68bp-3"),
    ("1.75", "0x1.79e3a9e138af1p-2", "0x1.dcaa19824527bp-2", "0x1.3e37c56545ca4p-3", "-0x1.c6552b7cb79f4p-2", "0x1.213cb79d9141bp-2"),
    ("1.9", "0x1.20950b5facdf1p-2", "0x1.fcbe5fe2a7987p-2", "0x1.07e06699b1998p-3", "-0x1.0d45b26b2f485p-1", "0x1.56d91be21d7e4p-2"),
    ("1.9999999999999998", "0x1.ca873fb24cefbp-3", "0x1.054ff5cd68c8ep-1", "0x1.d28261aac8d70p-4", "-0x1.2788cfc6fb618p-1", "0x1.78493e90ba293p-2"),
    ("2.0", "0x1.ca873fb24cef6p-3", "0x1.054ff5cd68c8ep-1", "0x1.d28261aac8d60p-4", "-0x1.2788cfc6fb619p-1", "0x1.78493e90ba295p-2"),
]


@pytest.mark.parametrize("z, j0, y0, k0, k0_log, y0_log", KERNEL_PINS)
def test_kernels_bit_pinned(z, j0, y0, k0, k0_log, y0_log):
    z = float(z)
    assert bessel_j0(z).hex() == j0
    assert bessel_y0(z).hex() == y0
    assert bessel_k0(z).hex() == k0
    h = hankel1_0(z)
    assert (h.real.hex(), h.imag.hex()) == (j0, y0)
    assert k0_small_z(z).hex() == k0_log
    h_small = hankel1_0_small_z(z)
    assert (h_small.real, h_small.imag.hex()) == (1.0, y0_log)


def test_series_tables_are_the_loop_values():
    harmonic = 0.0
    m_sq, h = [], []
    for m in range(1, special_functions._MAX_TERMS):
        m_sq.append(m * m)
        harmonic += 1.0 / m
        h.append(harmonic)
    table_m_sq, table_h = zip(*special_functions._TERMS)
    assert [v.hex() for v in table_m_sq] == [float(v).hex() for v in m_sq]
    assert [v.hex() for v in table_h] == [v.hex() for v in h]
    # Dividing by the table's double is dividing by the int m*m.
    for q in (0.25, 1.0 / 3.0, 1e-300):
        assert [q / v for v in table_m_sq] == [q / v for v in m_sq]


KERNELS_SHA256 = "a4fe54e5b6627a4f80bb90166b2dfb21e987224eb1edc83cf87ded3915d46e9b"


def test_kernels_fingerprint():
    """J0, Y0, K0 and H0 bit for bit, as .hex(), on 100 000 seeded
    log-uniform z in [5e-324, 2] and 10 000 seeded subnormals, as the
    kernels gave them when J0 and Y0 each ran their own term ladder."""
    rng = random.Random(17)
    log_low, log_high = math.log(5e-324), math.log(2.0)
    zs = [min(2.0, math.exp(rng.uniform(log_low, log_high))) for _ in range(100_000)]
    zs += [math.ldexp(rng.randrange(1, 2**52), -1074) for _ in range(10_000)]
    digest = hashlib.sha256()
    for z in zs:
        h = hankel1_0(z)
        values = (bessel_j0(z), bessel_y0(z), bessel_k0(z), h.real, h.imag)
        digest.update(" ".join(v.hex() for v in values).encode() + b"\n")
    assert digest.hexdigest() == KERNELS_SHA256


SMALL_Z_FORMS_SHA256 = "ded573e0450d4a36189292b2b74dad932e64c04f7c0e7f65cd6b6e9b8c4da4a8"


def test_small_z_forms_fingerprint():
    """The two-term forms bit for bit, as .hex() of k0_small_z and of
    hankel1_0_small_z's imaginary part, on test_kernels_fingerprint's z and
    10 000 seeded log-uniform z in [2, 1e300], since these forms take any
    finite z > 0: as they gave them when each had its own two-term kernel."""
    rng = random.Random(17)
    log_low, log_high = math.log(5e-324), math.log(2.0)
    zs = [min(2.0, math.exp(rng.uniform(log_low, log_high))) for _ in range(100_000)]
    zs += [math.ldexp(rng.randrange(1, 2**52), -1074) for _ in range(10_000)]
    rng = random.Random(19)
    zs += [math.exp(rng.uniform(math.log(2.0), math.log(1e300))) for _ in range(10_000)]
    digest = hashlib.sha256()
    for z in zs:
        values = (k0_small_z(z), hankel1_0_small_z(z).imag)
        digest.update(" ".join(v.hex() for v in values).encode() + b"\n")
    assert digest.hexdigest() == SMALL_Z_FORMS_SHA256


def test_one_ladder_matches_a_test_per_sum():
    """_h0_sum, _k0_sum and bessel_j0, which stop J0's or I0's ladder on
    its leading sum's test alone, bit for bit against loops that stop each
    sum on its own test: on 100 000 seeded uniform z in [0, 2], where the
    ladders run longest, 100 000 log-uniform z in [1e-320, 2], 10 000
    subnormals, and 0 and 2."""
    rng = random.Random(18)
    log_low, log_high = math.log(1e-320), math.log(2.0)
    zs = [rng.uniform(0.0, 2.0) for _ in range(100_000)]
    zs += [min(2.0, math.exp(rng.uniform(log_low, log_high))) for _ in range(100_000)]
    zs += [math.ldexp(rng.randrange(1, 2**52), -1074) for _ in range(10_000)]
    zs += [0.0, 5e-324, sys.float_info.min, 2.0]
    mismatches = []
    for z in zs:
        log_half = special_functions._log_product(z, 1.0, 0.5) if z > 0.0 else 0.0
        j0, y0 = special_functions._h0_sum(z, log_half)
        ref_j0, ref_y0 = h0_ladders(z, log_half)
        k0, ref_k0 = special_functions._k0_sum(z, log_half), k0_ladder(z, log_half)
        if (j0.hex(), y0.hex(), k0.hex()) != (ref_j0.hex(), ref_y0.hex(), ref_k0.hex()):
            mismatches.append(z)
        elif z > 0.0 and bessel_j0(z).hex() != ref_j0.hex():
            mismatches.append(z)
    assert mismatches == []
