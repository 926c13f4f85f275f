"""Order-zero Bessel family on the small-argument domain.

Self-contained double-precision evaluation of J0, Y0, K0 and the first
Hankel function H0 = J0 + iY0 by their ascending power series, plus the
two-term forms K0 and H0 collapse to as z -> 0, each series' m = 0 term.
The series are kept to arguments 0 < z <= 2, where a handful of terms
gives full double accuracy; larger arguments raise DomainError rather
than silently losing precision.  Stdlib only.

Each public function checks z, then calls the only kernels, which check
nothing: _ladder, q^m/(m!)^2 summed with and without the harmonic weights
h_m, and _h0_sum (J0 and Y0) and _k0_sum, which read it at q = -z^2/4 or
z^2/4, need 0 <= z <= SERIES_Z_MAX, and at z = 0 give the two-term forms.
They take ln(z/2) from the caller, as _log_product(a, eps, 0.5) for z = a*eps.
_NORMAL_MIN is the one normal-double floor, read there and by scattering._ln_x.
"""

import itertools
import math
import sys

from .errors import DomainError

#: Euler-Mascheroni constant to double precision.
EULER_GAMMA = 0.5772156649015329

#: Shared 2/pi so that every logarithmic prefactor in this module and its
#: callers is built from the same rounded constant.
TWO_OVER_PI = 2.0 / math.pi

#: Upper end of the series domain 0 < z <= SERIES_Z_MAX.
SERIES_Z_MAX = 2.0
_NORMAL_MIN = sys.float_info.min

# Ascending-series truncation: stop once a term falls below this fraction
# of the running sum, or after _MAX_TERMS terms (never reached for z <= 2).
_REL_FLOOR = 1e-16
_MAX_TERMS = 60

# (m*m, h_m) for m = 1 .. _MAX_TERMS - 1, built once: m*m is exact as a
# double, and the harmonic number h_m is summed in increasing m as a
# term-by-term loop would sum it.
_TERMS = tuple((float(m * m), h_m) for m, h_m in enumerate(
    itertools.accumulate(1.0 / m for m in range(1, _MAX_TERMS)), 1))


def _require_series_domain(z: float, name: str) -> None:
    # NaN fails the comparison and lands here too.
    if not (0.0 < z <= SERIES_Z_MAX):
        raise DomainError(f"{name} requires 0 < z <= {SERIES_Z_MAX}, got {z!r}")


def _require_positive(z: float, name: str) -> None:
    if not (0.0 < z < math.inf):
        raise DomainError(f"{name} requires finite z > 0, got {z!r}")


def _log_product(a: float, b: float, c: float) -> float:
    """ln(c*a*b) for c = 1 or 1/2, as ln a + ln b + ln c where a*b is not a
    normal double: a product rounded to a few bits, or to 0, sets no log."""
    z = a * b
    if z < _NORMAL_MIN:
        return math.log(a) + math.log(b) + math.log(c)
    return math.log(c * z)


def bessel_j0(z: float) -> float:
    """J0 by its ascending series sum_m (-1)^m (z^2/4)^m / (m!)^2."""
    _require_series_domain(z, "bessel_j0")
    return _ladder(-0.25 * z * z)[0]


def bessel_y0(z: float) -> float:
    """Y0 from J0 and the alternating harmonic-number correction series.

    Y0(z) = (2/pi) [ (ln(z/2) + gamma) J0(z)
                     + sum_{m>=1} (-1)^(m+1) h_m (z^2/4)^m / (m!)^2 ]

    with h_m the m-th harmonic number.
    """
    _require_series_domain(z, "bessel_y0")
    return _h0_sum(z, _log_product(z, 1.0, 0.5))[1]


def _ladder(q: float) -> tuple[float, float]:
    """(sum_m t_m, sum_{m>=1} h_m t_m) for t_m = q^m/(m!)^2, |q| <= 1, both
    stopped by the first sum's test.  That sum, J0 or I0, is at least 0.2239
    for z <= 2, and past m = 1 each term is at most 3/8 of the one before, so
    later terms lie below half an ulp of it; the second sum keeps every bit
    a test of its own gave it (tests/test_special_functions.py)."""
    term, total, weighted = 1.0, 1.0, 0.0
    for m_sq, harmonic in _TERMS:
        term *= q / m_sq
        total += term
        weighted += harmonic * term
        if abs(term) < _REL_FLOOR * abs(total):
            break
    return total, weighted


def _h0_sum(z: float, log_half: float) -> tuple[float, float]:
    """(J0(z), Y0(z)) from one ladder: Y0 subtracts the harmonic-weighted sum."""
    j0, correction = _ladder(-0.25 * z * z)
    return j0, TWO_OVER_PI * ((log_half + EULER_GAMMA) * j0 - correction)


def bessel_k0(z: float) -> float:
    """K0 from the I0 series and its harmonic-number companion.

    K0(z) = -(ln(z/2) + gamma) I0(z) + sum_{m>=1} h_m (z^2/4)^m / (m!)^2
    """
    _require_series_domain(z, "bessel_k0")
    return _k0_sum(z, _log_product(z, 1.0, 0.5))


def _k0_sum(z: float, log_half: float) -> float:
    i0, correction = _ladder(0.25 * z * z)
    return -(log_half + EULER_GAMMA) * i0 + correction


def hankel1_0(z: float) -> complex:
    """H0(z) = J0(z) + i Y0(z), with one term ladder serving both components."""
    _require_series_domain(z, "hankel1_0")
    return complex(*_h0_sum(z, _log_product(z, 1.0, 0.5)))


def k0_small_z(z: float) -> float:
    """Two-term z -> 0 form of K0, its series' m = 0 term: -ln(z/2) - gamma."""
    _require_positive(z, "k0_small_z")
    return _k0_sum(0.0, _log_product(z, 1.0, 0.5))


def hankel1_0_small_z(z: float) -> complex:
    """Two-term z -> 0 form of H0, its m = 0 terms: 1 + (2i/pi)(ln(z/2) + gamma)."""
    _require_positive(z, "hankel1_0_small_z")
    return complex(*_h0_sum(0.0, _log_product(z, 1.0, 0.5)))
