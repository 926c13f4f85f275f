"""Order-zero Bessel family on the small-argument domain.

Self-contained double-precision evaluation of J0, Y0, K0 and the first
Hankel function H0 = J0 + iY0 by their ascending power series, plus the
two-term logarithmic forms that K0 and H0 collapse to as z -> 0.  The
series are kept to arguments 0 < z <= 2, where a handful of terms gives
full double accuracy; larger arguments raise DomainError rather than
silently losing precision.  Stdlib only.
"""

from __future__ import annotations

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


def _require_series_domain(z: float, name: str) -> None:
    # NaN fails the comparison and lands here too.
    if not (0.0 < z <= SERIES_Z_MAX):
        raise DomainError(f"{name} requires 0 < z <= {SERIES_Z_MAX}, got {z!r}")


def _require_positive(z: float, name: str) -> None:
    if not (0.0 < z < math.inf):
        raise DomainError(f"{name} requires finite z > 0, got {z!r}")


def _log_half(z: float) -> float:
    """ln(z/2), as ln z - ln 2 below the normal doubles, where z/2 rounds."""
    if z < _NORMAL_MIN:
        return math.log(z) - math.log(2.0)
    return math.log(0.5 * z)


def bessel_j0(z: float) -> float:
    """J0 by its ascending series sum_m (-1)^m (z^2/4)^m / (m!)^2."""
    _require_series_domain(z, "bessel_j0")
    q = 0.25 * z * z
    term = 1.0
    total = 1.0
    for m in range(1, _MAX_TERMS):
        term *= -q / (m * m)
        total += term
        if abs(term) < _REL_FLOOR * abs(total):
            break
    return total


def bessel_y0(z: float) -> float:
    """Y0 from J0 and the alternating harmonic-number correction series.

    Y0(z) = (2/pi) [ (ln(z/2) + gamma) J0(z)
                     + sum_{m>=1} (-1)^(m+1) h_m (z^2/4)^m / (m!)^2 ]

    with h_m the m-th harmonic number.
    """
    _require_series_domain(z, "bessel_y0")
    return _y0_given_j0(z, bessel_j0(z))


def _y0_given_j0(z: float, j0: float) -> float:
    """Y0(z) from an already summed J0(z); z must be in the series domain."""
    q = 0.25 * z * z
    term = 1.0
    harmonic = 0.0
    correction = 0.0
    for m in range(1, _MAX_TERMS):
        term *= q / (m * m)
        harmonic += 1.0 / m
        if m % 2:
            correction += harmonic * term
        else:
            correction -= harmonic * term
        # Once term underflows to 0.0, every later term adds 0.0.
        if harmonic * term < _REL_FLOOR * abs(correction) or term == 0.0:
            break
    log_part = (_log_half(z) + EULER_GAMMA) * j0
    return TWO_OVER_PI * (log_part + correction)


def bessel_k0(z: float) -> float:
    """K0 from the I0 series and its harmonic-number companion.

    K0(z) = -(ln(z/2) + gamma) I0(z) + sum_{m>=1} h_m (z^2/4)^m / (m!)^2
    """
    _require_series_domain(z, "bessel_k0")
    q = 0.25 * z * z
    # One term ladder serves both sums; i0 >= 1 dominates, so its
    # truncation criterion stops the loop.
    term = 1.0
    i0 = 1.0
    harmonic = 0.0
    correction = 0.0
    for m in range(1, _MAX_TERMS):
        term *= q / (m * m)
        harmonic += 1.0 / m
        i0 += term
        correction += harmonic * term
        if term < _REL_FLOOR * i0:
            break
    return -(_log_half(z) + EULER_GAMMA) * i0 + correction


def hankel1_0(z: float) -> complex:
    """H0(z) = J0(z) + i Y0(z), with one J0 sum serving both components."""
    _require_series_domain(z, "hankel1_0")
    j0 = bessel_j0(z)
    return complex(j0, _y0_given_j0(z, j0))


def k0_small_z(z: float) -> float:
    """Two-term z -> 0 form of K0: -ln(z/2) - gamma."""
    _require_positive(z, "k0_small_z")
    return -_log_half(z) - EULER_GAMMA


def hankel1_0_small_z(z: float) -> complex:
    """Two-term z -> 0 form of H0: 1 + (2i/pi)(ln(z/2) + gamma)."""
    _require_positive(z, "hankel1_0_small_z")
    return complex(1.0, TWO_OVER_PI * (_log_half(z) + EULER_GAMMA))
