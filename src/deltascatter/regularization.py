"""Cutoff-regularized cross section and its small-cutoff limit.

The pointlike interaction is made finite by evaluating the scattered
wave a small distance eps from the scatterer, which turns the cross
section into

    sigma(eps) = (1/4k) | (1/2pi) K0(mu eps) - (i/4) H0(k eps) |^-2

with mu = sqrt(-e0); the physical answer is the eps -> 0 limit.  How the
two cylinder functions are evaluated at the cutoff is what this module
makes explicit:

  - FULL uses the convergent power series and recovers the closed form.
  - The other two take the two-term forms K0 = -ln(c z) - g and
    H0 = h + (2i/pi)(ln(c z) + g), and differ only in those constants.
    ASYMPTOTIC keeps ln 2 (c = 1/2), g = gamma and H0's real part h = 1,
    and also recovers the closed form: the limit needs nothing beyond
    the leading behaviour of the cylinder functions.
  - TRUNCATED_LOG keeps only the bare logs (c = 1, g = h = 0).  What it
    drops couples the two functions' phases, so every sigma(eps)
    collapses onto pi^2/(k (ln x)^2) independent of eps: a plausible but
    wrong limit, too large by the factor (pi^2 + 4 (ln x)^2)/(4 (ln x)^2).

mead_godines_wrong_limit returns that wrong limit in closed form so the
failure mode can be asserted against, not just observed.
"""

import enum
import math
import sys
from collections import namedtuple
from collections.abc import Iterable, Iterator

from .errors import DomainError, ValidationError
from .scattering import _PI_SQ, ScatteringProblem, _checked_sigma
from .special_functions import (
    EULER_GAMMA, SERIES_Z_MAX, TWO_OVER_PI, _h0_sum, _k0_sum, _log_product
)

# 1/(2 pi) built from the shared 2/pi constant: the power-of-two scaling
# is exact, so the asymptotic-mode bracket cancels bitwise at resonance.
_INV_TWO_PI = 0.25 * TWO_OVER_PI

_FLOAT_MAX = sys.float_info.max
_CONVERGENCE_RTOL = 1e-8


class RegularizationMode(enum.Enum):
    """How the two cylinder functions are evaluated at the cutoff."""

    FULL = "full"
    ASYMPTOTIC = "asymptotic"
    TRUNCATED_LOG = "truncated-log"


class EpsilonSchedule(namedtuple("EpsilonSchedule", "eps_start factor count")):
    """Geometric cutoff sequence eps_start * factor**i for i < count."""

    __slots__ = ()

    def __init__(self, eps_start: float, factor: float, count: int) -> None:
        if not (math.isfinite(eps_start) and eps_start > 0.0):
            raise ValidationError(
                f"eps_start must be finite and positive, got {eps_start!r}"
            )
        if not (0.0 < factor < 1.0):
            raise ValidationError(f"factor must lie in (0, 1), got {factor!r}")
        if not isinstance(count, int) or count < 2:
            raise ValidationError(f"count must be an integer >= 2, got {count!r}")

    _make = classmethod(lambda cls, fields: cls(*fields))

    def epsilons(self) -> Iterator[float]:
        """eps_start * factor**i for i < count, computed as they are taken.

        Cutoffs that round equal trace a plateau that only looks converged,
        so the first positive one not below the last raises ValidationError.
        """
        eps_start, factor, previous = self.eps_start, self.factor, math.inf
        for i in range(self.count):
            eps = eps_start * factor**i
            if eps >= previous and eps > 0.0:
                raise ValidationError(
                    f"factor must shrink every cutoff, but cutoff {i + 1}, "
                    f"{eps!r}, is not below {previous!r}"
                )
            previous = eps
            yield eps

    @classmethod
    def default_for(
        cls, problem: ScatteringProblem, factor: float = 1e-1
    ) -> "EpsilonSchedule":
        """Default schedule adapted to the problem's momentum scales.

        eps_start shrinks tenfold from 1e-2 until k*eps and mu*eps fit the
        series domain; a factor outside (0, 1) is rejected before the count,
        which grows from 5 until z = max(k, mu)*eps, falling by factor, reaches
        7e-6 or, for a factor near 1, count reaches 10 000.  Why 7e-6: to O(z^2)
        (DLMF 10.8, 10.31) a FULL sample misses sigma by the relative gap
        -2 Re(conj(B0) dB)/|B0|^2, B0 = -ln x/(2 pi) - i/4, dB ~ z^2 ln z.  Over
        every ln x it peaks at 1.1e-10 for z = 7e-6 and 9.0e-9 for 7e-5, so at
        factor 0.1 the last two samples pass the 1e-8 test, the last ~1e-10 off.
        """
        eps_start = 1e-2
        scale = max(problem.k, problem.bound_state_scale)
        while scale * eps_start > SERIES_Z_MAX:
            eps_start *= 1e-1
        count = 5
        schedule = cls(eps_start, factor, count)  # rejects a bad factor
        while count < 10_000 and scale * (eps_start * factor ** (count - 1)) > 7e-6:
            count += 1
        return schedule if count == 5 else cls(eps_start, factor, count)


LimitEstimate = namedtuple(
    "LimitEstimate", "sigma_limit error_estimate samples converged rtol"
)
LimitEstimate.__doc__ = """Outcome of chasing sigma(eps) down a cutoff schedule.

sigma_limit is the smallest-cutoff sample, error_estimate the gap between
the last two samples, samples the full (eps, sigma(eps)) trace in schedule
order, and rtol the relative gap that converged was tested against.
"""


def _sigma_trace(
    problem: ScatteringProblem, epsilons: Iterable[float], mode: RegularizationMode
) -> Iterator[tuple[float, float]]:
    """(eps, sigma(eps)) per cutoff: one loop that reads problem and mode once."""
    k, mu, e0 = problem.k, problem.bound_state_scale, problem.e0
    full = mode is RegularizationMode.FULL
    # Beyond FULL's series and the bound z_max, the modes differ only in c
    # (ln(c z)), g and H0's real part; TRUNCATED_LOG drops ln 2, gamma and 1.
    if full or mode is RegularizationMode.ASYMPTOTIC:
        z_max, c, g, h0_real = SERIES_Z_MAX, 0.5, EULER_GAMMA, 1.0
    elif mode is RegularizationMode.TRUNCATED_LOG:
        z_max, c, g, h0_real = _FLOAT_MAX, 1.0, 0.0, 0.0
    else:
        raise ValidationError(f"unknown regularization mode: {mode!r}")
    for eps in epsilons:
        # The one domain check on this route; the kernels below check nothing.
        z_mu, z_k = mu * eps, k * eps
        if not (eps > 0.0 and z_mu <= z_max and z_k <= z_max):
            raise DomainError(
                f"at k={k!r}, e0={e0!r}, eps={eps!r} the cutoff must be positive "
                f"with mu*eps = {z_mu!r} and k*eps = {z_k!r} both at most {z_max!r}"
            )
        log_mu, log_k = _log_product(mu, eps, c), _log_product(k, eps, c)
        if full:
            k0_value, (h0_real, h0_imag) = _k0_sum(z_mu, log_mu), _h0_sum(z_k, log_k)
        else:
            k0_value, h0_imag = -log_mu - g, TWO_OVER_PI * (log_k + g)
        # bracket = K0/(2 pi) - (i/4) H0 = K0/(2 pi) + H0.imag/4 - i H0.real/4;
        # sign flips and adding 0.0 are exact, so a resonant bracket still
        # cancels to exactly zero.
        bracket_re = _INV_TWO_PI * k0_value + 0.25 * h0_imag
        bracket_im = -0.25 * h0_real
        modulus_sq = bracket_re * bracket_re + bracket_im * bracket_im
        if modulus_sq == 0.0:
            # Only TRUNCATED_LOG gets here (|Im bracket| is J0(k eps)/4 >= 0.0559
            # in FULL, 1/4 in ASYMPTOTIC): its two bare logs can round equal off
            # resonance, |ln x| up to about 4e-15, but -ln x vanishes only at it.
            modulus_sq = (_INV_TWO_PI * problem.log_x) ** 2
        if modulus_sq == 0.0:
            raise DomainError(
                "the regularizing bracket vanished; sigma(eps) is undefined here"
            )
        yield eps, _checked_sigma(k, e0, 1.0, 4.0 * modulus_sq)


def regularized_cross_section(
    problem: ScatteringProblem, eps: float, mode: RegularizationMode
) -> float:
    """sigma(eps) at one cutoff: the one-cutoff case of limit_extrapolate's loop.

    DomainError, naming the input, unless eps > 0 and mu*eps and k*eps are
    at most the series bound 2 (in TRUNCATED_LOG, the largest double), or
    where sigma(eps) overflows.  A product that rounds to a subnormal or to
    0 is fine: _log_product takes its log as ln a + ln eps.
    """
    return next(_sigma_trace(problem, (eps,), mode))[1]


def _fold_limit(samples: tuple[tuple[float, float], ...], factor: float) -> LimitEstimate:
    """The stop test over (eps, sigma) samples, of which it reads the last
    two, so a caller that holds only those needs no memory per cutoff."""
    (_, sigma_prev), (_, sigma_last) = samples[-2:]
    error = abs(sigma_last - sigma_prev)
    rtol = _CONVERGENCE_RTOL * min(1.0, 2.0 * (1.0 - factor))
    return LimitEstimate(sigma_last, error, samples, error <= rtol * abs(sigma_last), rtol)


def limit_extrapolate(
    problem: ScatteringProblem, schedule: EpsilonSchedule, mode: RegularizationMode
) -> LimitEstimate:
    """Evaluate sigma(eps) along the schedule and report the limit.

    Its sample loop is the one regularized_cross_section runs for a single
    cutoff.  No extrapolation beyond the samples is attempted: the
    estimate is the smallest-cutoff value, and convergence means the last
    two samples agree to a relative 1e-8 * min(1, 2 (1 - factor)): samples
    falling as eps^2 leave the last about gap/(1 - factor^2) from the limit.
    """
    trace = _sigma_trace(problem, schedule.epsilons(), mode)
    return _fold_limit(tuple(trace), schedule.factor)


def mead_godines_wrong_limit(problem: ScatteringProblem) -> float:
    """Closed form of the limit the truncated-log mode lands on.

    pi^2/(k (ln x)^2) exceeds the true cross section by the factor
    (pi^2 + 4 (ln x)^2)/(4 (ln x)^2): keeping only the bare logarithms
    erases the pi^2 in the denominator, and the two expressions agree
    only as |ln x| -> infinity.  DomainError at resonance (ln x = 0), where
    it diverges while the true cross section stays 4/k, or beyond the
    largest double.
    """
    log_x = problem.log_x
    if log_x == 0.0:
        raise DomainError(
            "the truncated-log limit diverges at resonance (ln x = 0)"
        )
    return _checked_sigma(problem.k, problem.e0, _PI_SQ, log_x * log_x)
