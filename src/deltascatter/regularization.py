"""Cutoff-regularized cross section and its small-cutoff limit.

The pointlike interaction is made finite by evaluating the scattered
wave a small distance eps from the scatterer, which turns the cross
section into

    sigma(eps) = (1/4k) | (1/2pi) K0(mu eps) - (i/4) H0(k eps) |^-2

with mu = sqrt(-e0); the physical answer is the eps -> 0 limit.  How the
two cylinder functions are evaluated at the cutoff is what this module
makes explicit:

  - FULL uses the convergent power series and recovers the closed form.
  - ASYMPTOTIC keeps the two-term small-argument forms (the bare log
    plus the ln 2 + gamma constants and H0's real part 1); this also
    recovers the closed form, which shows the limit needs nothing
    beyond the leading behaviour of the cylinder functions.
  - TRUNCATED_LOG keeps only the bare logarithms.  The constants it
    drops are exactly what couples the two functions' phases, so every
    sigma(eps) collapses onto pi^2/(k (ln x)^2) independent of eps: a
    plausible-looking but wrong limit that overshoots the true cross
    section by (pi^2 + 4 (ln x)^2)/(4 (ln x)^2).

mead_godines_wrong_limit returns that wrong limit in closed form so the
failure mode can be asserted against, not just observed.
"""

from __future__ import annotations

import enum
import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass

from .errors import DomainError, SingularityError, ValidationError
from .scattering import ScatteringProblem, _checked_sigma
from .special_functions import (
    SERIES_Z_MAX,
    TWO_OVER_PI,
    bessel_k0,
    hankel1_0,
    hankel1_0_small_z,
    k0_small_z,
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


@dataclass(frozen=True)
class EpsilonSchedule:
    """Geometric cutoff sequence eps_start * factor**i for i < count."""

    eps_start: float
    factor: float
    count: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.eps_start) and self.eps_start > 0.0):
            raise ValidationError(
                f"eps_start must be finite and positive, got {self.eps_start!r}"
            )
        if not (0.0 < self.factor < 1.0):
            raise ValidationError(f"factor must lie in (0, 1), got {self.factor!r}")
        if not isinstance(self.count, int) or self.count < 2:
            raise ValidationError(f"count must be an integer >= 2, got {self.count!r}")

    def epsilons(self) -> Iterator[float]:
        """eps_start * factor**i for i < count, computed as they are taken.

        Cutoffs that round equal trace a plateau that only looks converged,
        so the first positive one not below the last raises ValidationError.
        """
        previous = math.inf
        for i in range(self.count):
            eps = self.eps_start * self.factor**i
            if eps >= previous and eps > 0.0:
                raise ValidationError(
                    f"factor must shrink every cutoff, but cutoff {i + 1}, "
                    f"{eps!r}, is not below {previous!r}"
                )
            previous = eps
            yield eps

    @classmethod
    def default_for(cls, problem: ScatteringProblem) -> "EpsilonSchedule":
        """Default schedule adapted to the problem's momentum scales.

        eps_start shrinks tenfold from 1e-2 until k*eps and mu*eps fit the
        series domain; count grows from 5 until max(k, mu)*eps falls to
        7e-6, where the last two FULL samples pass the convergence test.
        """
        eps_start = 1e-2
        scale = max(problem.k, problem.bound_state_scale)
        while scale * eps_start > SERIES_Z_MAX:
            eps_start *= 1e-1
        count = 5
        while scale * (eps_start * 1e-1 ** (count - 1)) > 7e-6:
            count += 1
        return cls(eps_start=eps_start, factor=1e-1, count=count)


@dataclass(frozen=True)
class LimitEstimate:
    """Outcome of chasing sigma(eps) down a cutoff schedule.

    sigma_limit is the smallest-cutoff sample, error_estimate the gap
    between the last two samples, and samples the full (eps, sigma(eps))
    trace in schedule order.
    """

    sigma_limit: float
    error_estimate: float
    samples: tuple[tuple[float, float], ...]
    converged: bool


def regularized_cross_section(
    problem: ScatteringProblem, eps: float, mode: RegularizationMode
) -> float:
    """sigma(eps) at one finite cutoff, under the given evaluation mode.

    DomainError unless mu*eps and k*eps are positive and finite and,
    outside TRUNCATED_LOG, in the series domain, or where sigma(eps)
    overflows.  The message says which eps, if any, would do.
    """
    z_mu = problem.bound_state_scale * eps
    z_k = problem.k * eps
    z_max = _FLOAT_MAX if mode is RegularizationMode.TRUNCATED_LOG else SERIES_Z_MAX
    if not (0.0 < z_mu <= z_max and 0.0 < z_k <= z_max):
        low, high = sorted((problem.k, problem.bound_state_scale))
        if low * (z_max / high) == 0.0:
            hint = "no eps keeps both there for this k and e0"
        elif max(z_mu, z_k) > z_max:
            hint = "use a smaller eps"
        else:
            hint = "use a larger eps"
        if z_max == SERIES_Z_MAX:
            bound = f"in the series domain (0, {z_max!r}]"
        else:
            bound = "positive and finite"
        raise DomainError(
            f"at k={problem.k!r}, e0={problem.e0!r}, eps={eps!r} the cutoff "
            f"arguments mu*eps = {z_mu!r} and k*eps = {z_k!r} are not both "
            f"{bound}; {hint}"
        )
    if mode is RegularizationMode.FULL:
        k0_value, h0 = bessel_k0(z_mu), hankel1_0(z_k)
    elif mode is RegularizationMode.ASYMPTOTIC:
        k0_value, h0 = k0_small_z(z_mu), hankel1_0_small_z(z_k)
    elif mode is RegularizationMode.TRUNCATED_LOG:
        # Bare logarithms only; no ln 2, no gamma, no real part of H0.
        k0_value = -math.log(z_mu)
        h0 = complex(0.0, TWO_OVER_PI * math.log(z_k))
    else:
        raise ValidationError(f"unknown regularization mode: {mode!r}")
    # bracket = K0/(2 pi) - (i/4) H0 = K0/(2 pi) + H0.imag/4 - i H0.real/4,
    # on plain floats; sign flips and adding 0.0 are exact, so a resonant
    # bracket still cancels to exactly zero.
    bracket_re = _INV_TWO_PI * k0_value + 0.25 * h0.imag
    bracket_im = -0.25 * h0.real
    modulus_sq = bracket_re * bracket_re + bracket_im * bracket_im
    if modulus_sq == 0.0 and mode is RegularizationMode.TRUNCATED_LOG:
        # The two bare logs can round equal off resonance (|ln x| up to
        # about 4e-15); their exact difference -ln x vanishes only at it.
        modulus_sq = (_INV_TWO_PI * problem.log_x) ** 2
    if modulus_sq == 0.0:
        raise SingularityError(
            "the regularizing bracket vanished; sigma(eps) is undefined here"
        )
    return _checked_sigma(problem, 1.0, 4.0 * modulus_sq)


def limit_extrapolate(
    problem: ScatteringProblem, schedule: EpsilonSchedule, mode: RegularizationMode
) -> LimitEstimate:
    """Evaluate sigma(eps) along the schedule and report the limit.

    No extrapolation beyond the samples is attempted: the estimate is the
    smallest-cutoff value, and convergence means the last two samples
    agree to a relative 1e-8.
    """
    samples = tuple(
        (eps, regularized_cross_section(problem, eps, mode))
        for eps in schedule.epsilons()
    )
    sigma_last = samples[-1][1]
    sigma_prev = samples[-2][1]
    error = abs(sigma_last - sigma_prev)
    converged = error <= _CONVERGENCE_RTOL * abs(sigma_last)
    return LimitEstimate(
        sigma_limit=sigma_last,
        error_estimate=error,
        samples=samples,
        converged=converged,
    )


def mead_godines_wrong_limit(problem: ScatteringProblem) -> float:
    """Closed form of the limit the truncated-log mode lands on.

    pi^2/(k (ln x)^2) exceeds the true cross section by the factor
    (pi^2 + 4 (ln x)^2)/(4 (ln x)^2): keeping only the bare logarithms
    erases the pi^2 in the denominator, and the two expressions agree
    only as |ln x| -> infinity.  At resonance (ln x = 0) this expression
    diverges while the true cross section stays finite at 4/k, so that
    case raises SingularityError, and one beyond the largest double
    DomainError.
    """
    log_x = problem.log_x
    if log_x == 0.0:
        raise SingularityError(
            "the truncated-log limit diverges at resonance (ln x = 0)"
        )
    return _checked_sigma(problem, math.pi * math.pi, log_x * log_x)
