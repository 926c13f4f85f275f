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
from dataclasses import dataclass

from .errors import DomainError, SingularityError, ValidationError
from .scattering import ScatteringProblem
from .special_functions import (
    TWO_OVER_PI,
    bessel_k0,
    hankel1_0,
    hankel1_0_small_z,
    k0_small_z,
)

# 1/(2 pi) built from the shared 2/pi constant: the power-of-two scaling
# is exact, so the asymptotic-mode bracket cancels bitwise at resonance.
_INV_TWO_PI = 0.25 * TWO_OVER_PI

_SERIES_Z_MAX = 2.0
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

    def epsilons(self) -> list[float]:
        return [self.eps_start * self.factor**i for i in range(self.count)]

    @classmethod
    def default(cls) -> "EpsilonSchedule":
        return cls(eps_start=1e-2, factor=1e-1, count=5)

    @classmethod
    def default_for(cls, problem: ScatteringProblem) -> "EpsilonSchedule":
        """Default schedule adapted to the problem's momentum scales.

        eps_start shrinks tenfold until the largest cutoff keeps both
        k*eps and mu*eps inside the series domain; count grows by one
        per shrink so the smallest cutoff stays as deep as the stock
        default's.
        """
        eps_start = 1e-2
        count = 5
        scale = max(problem.k, problem.bound_state_scale)
        while scale * eps_start > _SERIES_Z_MAX:
            eps_start *= 1e-1
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

    def __post_init__(self) -> None:
        if len(self.samples) < 2:
            raise ValidationError("samples must hold at least two entries")
        if self.error_estimate < 0.0:
            raise ValidationError("error_estimate must be non-negative")
        eps_values = [eps for eps, _ in self.samples]
        if any(b >= a for a, b in zip(eps_values, eps_values[1:])):
            raise ValidationError("samples must be strictly decreasing in eps")


def _series_argument(value: float, label: str) -> float:
    if value > _SERIES_Z_MAX:
        raise DomainError(
            f"{label} = {value!r} exceeds the series domain bound {_SERIES_Z_MAX}; "
            "use a smaller eps"
        )
    return value


def regularized_cross_section(
    problem: ScatteringProblem, eps: float, mode: RegularizationMode
) -> float:
    """sigma(eps) at one finite cutoff, under the given evaluation mode."""
    if not (math.isfinite(eps) and eps > 0.0):
        raise DomainError(f"eps must be finite and positive, got {eps!r}")
    z_mu = problem.bound_state_scale * eps
    z_k = problem.k * eps
    if mode is RegularizationMode.FULL:
        k0_value = bessel_k0(_series_argument(z_mu, "mu*eps"))
        h0 = hankel1_0(_series_argument(z_k, "k*eps"))
        h0_re, h0_im = h0.re, h0.im
    elif mode is RegularizationMode.ASYMPTOTIC:
        k0_value = k0_small_z(_series_argument(z_mu, "mu*eps"))
        h0 = hankel1_0_small_z(_series_argument(z_k, "k*eps"))
        h0_re, h0_im = h0.re, h0.im
    elif mode is RegularizationMode.TRUNCATED_LOG:
        # Bare logarithms only; no ln 2, no gamma, no real part of H0.
        k0_value = -math.log(z_mu)
        h0_re = 0.0
        h0_im = TWO_OVER_PI * math.log(z_k)
    else:
        raise ValidationError(f"unknown regularization mode: {mode!r}")
    # bracket = K0/(2 pi) - (i/4) H0 = K0/(2 pi) + H0.im/4 - i H0.re/4, on
    # plain floats; sign flips and adding 0.0 are exact, so a resonant
    # bracket still cancels to exactly zero.
    bracket_re = _INV_TWO_PI * k0_value + 0.25 * h0_im
    bracket_im = -0.25 * h0_re
    modulus_sq = bracket_re * bracket_re + bracket_im * bracket_im
    if modulus_sq == 0.0:
        raise SingularityError(
            "the regularizing bracket vanished; sigma(eps) is undefined here"
        )
    return 1.0 / (4.0 * problem.k * modulus_sq)


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
    case raises SingularityError.
    """
    log_x = problem.log_x
    if log_x == 0.0:
        raise SingularityError(
            "the truncated-log limit diverges at resonance (ln x = 0)"
        )
    return math.pi * math.pi / (problem.k * log_x * log_x)
