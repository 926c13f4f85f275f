"""Scattering from an attractive point interaction in two dimensions.

A particle of momentum k scatters off a zero-range well whose single
bound state sits at energy e0 < 0 (units hbar = 2m = 1).  The entire
physics is carried by the dimensionless ratio x = sqrt(-e0)/k: the total
cross section has the closed form

    sigma = 4 pi^2 / (k [pi^2 + 4 (ln x)^2])

and, because only the s wave feels a pointlike potential, the identical
number comes out of the partial-wave sum (4/k) sum_m sin^2(delta_m) with
tan(delta_0) = -pi/(2 ln x) and every other delta_m = 0.  Both routes
are implemented here so they can be checked against each other.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DomainError, ValidationError

_PI_SQ = math.pi * math.pi
_NORMAL_MIN = sys.float_info.min


@dataclass(frozen=True)
class ScatteringProblem:
    """One physical scenario: incident momentum k and bound-state energy e0.

    In hbar = 2m = 1 units momenta and inverse lengths coincide and e0
    carries momentum-squared units.  A genuine bound state requires
    e0 < 0; construction rejects anything else.

    Construction also computes the derived scales mu, x and ln x, once.
    They are stored outside the dataclass fields and read through
    properties, so repr, equality, hashing and dataclasses.fields still
    see only (k, e0).
    """

    k: float
    e0: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.k) and self.k > 0.0):
            raise ValidationError(f"k must be finite and positive, got {self.k!r}")
        if not (math.isfinite(self.e0) and self.e0 < 0.0):
            raise ValidationError(f"e0 must be finite and negative, got {self.e0!r}")
        mu = math.sqrt(-self.e0)
        x = mu / self.k
        if _NORMAL_MIN <= x < math.inf:
            log_x = math.log(x)
        else:
            log_x = math.log(mu) - math.log(self.k)
        object.__setattr__(self, "_mu", mu)
        object.__setattr__(self, "_x", x)
        object.__setattr__(self, "_log_x", log_x)

    @property
    def bound_state_scale(self) -> float:
        """mu = sqrt(-e0), the momentum scale set by the bound state."""
        return self._mu

    @property
    def x(self) -> float:
        """Dimensionless ratio sqrt(-e0)/k."""
        return self._x

    @property
    def log_x(self) -> float:
        """ln(sqrt(-e0)/k), exactly zero at resonance k = sqrt(-e0).

        Where the ratio itself overflows to inf or underflows below the
        normal doubles (losing digits, or all of them at 0), the logarithm
        is taken as the difference ln(mu) - ln(k) instead.
        """
        return self._log_x


@dataclass(frozen=True)
class CrossSection:
    """A total cross section (a length in two dimensions)."""

    sigma: float


@dataclass(frozen=True)
class PhaseShift:
    """An s-wave phase shift on the branch (0, pi)."""

    delta0: float


def _checked_sigma(
    problem: ScatteringProblem, numerator: float, denominator: float
) -> float:
    """numerator/(k*denominator) as a cross section, for all three routes.

    Where k*denominator overflows, k divides last instead.  For valid
    (k, e0) every route's cross section is positive and, even at the
    extremes of the doubles, stays above 1e-314, so with that order of
    division overflow is the only way out of range.  It raises DomainError:
    at e0 = -1 that happens for k below about 1e-313.
    """
    k_denominator = problem.k * denominator
    if k_denominator == math.inf:
        sigma = numerator / denominator / problem.k
    else:
        sigma = numerator / k_denominator
    if sigma == math.inf:
        raise DomainError(
            f"the cross section at k={problem.k!r}, e0={problem.e0!r} "
            "exceeds the largest double"
        )
    return sigma


def _tan_delta0(problem: ScatteringProblem) -> float:
    """tan(delta_0) = -pi/(2 ln x); math.inf marks the resonant pi/2."""
    log_x = problem.log_x
    if log_x == 0.0:
        return math.inf
    return -math.pi / (2.0 * log_x)


def cross_section_closed(problem: ScatteringProblem) -> CrossSection:
    """Closed-form total cross section 4 pi^2 / (k [pi^2 + 4 (ln x)^2]).

    Maximal at resonance (ln x = 0), where it saturates the s-wave
    unitarity bound sigma = 4/k.
    """
    log_x = problem.log_x
    denominator = _PI_SQ + 4.0 * log_x * log_x
    return CrossSection(_checked_sigma(problem, 4.0 * _PI_SQ, denominator))


def s_wave_phase_shift(problem: ScatteringProblem) -> PhaseShift:
    """s-wave phase shift, taken on the branch (0, pi).

    That branch keeps delta_0 continuous through the resonance: it rises
    from near 0 for x << 1, passes through exactly pi/2 at ln x = 0, and
    approaches pi for x >> 1.
    """
    tan_d = _tan_delta0(problem)
    if math.isinf(tan_d):
        return PhaseShift(0.5 * math.pi)
    delta = math.atan(tan_d)
    if delta <= 0.0:
        delta += math.pi
    return PhaseShift(delta)


def sin_sq_from_tan(tan_value: float) -> float:
    """sin^2 from a tangent via sin^2 = t^2/(1 + t^2), overflow-safe.

    math.inf (either sign) is the marker for an infinite tangent and maps
    to exactly 1.0.  For |t| > 1 the reciprocal form 1/(1 + 1/t^2) avoids
    overflowing t^2 prematurely.
    """
    if math.isnan(tan_value):
        raise ValidationError("tan_value must not be NaN")
    if math.isinf(tan_value):
        return 1.0
    t_sq = tan_value * tan_value
    if t_sq > 1.0:
        return 1.0 / (1.0 + 1.0 / t_sq)
    return t_sq / (1.0 + t_sq)


def cross_section_partial_wave(problem: ScatteringProblem, m_max: int = 0) -> CrossSection:
    """Total cross section from the partial-wave sum (4/k) sum_m sin^2(delta_m).

    Only the m = 0 channel scatters off a zero-range potential: every
    |m| >= 1 term is exactly 0.0, and adding 0.0 leaves a float's bits
    unchanged.  So m_max is validated, but only m = 0 is summed, and the
    result is bit-identical for any m_max.
    """
    if not isinstance(m_max, int) or m_max < 0:
        raise ValidationError(f"m_max must be a non-negative integer, got {m_max!r}")
    sin_sq = sin_sq_from_tan(_tan_delta0(problem))
    return CrossSection(_checked_sigma(problem, 4.0 * sin_sq, 1.0))
