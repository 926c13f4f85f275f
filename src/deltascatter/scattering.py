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

import math
from collections import namedtuple

from .errors import DomainError, ValidationError
from .special_functions import _NORMAL_MIN

_PI_SQ = math.pi * math.pi


class ScatteringProblem(namedtuple("ScatteringProblem", "k e0")):
    """One physical scenario: incident momentum k and bound-state energy e0.

    In hbar = 2m = 1 units momenta and inverse lengths coincide and e0
    carries momentum-squared units.  A genuine bound state requires
    e0 < 0; construction rejects anything else, and _replace and _make
    construct, so they validate too.

    The derived scales mu, x and ln x are properties computed from (k, e0)
    on each read, and no other attribute can be set.
    """

    __slots__ = ()

    def __init__(self, k: float, e0: float) -> None:
        if not (math.isfinite(k) and k > 0.0):
            raise ValidationError(f"k must be finite and positive, got {k!r}")
        if not (math.isfinite(e0) and e0 < 0.0):
            raise ValidationError(f"e0 must be finite and negative, got {e0!r}")

    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def bound_state_scale(self) -> float:
        """mu = sqrt(-e0), the momentum scale set by the bound state."""
        return math.sqrt(-self.e0)

    @property
    def x(self) -> float:
        """Dimensionless ratio sqrt(-e0)/k."""
        return math.sqrt(-self.e0) / self.k

    @property
    def log_x(self) -> float:
        """ln(sqrt(-e0)/k), exactly zero at resonance k = sqrt(-e0)."""
        return _ln_x(math.sqrt(-self.e0), self.k)


def _ln_x(mu: float, k: float) -> float:
    """ln(mu/k); ln(mu) - ln(k) where mu/k is inf or below _NORMAL_MIN."""
    x = mu / k
    if _NORMAL_MIN <= x < math.inf:
        return math.log(x)
    return math.log(mu) - math.log(k)


CrossSection = namedtuple("CrossSection", "sigma")
CrossSection.__doc__ = "A total cross section (a length in two dimensions)."

PhaseShift = namedtuple("PhaseShift", "delta0")
PhaseShift.__doc__ = "An s-wave phase shift on the branch (0, pi)."


def _checked_sigma(k: float, e0: float, numerator: float, denominator: float) -> float:
    """numerator/(k*denominator) as a cross section, for all three routes.

    Where k*denominator overflows, k divides last instead.  For valid
    (k, e0) every route's cross section is positive and, even at the
    extremes of the doubles, stays above 1e-314, so with that order of
    division overflow is the only way out of range.  It raises DomainError:
    at e0 = -1 that happens for k below about 1e-313.
    """
    k_denominator = k * denominator
    if k_denominator == math.inf:
        sigma = numerator / denominator / k
    else:
        sigma = numerator / k_denominator
    if sigma == math.inf:
        raise DomainError(
            f"the cross section at k={k!r}, e0={e0!r} exceeds the largest double"
        )
    return sigma


def _closed_sigma(k: float, e0: float, log_x: float) -> float:
    """4 pi^2 / (k [pi^2 + 4 (ln x)^2]) from ln x; DomainError if it overflows."""
    return _checked_sigma(k, e0, 4.0 * _PI_SQ, _PI_SQ + 4.0 * log_x * log_x)


def _tan_delta0(log_x: float) -> float:
    """tan(delta_0) = -pi/(2 ln x); math.inf marks the resonant pi/2."""
    if log_x == 0.0:
        return math.inf
    return -math.pi / (2.0 * log_x)


def _delta0(log_x: float) -> float:
    """delta_0 on the branch (0, pi) from ln x; atan(inf) is exactly pi/2."""
    delta = math.atan(_tan_delta0(log_x))
    if delta <= 0.0:
        delta += math.pi
    return delta


def cross_section_closed(problem: ScatteringProblem) -> CrossSection:
    """Closed-form total cross section 4 pi^2 / (k [pi^2 + 4 (ln x)^2]).

    Maximal at resonance (ln x = 0), where it saturates the s-wave
    unitarity bound sigma = 4/k.
    """
    return CrossSection(_closed_sigma(problem.k, problem.e0, problem.log_x))


def s_wave_phase_shift(problem: ScatteringProblem) -> PhaseShift:
    """s-wave phase shift, taken on the branch (0, pi).

    That branch keeps delta_0 continuous through the resonance: it rises
    from near 0 for x << 1, passes through exactly pi/2 at ln x = 0, and
    approaches pi for x >> 1.
    """
    return PhaseShift(_delta0(problem.log_x))


def cross_section_partial_wave(problem: ScatteringProblem, m_max: int = 0) -> CrossSection:
    """Total cross section from the partial-wave sum (4/k) sum_m sin^2(delta_m).

    Only the m = 0 channel scatters off a zero-range potential: every
    |m| >= 1 term is exactly 0.0, and adding 0.0 leaves a float's bits
    unchanged.  So m_max is validated, but only m = 0 is summed, and the
    result is bit-identical for any m_max.

    sin^2 = t^2/(1 + t^2), t = tan(delta_0), is 1/(1 + 1/t^2) for t^2 > 1,
    not inf/inf once t^2 overflows: the resonant t = math.inf gives 1.0.
    """
    if not isinstance(m_max, int) or m_max < 0:
        raise ValidationError(f"m_max must be a non-negative integer, got {m_max!r}")
    t = _tan_delta0(problem.log_x)
    t_sq = t * t
    sin_sq = 1.0 / (1.0 + 1.0 / t_sq) if t_sq > 1.0 else t_sq / (1.0 + t_sq)
    return CrossSection(_checked_sigma(problem.k, problem.e0, 4.0 * sin_sq, 1.0))
