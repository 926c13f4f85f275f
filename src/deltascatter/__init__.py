"""Scattering from an attractive delta-function potential in two dimensions.

Three independent routes to the total cross section: the closed form in
terms of ln(sqrt(-e0)/k), the s-wave partial-wave sum, and the small-
cutoff limit of the regularized amplitude.  The regularization module
also carries a deliberately truncated evaluation mode that lands on a
wrong limit, so the failure can be demonstrated and quantified rather
than just avoided.
"""

from .errors import DomainError, ValidationError
from .regularization import (
    EpsilonSchedule,
    LimitEstimate,
    RegularizationMode,
    limit_extrapolate,
    mead_godines_wrong_limit,
    regularized_cross_section,
)
from .scattering import (
    CrossSection,
    PhaseShift,
    ScatteringProblem,
    cross_section_closed,
    cross_section_partial_wave,
    s_wave_phase_shift,
)
from .special_functions import (
    EULER_GAMMA,
    bessel_j0,
    bessel_k0,
    bessel_y0,
    hankel1_0,
    hankel1_0_small_z,
    k0_small_z,
)

__version__ = "0.1.0"

__all__ = [
    "CrossSection",
    "DomainError",
    "EULER_GAMMA",
    "EpsilonSchedule",
    "LimitEstimate",
    "PhaseShift",
    "RegularizationMode",
    "ScatteringProblem",
    "ValidationError",
    "bessel_j0",
    "bessel_k0",
    "bessel_y0",
    "cross_section_closed",
    "cross_section_partial_wave",
    "hankel1_0",
    "hankel1_0_small_z",
    "k0_small_z",
    "limit_extrapolate",
    "mead_godines_wrong_limit",
    "regularized_cross_section",
    "s_wave_phase_shift",
]
