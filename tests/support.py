"""Test-side helpers that more than one test module uses, each defined once.

h0_ladders and k0_ladder are double-precision loops, each sum stopped by
its own test, that the library's kernels ran before they shared one ladder
stopped by the leading sum's test alone.  They read the library's term
tables and constants, so only the stopping rule differs, and the library's
_h0_sum and _k0_sum must match them bit for bit.
"""

import math

from hypothesis import strategies as st

from deltascatter.scattering import ScatteringProblem
from deltascatter.special_functions import _REL_FLOOR, _TERMS, EULER_GAMMA, TWO_OVER_PI

# The acceptance grid: five momenta by seven values of ln x, resonance included.
GRID_K = [0.1, 0.5, 1.0, 2.0, 10.0]
GRID_LOG_X = [-3.0, -1.0, -0.1, 0.0, 0.1, 1.0, 3.0]

PI_SQ = math.pi * math.pi


def problem_at(k, log_x):
    """Problem whose ln x lands at log_x up to one rounding of exp."""
    return ScatteringProblem(k=k, e0=-((k * math.exp(log_x)) ** 2))


def log_uniform(low, high):
    """Hypothesis strategy for floats log-uniform on [low, high]."""
    return st.floats(math.log(low), math.log(high)).map(math.exp)


def draw_log_uniform(rng, low, high):
    """One seeded draw from rng, log-uniform on [low, high]."""
    return math.exp(rng.uniform(math.log(low), math.log(high)))


def h0_ladders(z, log_half):
    """(J0(z), Y0(z)) in doubles, J0 and Y0's correction each stopped by
    their own test."""
    q = 0.25 * z * z
    term = j0 = 1.0
    correction = 0.0
    j0_open = y0_open = True
    for m_sq, harmonic in _TERMS:
        term *= -q / m_sq
        if j0_open:
            j0 += term
            j0_open = abs(term) >= _REL_FLOOR * abs(j0)
        if y0_open:
            step = harmonic * term
            correction -= step
            y0_open = term != 0.0 and abs(step) >= _REL_FLOOR * abs(correction)
        if not (j0_open or y0_open):
            break
    return j0, TWO_OVER_PI * ((log_half + EULER_GAMMA) * j0 + correction)


def k0_ladder(z, log_half):
    """K0(z) in doubles from the I0 sum and its harmonic companion, stopped
    by the I0 test."""
    q = 0.25 * z * z
    term = i0 = 1.0
    correction = 0.0
    for m_sq, harmonic in _TERMS:
        term *= q / m_sq
        i0 += term
        correction += harmonic * term
        if term < _REL_FLOOR * i0:
            break
    return -(log_half + EULER_GAMMA) * i0 + correction
