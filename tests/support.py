"""Test-side helpers that more than one test module uses, each defined once.

run_main, child_command and run_child are the one way each to run the
program: in process, or as a python -m deltascatter child.  GOLDEN_OUTPUTS
pins what the command line prints for a fixed set of invocations.

h0_ladders and k0_ladder are double-precision loops, each sum stopped by
its own test, that the library's kernels ran before they shared one ladder
stopped by the leading sum's test alone.  They read the library's term
tables and constants, so only the stopping rule differs, and the library's
_h0_sum and _k0_sum must match them bit for bit.
"""

import contextlib
import io
import math
import subprocess
import sys

from hypothesis import strategies as st

from deltascatter.cli import main
from deltascatter.scattering import ScatteringProblem
from deltascatter.special_functions import _REL_FLOOR, _TERMS, EULER_GAMMA, TWO_OVER_PI

# The acceptance grid: five momenta by seven values of ln x, resonance included.
GRID_K = [0.1, 0.5, 1.0, 2.0, 10.0]
GRID_LOG_X = [-3.0, -1.0, -0.1, 0.0, 0.1, 1.0, 3.0]

PI_SQ = math.pi * math.pi

# (argv, exit code, sha256 of stdout, stderr) for the acceptance goldens (the
# first nine rows), the README examples, the extreme finite inputs,
# limit-study in every mode, a sweep across 600 decades and a run that ends
# in the convergence warning.  A refactor that moves one byte of these
# tables or messages, or one exit code, fails here.
GOLDEN_OUTPUTS = [
    ("cross-section --k 1 --e0 -1 --method closed", 0,
     "9fd1075397fcddc7cbdb7d386333d80f8b101dd20e77abc252d0473f78560276", ""),
    ("cross-section --k 1 --e0 -1 --method partial-wave", 0,
     "c89039fa0cd6d8b5ea25a23d62a5938eace5c1c0f4aad812058e39b1addc8329", ""),
    ("cross-section --k 2 --e0 -29.556224395722598 --method limit", 0,
     "69823d97f166d3143c798f867d389bb0cf7883c5f4f5670701bd679c4a152730", ""),
    ("limit-study --k 1 --e0 -1", 0,
     "8edbe6ef6de1f84351d7ae6ea461fd85a79a2fb6a6c9171ec2e2560710afcb6e", ""),
    ("limit-study --k 1 --e0 -7.3890560989306495 --mode truncated-log", 0,
     "390179f21369408b010e79c51f926b8ecfcee0b11f2f9bdc4fa4e45808998346", ""),
    ("limit-study --k 1 --e0 -1 --mode asymptotic", 0,
     "1bf1dffa758c4b85b1fccb5d3467f2e2cf1811a6768bcb8f775c8c03fa9dd48b", ""),
    ("sweep --e0 -1 --k-min 0.1 --k-max 10 --points 5", 0,
     "3fcc5dae8b26105ef0dfc2f856ac9c4659ef3934606fe5410d70149ae711226a", ""),
    ("sweep --e0 -1 --k-min 0.5 --k-max 2 --points 9", 0,
     "d8c00c773d8aa07b5ee27d9b38de5686087e175b31a23057ac46112c85a253d0", ""),
    ("sweep --e0 -4 --k-min 1 --k-max 4 --points 7", 0,
     "918ec5042b94014b5742b225beaa501dfd976496dcbf03addb86dde04935a96e", ""),
    ("cross-section --k 1 --e0 -2.5", 0,
     "52e17be50db658c369adac810281b2df0fbf97d1c2cbefa569813c6b3ba57ed3", ""),
    ("cross-section --k 1e300 --e0=-1e-300", 0,
     "e1a63ce039f93928ef94fcd373f5a8151e9e10a2f42ee1ee6afd53f1c5fcceb1", ""),
    ("cross-section --k 1e300 --e0=-1e-300 --method partial-wave", 0,
     "45d5feb54b0de982383ab62f5a879f449df416cc9f5bd058c6929b004d743331", ""),
    ("cross-section --k 1e-300 --e0=-1e300", 0,
     "df4373b6569ac6cabcdaeda00248f46e3e854877a7300c62fa61b5b341387717", ""),
    ("cross-section --k 1e-300 --e0=-1e300 --method partial-wave", 0,
     "97c60dce8499bbc7b4f46a628bbd94631d85e00534870dd779502884901f5c37", ""),
    ("cross-section --k 1e308 --e0=-1", 0,
     "f422688a9f2744a540b0a1db0c05fdc30154b48c90ed011241f070b5f19fe6f0", ""),
    ("cross-section --k 1e308 --e0=-1 --method partial-wave", 0,
     "a4ee82cccb14ffa6259a4102c58348b1deb052dbcb5399442e0acdc5a43dd74d", ""),
    ("limit-study --k 2 --e0=-29.556224395722598 --mode full", 0,
     "04b08ec417ec649a70c526692e0f9823cdb06c2145788d1516d0e2a8a712732a", ""),
    ("limit-study --k 2 --e0=-29.556224395722598 --mode asymptotic", 0,
     "6a894228e833f1f3e86d90d9a674ec15f97cf8330fa4ec72c6c6cbbd293c3650", ""),
    ("limit-study --k 2 --e0=-29.556224395722598 --mode truncated-log", 0,
     "c9f72e25d68565cc0a6fc47807f4bed9bd2f5c041397c2f8c6dab2c995449eb2", ""),
    ("sweep --e0 -3.7 --k-min 1e-300 --k-max 1e300 --points 2001", 0,
     "004dda7f9a1fc7e13c285e98c1cb43905189273ac6b6cdc840304e1e4ecb1ea4", ""),
    ("cross-section --k 1 --e0 -1 --method limit "
     "--eps-start 0.5 --eps-factor 0.5 --eps-count 2", 3,
     "68775d1c94fdc1efe0be597300685696ec7f4018415340cc5ba88c3f6d7ea452",
     "warning: limit did not converge to relative 1e-08\n"),
]


def problem_at(k, log_x):
    """Problem whose ln x lands at log_x up to one rounding of exp."""
    return ScatteringProblem(k=k, e0=-((k * math.exp(log_x)) ** 2))


def log_uniform(low, high):
    """Hypothesis strategy for floats log-uniform on [low, high]."""
    return st.floats(math.log(low), math.log(high)).map(math.exp)


def draw_log_uniform(rng, low, high):
    """One seeded draw from rng, log-uniform on [low, high]."""
    return math.exp(rng.uniform(math.log(low), math.log(high)))


def run_main(argv):
    """(exit code, stdout, stderr) of main, run in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def child_command(argv, python=sys.executable, options=()):
    """The command line python [options] -m deltascatter argv."""
    return [python, *options, "-m", "deltascatter", *argv]


def run_child(argv, python=sys.executable, options=(), **kwargs):
    """subprocess.run of child_command; captures stdout and stderr and times
    out after 120 s unless kwargs say otherwise."""
    kwargs = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, "timeout": 120, **kwargs}
    return subprocess.run(child_command(argv, python, options), **kwargs)


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
