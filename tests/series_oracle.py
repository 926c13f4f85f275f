"""Arbitrary-precision oracle for the order-zero Bessel family.

Sums the standard ascending series for J0, Y0, K0 (and I0) with mpmath at
50 decimal digits.  This is the reference the double-precision library is
tested against; it deliberately shares nothing with the library code except
the series definitions themselves.

Run as a script to print a comparison table against mpmath's own Bessel
routines (a sanity check that the series are transcribed correctly).

h0_ladders and k0_ladder are the exception: double-precision loops, each
sum stopped by its own test, that the library's kernels ran before they
shared one ladder stopped by the leading sum's test alone.  They read the
library's term tables and constants, so only the stopping rule differs,
and the library's _h0_sum and _k0_sum must match them bit for bit.
"""

from mpmath import mp, mpf

mp.dps = 50

# Stop when a term falls below this fraction of the running sum.
_TAIL = mpf(10) ** -60
_MAX_TERMS = 400


def j0_series(z):
    """J0(z) = sum_m (-1)^m (z/2)^(2m) / (m!)^2."""
    z = mpf(z)
    q = (z / 2) ** 2
    term = mpf(1)
    total = mpf(1)
    for m in range(1, _MAX_TERMS):
        term *= -q / (m * m)
        total += term
        if abs(term) < _TAIL * abs(total):
            return total
    raise RuntimeError(f"j0 series did not converge for z={z}")


def i0_series(z):
    """I0(z) = sum_m (z/2)^(2m) / (m!)^2."""
    z = mpf(z)
    q = (z / 2) ** 2
    term = mpf(1)
    total = mpf(1)
    for m in range(1, _MAX_TERMS):
        term *= q / (m * m)
        total += term
        if term < _TAIL * total:
            return total
    raise RuntimeError(f"i0 series did not converge for z={z}")


def _alternating_harmonic_correction(q, sign):
    """sum_{m>=1} sign^(m+1) h_m q^m / (m!)^2 with h_m = sum_{j<=m} 1/j.

    sign=-1 gives the Y0 correction series (in q = (z/2)^2), sign=+1 the
    K0 one.
    """
    term = mpf(1)  # q^m / (m!)^2 running factor
    h = mpf(0)
    total = mpf(0)
    for m in range(1, _MAX_TERMS):
        term *= q / (m * m)
        h += mpf(1) / m
        contribution = (sign ** (m + 1)) * h * term
        total += contribution
        if h * term < _TAIL * max(abs(total), term):
            return total
    raise RuntimeError("harmonic correction series did not converge")


def y0_series(z):
    """Y0(z) = (2/pi) [ (ln(z/2) + gamma) J0(z) + correction series ]."""
    z = mpf(z)
    q = (z / 2) ** 2
    log_part = (mp.log(z / 2) + mp.euler) * j0_series(z)
    return (2 / mp.pi) * (log_part + _alternating_harmonic_correction(q, -1))


def k0_series(z):
    """K0(z) = -(ln(z/2) + gamma) I0(z) + correction series."""
    z = mpf(z)
    q = (z / 2) ** 2
    return -(mp.log(z / 2) + mp.euler) * i0_series(z) + _alternating_harmonic_correction(q, 1)


def hankel1_0_series(z):
    """H0^(1)(z) = J0(z) + i Y0(z), returned as an (re, im) pair."""
    return j0_series(z), y0_series(z)


def h0_ladders(z, log_half):
    """(J0(z), Y0(z)) in doubles, J0 and Y0's correction each stopped by
    their own test."""
    from deltascatter.special_functions import (
        _REL_FLOOR, _TERMS, EULER_GAMMA, TWO_OVER_PI
    )

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
    from deltascatter.special_functions import _REL_FLOOR, _TERMS, EULER_GAMMA

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


def main():
    points = [mpf("0.001"), mpf("0.01"), mpf("0.1"), mpf("0.5"), mpf(1), mpf("1.5"), mpf(2)]
    print(f"{'z':>8}  {'|J0 series - mpmath|':>22}  {'|Y0 series - mpmath|':>22}  {'|K0 series - mpmath|':>22}")
    for z in points:
        dj = abs(j0_series(z) - mp.besselj(0, z))
        dy = abs(y0_series(z) - mp.bessely(0, z))
        dk = abs(k0_series(z) - mp.besselk(0, z))
        print(f"{mp.nstr(z, 6):>8}  {mp.nstr(dj, 3):>22}  {mp.nstr(dy, 3):>22}  {mp.nstr(dk, 3):>22}")
    print()
    for z in (mpf("0.1"), mpf("0.5"), mpf(1), mpf(2)):
        print(f"J0({mp.nstr(z, 6)}) = {mp.nstr(j0_series(z), 25)}")
        print(f"Y0({mp.nstr(z, 6)}) = {mp.nstr(y0_series(z), 25)}")
        print(f"K0({mp.nstr(z, 6)}) = {mp.nstr(k0_series(z), 25)}")


if __name__ == "__main__":
    main()
