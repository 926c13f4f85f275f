"""Checks of deltascatter's outputs that share no code with the program.

Reference values come from mpmath at 40 digits; properties are checked in
plain floats.  Every check returns a list of failure messages, empty when
all is well.  Nothing here stores a copy of the program's output.
"""

from __future__ import annotations

import math

from mpmath import mp, mpf

mp.dps = 40

_PI_SQ = mp.pi ** 2
_ULP = 2.0 ** -52


def exact(k: float, e0: float):
    """(ln x, sigma, pi^2/(k ln^2 x)) at 40 digits for the given doubles."""
    k = mpf(k)
    log_x = mp.log(mp.sqrt(-mpf(e0)) / k)
    sigma = 4 * _PI_SQ / (k * (_PI_SQ + 4 * log_x ** 2))
    wrong = _PI_SQ / (k * log_x ** 2) if log_x else mp.inf
    return log_x, sigma, wrong


def _rel(value: float, ref) -> float:
    return float(abs(mpf(value) - ref) / abs(ref))


def full_mode_tol(z: float) -> float:
    """Relative bound on |sigma(eps) - sigma| in FULL mode, z = max(k, mu) * eps.

    The series beyond the two-term small-z forms start at (z^2/4)(|ln z| + c)
    in K0/(2 pi) and H0/4, and the bracket has modulus at least 1/4 (its
    imaginary part tends to -1/4), so |sigma(eps)/sigma - 1| stays below about
    2 z^2 (|ln z| + 2): the eps^2 ln eps order.  Twice that, plus a rounding
    floor.
    """
    return 4.0 * z * z * (abs(math.log(z)) + 2.0) + 1e-12


# Stopping on |s_n - s_{n-1}| <= 1e-8 s_n with errors falling like
# eps^2 ln eps (at least 50-fold per decade of eps for z < 1e-3) leaves
# |s_n - sigma| <= 1e-8 s_n / 49.
CONVERGED_FULL_TOL = 1e-8 / 49.0 + 1e-12


def _truncated_tol(k: float, mu: float, eps: float, log_x) -> float:
    """TRUNCATED_LOG rounding: ln x arrives as ln(k eps) - ln(mu eps)."""
    magnitude = abs(math.log(k * eps)) + abs(math.log(mu * eps)) + 2.0
    return 1e-12 + 16 * _ULP * magnitude / float(abs(log_x))


def check_routes(k, e0, log_x, closed, pw0, pw100, limits) -> list[str]:
    """All routes of one crosscheck operation against the exact values."""
    where = f"k={k!r} e0={e0!r}"
    ref_log_x, sigma, wrong = exact(k, e0)
    mu = math.sqrt(-e0)
    scale = max(k, mu)
    full, asymptotic, truncated = limits
    errors = []

    def need(ok: bool, what: str) -> None:
        if not ok:
            errors.append(f"{where}: {what}")

    need(float(abs(log_x - ref_log_x)) <= 1e-15 * (1.0 + abs(log_x)), f"ln x {log_x!r}")
    need(_rel(closed, sigma) <= 1e-13, f"closed sigma {closed!r} vs {mp.nstr(sigma, 17)}")
    need(closed * k <= 4.0 * (1.0 + 2 * _ULP), f"sigma*k {closed * k!r} > 4")
    need(pw0 == pw100, f"partial wave m_max 0 {pw0!r} != m_max 100 {pw100!r}")
    need(_rel(pw0, sigma) <= 1e-12, f"partial-wave sigma {pw0!r}")

    eps_min = full.samples[-1][0]
    need(
        _rel(full.sigma_limit, sigma) <= full_mode_tol(scale * eps_min),
        f"FULL limit {full.sigma_limit!r} off by {_rel(full.sigma_limit, sigma):.3g}",
    )
    for eps, value in full.samples:
        need(_rel(value, sigma) <= full_mode_tol(scale * eps), f"FULL sample at eps={eps!r}")
    need(asymptotic.converged and truncated.converged, "ASYMPTOTIC or TRUNCATED_LOG flagged unconverged")
    for eps, value in asymptotic.samples:
        need(_rel(value, sigma) <= 1e-12, f"ASYMPTOTIC sample {value!r} at eps={eps!r}")
    overshoot = (_PI_SQ + 4 * ref_log_x ** 2) / (4 * ref_log_x ** 2)
    for eps, value in truncated.samples:
        tol = _truncated_tol(k, mu, eps, ref_log_x)
        need(_rel(value, wrong) <= tol, f"TRUNCATED_LOG sample {value!r} vs wrong limit")
    tol = _truncated_tol(k, mu, truncated.samples[-1][0], ref_log_x) + 1e-12
    need(
        _rel(truncated.sigma_limit / closed, overshoot) <= tol,
        "TRUNCATED_LOG overshoot is not (pi^2 + 4 ln^2 x)/(4 ln^2 x)",
    )
    return errors


def _table(text: str, header: str) -> tuple[list[list[str]], list[str]]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        return [], [f"header {lines[:1]!r}, expected {header!r}"]
    return [line.split(",") for line in lines[1:]], []


def check_sweep_table(text, e0, k_min, k_max, points) -> list[str]:
    """A `sweep` table: every row by properties, a spread of rows by mpmath."""
    rows, errors = _table(text, "k,ln_x,delta0,sigma,sigma_times_k")
    if errors:
        return errors
    where = f"sweep e0={e0!r}"
    if len(rows) != points:
        return [f"{where}: {len(rows)} rows, expected {points}"]
    mu = math.sqrt(-e0)
    values = [[float(v) for v in row] for row in rows]
    ks = [row[0] for row in values]
    if abs(ks[0] - k_min) > 5e-15 * k_min or abs(ks[-1] - k_max) > 5e-15 * k_max:
        errors.append(f"{where}: endpoints {ks[0]!r}, {ks[-1]!r}")
    step = math.log(k_max / k_min) / (points - 1)
    for a, b in zip(ks, ks[1:]):
        if not abs(math.log(b / a) - step) <= 1e-12 + 1e-9 * step:
            errors.append(f"{where}: grid not geometric between {a!r} and {b!r}")
            break
    for k, log_x, delta0, sigma, sigma_k in values:
        closed = 4.0 * math.pi ** 2 / (k * (math.pi ** 2 + 4.0 * log_x * log_x))
        checks = (
            sigma_k <= 4.0,
            abs(sigma * k - sigma_k) <= 1e-13 * sigma_k,
            0.0 < delta0 < math.pi,
            abs(4.0 * math.sin(delta0) ** 2 / k - sigma) <= 1e-11 * sigma,
            abs(closed - sigma) <= 1e-12 * sigma,
            (k < mu) == (log_x > 0.0) or abs(log_x) < 1e-13,
        )
        if not all(checks):
            errors.append(f"{where}: row k={k!r} fails {checks}")
            break
    # The row nearest resonance has |ln x| <= step/2, so sigma*k is within
    # 4 (step/2)^2 (4/pi^2) of the unitarity bound 4.
    best = max(row[4] for row in values)
    if best < 4.0 * (1.0 - step * step / math.pi ** 2) - 1e-13:
        errors.append(f"{where}: max sigma*k {best!r} misses the resonance")
    nearest = min(range(points), key=lambda i: abs(values[i][1]))
    for i in sorted({*range(0, points, max(1, points // 16)), nearest, points - 1}):
        k, log_x, _, sigma, _ = values[i]
        ref_log_x, ref_sigma, _ = exact(k, e0)
        if float(abs(log_x - ref_log_x)) > 1e-14 + 1e-13 * abs(log_x):
            errors.append(f"{where}: ln x {log_x!r} at k={k!r}")
        if _rel(sigma, ref_sigma) > 1e-12:
            errors.append(f"{where}: sigma {sigma!r} at k={k!r}")
    return errors


def check_cross_section_csv(text, k, e0, method) -> list[str]:
    """A `cross-section` record against the exact values."""
    rows, errors = _table(text, "k,e0,x,ln_x,method,sigma")
    if errors:
        return errors
    where = f"cross-section {method} k={k!r} e0={e0!r}"
    if len(rows) != 1 or len(rows[0]) != 6 or rows[0][4] != method:
        return [f"{where}: record {rows!r}"]
    out_k, out_e0, x, log_x, sigma = (float(rows[0][i]) for i in (0, 1, 2, 3, 5))
    ref_log_x, ref_sigma, _ = exact(k, e0)
    tol = CONVERGED_FULL_TOL if method == "limit" else 1e-12
    for ok, what in (
        (abs(out_k - k) <= 5e-15 * k and abs(out_e0 - e0) <= 5e-15 * -e0, "echoed inputs"),
        (_rel(x, mp.exp(ref_log_x)) <= 1e-13, f"x {x!r}"),
        (float(abs(log_x - ref_log_x)) <= 1e-14 + 1e-13 * abs(log_x), f"ln x {log_x!r}"),
        (_rel(sigma, ref_sigma) <= tol, f"sigma {sigma!r} vs {mp.nstr(ref_sigma, 17)}"),
    ):
        if not ok:
            errors.append(f"{where}: {what}")
    return errors


def check_limit_study_csv(text, k, e0) -> list[str]:
    """A FULL-mode `limit-study` trace: each sample within its eps^2 ln eps bound."""
    rows, errors = _table(text, "eps,sigma_eps,abs_err_vs_closed")
    if errors:
        return errors
    where = f"limit-study k={k!r} e0={e0!r}"
    if len(rows) < 3 or rows[-1][0] != "limit":
        return [f"{where}: {len(rows)} rows"]
    _, sigma, _ = exact(k, e0)
    scale = max(k, math.sqrt(-e0))
    samples = [(float(e), float(s), float(a)) for e, s, a in rows[:-1]]
    for (eps, value, abs_err), (next_eps, _, _) in zip(samples, samples[1:] + [(None, 0, 0)]):
        if next_eps is not None and abs(next_eps / eps - 0.1) > 1e-12:
            errors.append(f"{where}: eps {eps!r} -> {next_eps!r} is not a tenfold step")
        if _rel(value, sigma) > full_mode_tol(scale * eps):
            errors.append(f"{where}: sample {value!r} at eps={eps!r}")
        if float(abs(mpf(abs_err) - abs(mpf(value) - sigma))) > 1e-13 * float(sigma):
            errors.append(f"{where}: abs_err {abs_err!r} at eps={eps!r}")
    limit, err = float(rows[-1][1]), float(rows[-1][2])
    last, prev = samples[-1][1], samples[-2][1]
    if rows[-1][1] != rows[-2][1]:
        errors.append(f"{where}: limit {rows[-1][1]} is not the last sample")
    if abs(err - abs(last - prev)) > 1e-13 * limit or err > 1e-8 * limit:
        errors.append(f"{where}: error estimate {err!r}")
    if _rel(limit, sigma) > CONVERGED_FULL_TOL:
        errors.append(f"{where}: limit {limit!r} vs {mp.nstr(sigma, 17)}")
    return errors


def check_bessel(zs, j0s, y0s, k0s, hankels) -> list[str]:
    """J0, Y0, K0 and H0 = J0 + iY0 against mpmath, to relative 1e-10.

    The 1e-15 absolute floor covers Y0's zero near z = 0.894, where the
    series' cancellation sets the error, not the size of Y0.
    """
    errors = []
    for z, j0, y0, k0, (h_re, h_im) in zip(zs, j0s, y0s, k0s, hankels):
        refs = (mp.besselj(0, z), mp.bessely(0, z), mp.besselk(0, z))
        for name, value, ref in zip(("J0", "Y0", "K0"), (j0, y0, k0), refs):
            if float(abs(mpf(value) - ref)) > 1e-10 * float(abs(ref)) + 1e-15:
                errors.append(f"{name}({z!r}) = {value!r} vs {mp.nstr(ref, 17)}")
        if float(abs(mpf(h_re) - refs[0])) > 1e-10 * float(abs(refs[0])) + 1e-15 or float(
            abs(mpf(h_im) - refs[1])
        ) > 1e-10 * float(abs(refs[1])) + 1e-15:
            errors.append(f"H0({z!r}) = ({h_re!r}, {h_im!r})")
    return errors
