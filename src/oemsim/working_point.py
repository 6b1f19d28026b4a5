"""Probe-off steady state of the coupled cavity-mechanics mean-field equations.

With the probe off, the mean-field equations

    da1/dt = -(i*delta_bare1 + kappa1) a1 + i g1 a1 Q + E_c1
    da2/dt = -(i*delta_bare2 + kappa2) a2 - i g2 a2 Q + E_c2
    dQ/dt  =  omega_m P
    dP/dt  = -omega_m Q - gamma_m P + g1|a1|^2 - g2|a2|^2

have the static solution

    a_i0 = E_ci / (kappa_i + i*Delta_i),      omega_m q0 = g1 n1 - g2 n2,

with effective detunings Delta_1 = delta_bare1 - g1 q0 and
Delta_2 = delta_bare2 + g2 q0 (the shared mechanical element lengthens one
cavity while shortening the other).  The radiation-pressure shift makes this
self-consistent in q0 and, at high drive, potentially multivalued.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InvalidParameterError
from .params import DriveConfig, SystemParams, drive_amplitude

REL_TOL = 1e-10
MAX_ITER = 200


@dataclass(frozen=True)
class WorkingPoint:
    """Zeroth-order steady state about which the probe response is linearized.

    a10, a20 are the intracavity amplitudes at the coupling-tone frequencies
    [sqrt(photons)], q0 the static displacement of the normalized mechanical
    coordinate, delta1/delta2 the effective (spring-shifted) detunings
    [rad/s], and n1/n2 the intracavity photon numbers.  ``multiple_roots``
    flags that the static force balance had several solutions (bistability)
    and the smallest-|q0| one was returned.
    """

    a10: complex
    a20: complex
    q0: float
    delta1: float
    delta2: float
    n1: float
    n2: float
    multiple_roots: bool = False


def _photon_numbers(e1, e2, k1, k2, d1, d2):
    n1 = e1 * e1 / (k1 * k1 + d1 * d1)
    n2 = e2 * e2 / (k2 * k2 + d2 * d2)
    return n1, n2


def _force_residual(q, e1, e2, params):
    """omega_m*q - g1 n1(q) + g2 n2(q); zero at a self-consistent q0."""
    d1 = params.delta_bare1 - params.g1 * q
    d2 = params.delta_bare2 + params.g2 * q
    n1, n2 = _photon_numbers(e1, e2, params.kappa1, params.kappa2, d1, d2)
    return params.omega_m * q - params.g1 * n1 + params.g2 * n2


def _ieee_div(num, den):
    """num / den with C semantics: division by zero gives +-inf or nan, not an exception."""
    try:
        return num / den
    except ZeroDivisionError:
        if num == 0.0 or math.isnan(num):
            return math.nan
        return math.copysign(math.inf, num) * math.copysign(1.0, den)


def _brentq(f, a, b, args=(), xtol=2e-12, rtol=8.881784197001252e-16, maxiter=100):
    """Root of f in the sign-changing bracket [a, b] by Brent's method.

    A line-for-line port of scipy's ``brentq.c`` (defaults are scipy's), so
    it returns the same float for the same inputs.  A NaN function value, a
    bracket without a sign change and a run out of iterations all raise
    ConvergenceError.
    """

    def func(x):
        fx = float(f(x, *args))
        if math.isnan(fx):
            raise ConvergenceError(f"root finder hit a NaN function value at x = {x!r}")
        return fx

    xpre, xcur = float(a), float(b)
    xtol, rtol = float(xtol), float(rtol)
    xblk = fblk = spre = scur = 0.0
    fpre = func(xpre)
    fcur = func(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ConvergenceError(f"root bracket [{xpre!r}, {xcur!r}] has no sign change")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre = xcur
            xcur = xblk
            xblk = xpre

            fpre = fcur
            fcur = fblk
            fblk = fpre

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = _ieee_div(-fcur * (xcur - xpre), fcur - fpre)
            else:
                # extrapolate
                dpre = _ieee_div(fpre - fcur, xpre - xcur)
                dblk = _ieee_div(fblk - fcur, xblk - xcur)
                stry = _ieee_div(-fcur * (fblk * dblk - fpre * dpre), dblk * dpre * (fblk - fpre))
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                # good short step
                spre = scur
                scur = stry
            else:
                # bisect
                spre = sbis
                scur = sbis
        else:
            # bisect
            spre = sbis
            scur = sbis

        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta

        fcur = func(xcur)
    raise ConvergenceError(f"root finder did not converge in {maxiter} iterations",
                           residual=abs(fcur))


def _scan_roots(e1, e2, params):
    """Bracket every root of the force balance on a padded, locally-refined grid."""
    g1, g2 = params.g1, params.g2
    n1_max = e1 * e1 / params.kappa1**2
    n2_max = e2 * e2 / params.kappa2**2
    q_max = (g1 * n1_max + g2 * n2_max) / params.omega_m
    if q_max == 0.0:
        return [0.0]
    lo, hi = -1.05 * q_max - 1.0, 1.05 * q_max + 1.0

    grid = np.linspace(lo, hi, 4001)
    # refine around the cavity-pulling resonances, whose width in q can be
    # far below the base grid spacing
    for center, width in (
        (params.delta_bare1 / g1 if g1 > 0 else None, params.kappa1 / g1 if g1 > 0 else 0),
        (-params.delta_bare2 / g2 if g2 > 0 else None, params.kappa2 / g2 if g2 > 0 else 0),
    ):
        if center is not None and lo < center < hi and width > 0:
            local = np.linspace(center - 10 * width, center + 10 * width, 801)
            grid = np.concatenate([grid, local[(local > lo) & (local < hi)]])
    grid = np.unique(grid)

    values = _force_residual(grid, e1, e2, params)
    roots = []
    for i in np.flatnonzero((values[:-1] == 0.0) | (values[:-1] * values[1:] < 0.0)):
        if values[i] == 0.0:
            roots.append(grid[i])
        else:
            roots.append(
                _brentq(_force_residual, grid[i], grid[i + 1], args=(e1, e2, params),
                        xtol=1e-14, rtol=1e-14)
            )
    if values[-1] == 0.0:
        roots.append(grid[-1])
    # collapse numerically duplicate brackets
    merged = []
    scale = max(abs(hi), 1.0)
    for r in sorted(roots):
        if not merged or abs(r - merged[-1]) > 1e-9 * scale:
            merged.append(r)
    return merged


def solve_working_point(
    params: SystemParams,
    drives: DriveConfig,
    detuning_mode: str = "effective",
) -> WorkingPoint:
    """Solve the probe-off steady state.

    detuning_mode:
        "effective" - the stored detunings are treated as targets for the
            *effective* Delta_i; the bare detunings are adjusted to absorb
            the static spring shift.  This pins the operating point the
            analytic results assume (Delta_1 = Delta_2 = omega_m by default)
            and needs no iteration.
        "bare" - the stored detunings are the bare delta_i; q0 is found
            self-consistently by damped fixed-point iteration, falling back
            to bracketed root finding on the force balance.  If several
            force-balance roots exist, the smallest-|q0| one is returned
            with ``multiple_roots=True``; an exact tie raises
            ConvergenceError.

    Raises ConvergenceError when the bare-mode iteration cannot reach the
    1e-10 relative residual within 200 iterations and no bracket succeeds.
    """
    if detuning_mode not in ("effective", "bare"):
        raise InvalidParameterError(f"unknown detuning_mode {detuning_mode!r}")

    e1 = drive_amplitude(drives.p_c1, params.omega_c1, params.kappa1)
    e2 = drive_amplitude(drives.p_c2, params.omega_c2, params.kappa2)
    k1, k2 = params.kappa1, params.kappa2
    g1, g2 = params.g1, params.g2

    if detuning_mode == "effective":
        d1, d2 = params.delta_bare1, params.delta_bare2
        n1, n2 = _photon_numbers(e1, e2, k1, k2, d1, d2)
        q0 = (g1 * n1 - g2 * n2) / params.omega_m
        return WorkingPoint(
            a10=e1 / (k1 + 1j * d1),
            a20=e2 / (k2 + 1j * d2),
            q0=q0,
            delta1=d1,
            delta2=d2,
            n1=n1,
            n2=n2,
        )

    # bare mode: damped fixed point q <- q + alpha*(q_implied - q)
    def force_scale(q):
        d1 = params.delta_bare1 - g1 * q
        d2 = params.delta_bare2 + g2 * q
        n1, n2 = _photon_numbers(e1, e2, k1, k2, d1, d2)
        return params.omega_m * max(abs(q), 1.0) + g1 * n1 + g2 * n2

    q = 0.0
    alpha = 0.5
    converged = False
    residual = abs(_force_residual(q, e1, e2, params))
    for _ in range(MAX_ITER):
        d1 = params.delta_bare1 - g1 * q
        d2 = params.delta_bare2 + g2 * q
        n1, n2 = _photon_numbers(e1, e2, k1, k2, d1, d2)
        q_implied = (g1 * n1 - g2 * n2) / params.omega_m
        q = (1.0 - alpha) * q + alpha * q_implied
        residual = abs(_force_residual(q, e1, e2, params))
        if residual <= REL_TOL * force_scale(q):
            converged = True
            break

    roots = _scan_roots(e1, e2, params)
    multiple = len(roots) > 1
    if multiple:
        by_mag = sorted(roots, key=abs)
        if len(by_mag) > 1 and abs(abs(by_mag[0]) - abs(by_mag[1])) <= 1e-9 * (abs(by_mag[0]) + 1.0):
            raise ConvergenceError(
                "force balance has tied smallest-|q0| roots "
                f"(q0 = {by_mag[0]:.6g} and {by_mag[1]:.6g}); operating point ambiguous",
                residual=residual,
            )
        q = by_mag[0]
    elif not converged:
        if roots:
            q = roots[0]
        else:
            raise ConvergenceError(
                f"working point did not converge after {MAX_ITER} iterations",
                residual=residual,
            )

    d1 = params.delta_bare1 - g1 * q
    d2 = params.delta_bare2 + g2 * q
    n1, n2 = _photon_numbers(e1, e2, k1, k2, d1, d2)
    residual = abs(_force_residual(q, e1, e2, params))
    if residual > REL_TOL * force_scale(q):
        raise ConvergenceError(
            "working point residual above tolerance after root polish",
            residual=residual,
        )
    return WorkingPoint(
        a10=e1 / (k1 + 1j * d1),
        a20=e2 / (k2 + 1j * d2),
        q0=q,
        delta1=d1,
        delta2=d2,
        n1=n1,
        n2=n2,
        multiple_roots=multiple,
    )
