"""First-order probe response: sideband amplitudes, output fields, spectra.

Writing every mean value as A = sum_n A_n exp(-i n delta t) and keeping terms
first order in the probe amplitude E_p closes the dynamics on five unknowns:
the upper/lower sidebands of both cavities and the mechanical coherence Q_+.
The full model solves that 5x5 complex system.  In the RWA model the
counter-rotating (lower-sideband) unknowns are dropped *and* the mechanical
susceptibility is linearized about omega_m,

    (omega_m^2 - delta^2 - i delta gamma_m)  ->  -2 omega_m (x + i gamma_m/2),
    x = delta - omega_m,

which turns the mechanical coherence into a rotating-wave oscillator with
half damping.  The reduced 3x3 system is then algebraically identical to the
closed-form nested-fraction response (``analytic``, offset by
eps_i = Delta_i - omega_m) and to the steady state of the three-oscillator
model (``oscillators.harmonic_steady_state``), and conserves probe photon flux
exactly across its three decay channels.

One kernel, ``_solve_grid``, answers every model on a whole grid at once and gates
every point on its re-substitution residual.  It solves "full" and "rwa" itself, by
eliminating the cavity rows into the mechanical row; "analytic" evaluates the nested
fraction and "oscillator" the oscillator steady state, so the three RWA routes stay
independent.  ``response_grid``, the one public entry, adds the observables; ``model``
selects the route.

All sideband amplitudes are normalized per unit probe amplitude (E_p = 1
internally); thermal occupations are taken as zero.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .errors import InvalidParameterError, SingularResponseError
from .params import SystemParams
from .working_point import _TINY, WorkingPoint

RESIDUAL_TOL = 1e-10


class SidebandSolution(namedtuple("SidebandSolution", "a1_plus a1_minus a2_plus a2_minus q_plus "
                                                      "delta rwa residual")):
    """Complex sideband amplitudes at one probe detuning (arrays over a grid), per unit E_p.

    a1_plus/a2_plus sit at omega_ci + delta (the cavity-1 upper sideband is
    the probe frequency itself), a1_minus/a2_minus at omega_ci - delta, and
    q_plus is the mechanical coherence at +delta (Q_- = conj(Q_+)).
    ``rwa`` is True for every model but "full", and ``residual`` is the relative
    re-substitution error of the linear solve.
    """

    __slots__ = ()


class ProbeResponse(namedtuple("ProbeResponse", "e_l e_r reflect_flux transmit_flux mech_intensity "
                                                "lower_sideband_flux1 lower_sideband_flux2 "
                                                "bath_flux flux_budget")):
    """Observables at one probe detuning (arrays over a grid), flux-normalized to the probe input.

    e_l and e_r are the normalized output-field amplitudes 2 kappa_i a_i+ / E_p;
    the physical cavity-1 output at the probe frequency is e_l - 1.
    reflect_flux = |e_l - 1|^2 and transmit_flux = (kappa1/kappa2) |e_r|^2 are
    photon-flux fractions; mech_intensity = |Q_+|^2 / E_p^2.  flux_budget sums
    reflection, transmission, lower-sideband output and mechanical-bath
    absorption; it is exactly 1 for the RWA model.  The cavity-2 upper sideband
    emerges at omega_c2 + (omega_p - omega_c1) = omega_c2 + delta.
    """

    __slots__ = ()


def probe_outputs(sol: SidebandSolution, params: SystemParams) -> ProbeResponse:
    """Assemble the flux-normalized observables from a sideband solution (scalars or arrays).

    Flux bookkeeping (probe input flux = E_p^2/(2 kappa1) photons/s):
    reflection |e_l - 1|^2, transmission 4 k1 k2 |a2+|^2, lower sidebands
    4 k1^2 |a1-|^2 and 4 k1 k2 |a2-|^2, mechanical bath 4 k1 gamma_m |Q+|^2
    (times (delta/omega_m)^2 for the full model, the cycle-averaged
    dissipation of the momentum-damped oscillator; the RWA coherence
    dissipates flat).  The mechanical rotating-frame amplitude is
    sqrt(2) Q_+, which is where the factor 4 = 2*2 comes from.
    """
    k1, k2 = params.kappa1, params.kappa2
    e_l = 2.0 * k1 * sol.a1_plus
    e_r = 2.0 * k2 * sol.a2_plus
    reflect = abs(e_l - 1.0) ** 2
    transmit = 4.0 * k1 * k2 * abs(sol.a2_plus) ** 2
    low1 = 4.0 * k1 * k1 * abs(sol.a1_minus) ** 2
    low2 = 4.0 * k1 * k2 * abs(sol.a2_minus) ** 2
    q2 = abs(sol.q_plus) ** 2
    if sol.rwa:
        bath = 4.0 * k1 * params.gamma_m * q2
    else:
        bath = 4.0 * k1 * params.gamma_m * q2 * (sol.delta / params.omega_m) ** 2
    return ProbeResponse(
        e_l=e_l,
        e_r=e_r,
        reflect_flux=reflect,
        transmit_flux=transmit,
        mech_intensity=q2,
        lower_sideband_flux1=low1,
        lower_sideband_flux2=low2,
        bath_flux=bath,
        flux_budget=reflect + transmit + low1 + low2 + bath,
    )


def _arrow_solve(diag, col, row, corner):
    """Solve cavity rows diag[j] x_j + col[j] q = (1, 0, ...)_j and mechanical row
    sum_j row[j] x_j + corner q = 0; returns (x, q, residual).  The undriven rows j >= 1
    go into the mechanical row, m q = -row[0] x_0, and that into the driven row, so x_0
    is one quotient: forming it as (1 - col[0] q) / diag[0] would cancel where the probe
    is almost transparent (x_0 small)."""
    m = corner - sum(r * c / d for d, c, r in zip(diag[1:], col[1:], row[1:]))
    x0 = 1.0 / (diag[0] - col[0] * row[0] / m)
    q = -row[0] * x0 / m
    xs = [x0] + [-c * q / d for d, c in zip(diag[1:], col[1:])]
    return xs, q, _arrow_residual(diag, col, row, corner, xs, q)


def _arrow_residual(diag, col, row, corner, xs, q):
    """Per grid point, max over rows of |A z - b| / (|A| |z| + |b|) of the arrow system."""
    b = [1.0] + [0.0] * (len(xs) - 1)
    rows = [_row_residual((d, c), (x, q), bj) for d, c, x, bj in zip(diag, col, xs, b)]
    rows.append(_row_residual((*row, corner), (*xs, q), 0.0))
    return np.max(rows, axis=0)


def _row_residual(coeffs, unknowns, b):
    """|a.z - b| / (|a| |z| + |b|) of one row; 0 where the error is within tiny * sum |a|,
    the most an unknown below the normal float range leaves (at a far detuning,
    a2+ = -c2 q / d2 underflows to 0 and the cavity-2 row's relative error is 1)."""
    mags = [abs(a) for a in coeffs]
    err = abs(sum(a * z for a, z in zip(coeffs, unknowns)) - b)
    scale = sum(m * abs(z) for m, z in zip(mags, unknowns)) + b
    return np.where(err <= _TINY * sum(mags), 0.0, err / np.where(scale > 0, scale, 1.0))


def _solve_grid(wp: WorkingPoint, params: SystemParams, delta, model: str) -> SidebandSolution:
    """Sideband amplitudes of ``model`` on a whole grid, as a SidebandSolution of arrays.

    ``delta`` and the working-point fields broadcast (one working point and a delta
    grid, or one delta and a WorkingPoint of arrays).  "full" and "rwa" are arrow
    matrices (each cavity row couples only to itself and the mechanics), solved by
    ``_arrow_solve``.  "analytic" is the nested fraction (``analytic._levels``) and
    "oscillator" the stacked oscillator steady state (``oscillators.harmonic_steady_state``,
    one call for the whole grid), whose amplitudes drop the tones' phases; the first is
    gated on the rwa system, the second on its own.  Every route answers per unit probe
    amplitude.  A point whose re-substitution residual exceeds 1e-10 raises
    SingularResponseError naming its row and x.
    """
    k1, k2, g1, g2 = params.kappa1, params.kappa2, params.g1, params.g2
    gm, wm = params.gamma_m, params.omega_m
    a10, a20, d1, d2 = wp.a10, wp.a20, wp.delta1, wp.delta2
    delta = np.asarray(delta, dtype=float)
    cav = [-1j * (delta - d1) + k1, -1j * (delta - d2) + k2]
    rwa = (cav, [-1j * g1 * a10, 1j * g2 * a20], [g1 * np.conj(a10), -g2 * np.conj(a20)],
           2.0 * ((delta - wm) + 0.5j * gm))
    a1m = a2m = 0.0j
    with np.errstate(all="ignore"):  # a singular point shows up as a failed gate
        if model == "full":
            # unknowns (a1+, conj(a1-), a2+, conj(a2-), Q+); mechanical row kept
            # quadratic, scaled by 1/(2 omega_m) to match the cavity-row magnitudes
            (a1p, b1, a2p, b2), qp, residual = _arrow_solve(
                [cav[0], -1j * (delta + d1) + k1, cav[1], -1j * (delta + d2) + k2],
                [-1j * g1 * a10, 1j * g1 * np.conj(a10), 1j * g2 * a20, -1j * g2 * np.conj(a20)],
                [-0.5 * g1 * np.conj(a10), -0.5 * g1 * a10,
                 0.5 * g2 * np.conj(a20), 0.5 * g2 * a20],
                (wm**2 - delta**2 - 1j * delta * gm) / (2.0 * wm))
            a1m, a2m = np.conj(b1), np.conj(b2)
        elif model == "rwa":
            # unknowns (a1+, a2+, Q+); mechanical row linearized about omega_m
            (a1p, a2p), qp, residual = _arrow_solve(*rwa)
        elif model == "analytic":
            # the nested fraction at the cavities' offsets eps_i = Delta_i - omega_m
            from .analytic import _levels
            inner, mid, outer = _levels(delta - wm, k1, k2, gm, g1**2 * wp.n1 / 2.0,
                                        g2**2 * wp.n2 / 2.0, d1 - wm, d2 - wm)
            a1p = 1j / outer
            qp = -g1 * np.conj(a10) * a1p / (2.0 * mid)
            a2p = g2 * a20 * qp / inner
            residual = _arrow_residual(*rwa, [a1p, a2p], qp)
        elif model == "oscillator":
            # the oscillator steady state (u, v, w), gated on its own arrow system; Q+ = w/sqrt 2
            from .oscillators import from_working_point, harmonic_steady_state
            osc = from_working_point(wp, params)
            a1p, a2p, w = np.moveaxis(harmonic_steady_state(osc, delta), -1, 0)
            g_eff = [1j * osc.g_eff1, 1j * osc.g_eff2]
            residual = _arrow_residual(cav, g_eff, g_eff, osc.gamma_m_half - 1j * (delta - wm),
                                       [a1p, a2p], w)
            qp = w / math.sqrt(2.0)
        else:
            raise InvalidParameterError(f"unknown response model {model!r}")
    _check_rows(residual <= RESIDUAL_TOL, delta, wm,
                f"{model} response residual exceeds {RESIDUAL_TOL:.0e} (singular system)")
    return SidebandSolution(a1p, a1m, a2p, a2m, qp, delta, model != "full", residual)


def response_grid(wp: WorkingPoint, params: SystemParams, delta, model: str) -> ProbeResponse:
    """Probe response of ``model`` ("full", "rwa", "analytic" or "oscillator") on a whole
    grid, per unit probe amplitude: a ProbeResponse of arrays, or of scalars for a scalar
    delta and working point.

    The sideband amplitudes come from ``_solve_grid`` (the kernel's own elimination for
    "full" and "rwa", the nested fraction for "analytic", the oscillator steady state
    (``oscillators.harmonic_steady_state``) for "oscillator"; ``delta`` broadcasts
    against the working-point fields; 1e-10 residual gate), the observables from
    ``probe_outputs``.  A point whose reflect_flux, transmit_flux, mech_intensity or
    flux_budget is not finite raises SingularResponseError naming its row and x.
    """
    sol = _solve_grid(wp, params, delta, model)
    with np.errstate(all="ignore"):  # a float overflow shows up as a non-finite observable
        out = probe_outputs(sol, params)
    for name in ("reflect_flux", "transmit_flux", "mech_intensity", "flux_budget"):
        _check_rows(np.isfinite(getattr(out, name)), sol.delta, params.omega_m,
                    f"{model} response gives a non-finite {name}")
    return out


def _check_rows(ok, delta, omega_m: float, what: str) -> None:
    """Raise SingularResponseError naming the first row where ``ok`` is False and its x."""
    bad = np.flatnonzero(~np.atleast_1d(ok))
    if bad.size:
        i = bad[0]
        d_i = float(np.broadcast_to(delta, np.shape(ok)).flat[i])
        raise SingularResponseError(f"row {i} (x = {d_i - omega_m:.6e} rad/s): {what}", delta=d_i)

