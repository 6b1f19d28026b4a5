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
cavity while shortening the other) and photon numbers n_i = E_ci^2 / D_i,
D_i = kappa_i^2 + Delta_i^2.  At fixed bare detunings the force balance is
therefore self-consistent in q0.  Multiplied by D_1 D_2 it is the quintic

    omega_m q0 D_1 D_2 - g1 E_c1^2 D_2 + g2 E_c2^2 D_1 = 0,

whose real roots are every steady state; at high drive there are several
(bistability).  A cooperativity target fixes a photon number instead of a
power.  With n_i held, only the other denominator is cleared and the balance
is a cubic, or q0 = +-g_i n_i / omega_m outright when the other tone is off;
``coupling_power`` then reads the power off n_i = E_ci^2 / D_i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InvalidParameterError
from .params import HBAR, DriveConfig, SystemParams, drive_amplitude

REL_TOL = 1e-10
IMAG_TOL = 1e-6  # a polynomial root z with |Im z| <= IMAG_TOL |z| counts as real
POLISH_STEPS = 3  # Newton steps on the force balance itself


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


def _terms(params, e1, e2, held=(None, None)):
    """Photon-number terms of the force balance omega_m q + s_1 n_1(q) + s_2 n_2(q).

    One (s_i, delta_i, kappa_i, c_i, lorentzian) per cavity, with s_1 = -g1,
    s_2 = g2 and Delta_i(q) = delta_i + s_i q: n_i(q) = c_i / (kappa_i^2 +
    Delta_i(q)^2) with c_i = E_ci^2, or the constant c_i = held[i - 1] when
    that is not None.  Terms that vanish (s_i = 0 or c_i = 0) are left out.
    """
    terms = []
    for s, delta, kappa, e, n in ((-params.g1, params.delta_bare1, params.kappa1, e1, held[0]),
                                  (params.g2, params.delta_bare2, params.kappa2, e2, held[1])):
        c = e * e if n is None else n
        if s != 0.0 and c != 0.0:
            terms.append((s, delta, kappa, c, n is None))
    return terms


def _balance(q, params, terms):
    """The force balance omega_m q + sum_i s_i n_i(q) and its derivative in q."""
    f, df = params.omega_m * q, params.omega_m
    for s, delta, kappa, c, lorentzian in terms:
        if lorentzian:
            d = delta + s * q
            den = kappa * kappa + d * d
            n = c / den
            f = f + s * n
            df = df - 2.0 * s * s * d * n / den
        else:
            f = f + s * c
    return f, df


def _real_roots(params, terms) -> list[float]:
    """Every distinct real root of the force balance, ascending.

    The balance times its Lorentzian denominators is a polynomial in q of
    degree 1 + 2 per Lorentzian term.  Its roots with a negligible imaginary
    part are polished by Newton steps on the balance itself and merged when
    they agree to 1e-9.  No real root at all raises ConvergenceError.
    """
    num, den = np.array([params.omega_m, 0.0]), np.array([1.0])  # balance = num / den
    for s, delta, kappa, c, lorentzian in terms:
        add = s * c * den
        if lorentzian:  # num/den + s c/D = (num D + s c den) / (den D)
            d_poly = np.array([s * s, 2.0 * s * delta, kappa * kappa + delta * delta])
            num, den = np.convolve(num, d_poly), np.convolve(den, d_poly)
        num[len(num) - len(add):] += add
    z = np.roots(num)
    q = z.real[np.abs(z.imag) <= IMAG_TOL * np.abs(z)]
    for _ in range(POLISH_STEPS):
        f, df = _balance(q, params, terms)
        q = q - np.divide(f, df, out=np.zeros_like(q), where=df != 0.0)
    roots: list[float] = []
    for r in np.sort(q).tolist():
        if not roots or r - roots[-1] > 1e-9 * max(abs(r), 1.0):
            roots.append(r)
    if not roots:
        raise ConvergenceError("force balance has no real root")
    return roots


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
            and needs no root finding.
        "bare" - the stored detunings are the bare delta_i; q0 is a real root
            of the force-balance quintic (see the module docstring), found by
            ``np.roots`` and Newton-polished on the balance itself.  If
            several roots exist, the smallest-|q0| one is returned with
            ``multiple_roots=True``; an exact tie raises ConvergenceError.

    Raises ConvergenceError when the returned root misses the 1e-10 relative
    force-balance residual.
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
        q, multiple = (g1 * n1 - g2 * n2) / params.omega_m, False
    else:
        terms = _terms(params, e1, e2)
        by_mag = sorted(_real_roots(params, terms), key=abs)
        q, multiple = by_mag[0], len(by_mag) > 1
        if multiple and abs(abs(q) - abs(by_mag[1])) <= 1e-9 * (abs(q) + 1.0):
            raise ConvergenceError(
                "force balance has tied smallest-|q0| roots "
                f"(q0 = {q:.6g} and {by_mag[1]:.6g}); operating point ambiguous"
            )
        d1 = params.delta_bare1 - g1 * q
        d2 = params.delta_bare2 + g2 * q
        n1, n2 = _photon_numbers(e1, e2, k1, k2, d1, d2)
        residual = abs(_balance(q, params, terms)[0])
        if residual > REL_TOL * (params.omega_m * max(abs(q), 1.0) + g1 * n1 + g2 * n2):
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


def coupling_power(
    params: SystemParams,
    cavity_index: int,
    photons: float,
    other_power: float = 0.0,
    detuning_mode: str = "effective",
) -> float:
    """Coupling power [W] that puts ``photons`` into cavity ``cavity_index`` at its working point.

    n = E^2 / (kappa^2 + Delta^2) with E^2 = 2 kappa P / (hbar omega_c) gives
    P = n hbar omega_c (kappa^2 + Delta^2) / (2 kappa).  In effective mode
    Delta is the stored detuning.  In bare mode it is Delta_i(q0), with q0 the
    smallest-|q0| real root of the force balance with this cavity's photon
    number held at n and the other cavity driven at ``other_power``.  Whether
    the forward solve at this power picks the same root is for the caller to
    confirm.
    """
    i = cavity_index - 1
    kappa = (params.kappa1, params.kappa2)[i]
    delta = (params.delta_bare1, params.delta_bare2)[i]
    if detuning_mode == "bare":  # the held photon number replaces this cavity's own drive
        e1 = drive_amplitude(other_power, params.omega_c1, params.kappa1)
        e2 = drive_amplitude(other_power, params.omega_c2, params.kappa2)
        held = (photons, None) if i == 0 else (None, photons)
        q0 = min(_real_roots(params, _terms(params, e1, e2, held)), key=abs)
        delta += (-params.g1, params.g2)[i] * q0
    elif detuning_mode != "effective":
        raise InvalidParameterError(f"unknown detuning_mode {detuning_mode!r}")
    carrier = (params.omega_c1, params.omega_c2)[i]
    return photons * HBAR * carrier * (kappa * kappa + delta * delta) / (2.0 * kappa)
