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
(bistability), and the operating point is the smallest-|q0| one.  The roots are
those np.roots finds for the polynomial and, as reciprocals, for its coefficient
reversal (``_real_roots``), judged relative to q0 itself.  One routine,
``_steady_state``, applies that rule for the forward solve and the inversion
alike.  A cooperativity target fixes a photon number instead of a
power, and a held photon number is a constant force: its cavity pushes with
g1 n1 or -g2 n2 whatever q0 is.  With both n_i fixed the balance is linear,
q0 = (g1 n1 - g2 n2) / omega_m; with n_2 fixed and tone 1 at a given power it
is cavity 1's Lorentzian against the constant force -g2 n2, a cubic.
``invert_cooperativity`` then reads the powers off n_i = E_ci^2 / D_i.

A steady state is only worth linearizing about if small deviations from it
decay: ``stability_margin`` is the largest real part of the eigenvalues of
the linearized dynamics (``drift_matrix``), and ``require_stable`` refuses a
working point whose margin is positive.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .errors import ConvergenceError, InvalidParameterError, UnstableWorkingPointError
from .params import HBAR, DriveConfig, SystemParams, cooperativity, drive_amplitude, within

REL_TOL = 1e-10
IMAG_TOL = 1e-6  # a polynomial root z with |Im z| <= IMAG_TOL |z| counts as real
POLISH_STEPS = 3  # Newton steps on the force balance itself
STABILITY_RTOL = 1e-12  # a margin below this fraction of the drift matrix norm is rounding
INVERSION_RTOL = 1e-3  # relative miss of a cooperativity target that means another branch
_TINY = np.finfo(float).tiny  # the floor of every relative comparison of roots and residuals


class WorkingPoint(namedtuple("WorkingPoint", "a10 a20 q0 delta1 delta2 n1 n2 multiple_roots",
                              defaults=(False,))):
    """Zeroth-order steady state about which the probe response is linearized.

    a10, a20 are the intracavity amplitudes at the coupling-tone frequencies
    [sqrt(photons)], q0 the static displacement of the normalized mechanical
    coordinate, delta1/delta2 the effective (spring-shifted) detunings
    [rad/s], and n1/n2 the intracavity photon numbers.  ``multiple_roots``
    flags that the static force balance had several solutions (bistability)
    and the smallest-|q0| one was returned; it defaults to False.
    """

    __slots__ = ()


def _terms(params, e1, e2):
    """Lorentzian terms of the force balance omega_m q + F + s_1 n_1(q) + s_2 n_2(q).

    One (s_i, delta_i, kappa_i, c_i) per cavity, with s_1 = -g1, s_2 = g2,
    Delta_i(q) = delta_i + s_i q and n_i(q) = c_i / (kappa_i^2 + Delta_i(q)^2),
    c_i = E_ci^2.  Terms that vanish (s_i = 0 or c_i = 0) are left out.  A photon
    number fixed by a target pushes with the constant s_i n_i instead, summed into F.
    """
    terms = []
    for s, delta, kappa, e in ((-params.g1, params.delta_bare1, params.kappa1, e1),
                               (params.g2, params.delta_bare2, params.kappa2, e2)):
        c = e * e
        if s != 0.0 and c != 0.0:
            terms.append((s, delta, kappa, c))
    return terms


def _balance(q, params, terms, force=0.0):
    """The force balance omega_m q + force + sum_i s_i n_i(q), its derivative in q, and the
    scale omega_m |q| + |force| + sum_i |s_i| n_i(q) that its residual is judged by."""
    f, df = params.omega_m * q + force, params.omega_m
    scale = params.omega_m * np.abs(q) + abs(force)
    for s, delta, kappa, c in terms:
        d = delta + s * q
        den = kappa * kappa + d * d
        n = c / den
        f = f + s * n
        df = df - 2.0 * s * s * d * n / den
        scale = scale + abs(s) * n
    return f, df, scale


def _real_roots(params, terms, force=0.0) -> list[float]:
    """Every distinct real root of the force balance with the constant ``force``, ascending.

    The balance times its Lorentzian denominators is a polynomial in q of degree
    1 + 2 per term.  np.roots resolves a polynomial's large roots to a small relative
    error, and its small ones only to an error relative to the largest; so the candidates
    are the polynomial's roots and the reciprocals of the roots of its coefficient
    reversal, whose large roots are the small ones.  A reversal whose companion matrix
    overflows (a constant term far below the others) adds none.  Candidates with a
    negligible imaginary part are polished by Newton steps on the balance itself and
    merged when they agree to 1e-9 relative.  A value the polish sends past the float
    range is dropped, and so is one whose balance misses ``REL_TOL`` of its scale
    (``_balance``) plus the step of the balance to the adjacent float: near a fold a
    complex pair with a small imaginary part passes as real, and the polish sends it far
    from any root, while on a Lorentzian far narrower than |q| the balance steps by more
    than ``REL_TOL`` between adjacent floats.  Every comparison is relative to q itself,
    with ``_TINY`` as its only floor.  No real root at all, or a leading coefficient so
    small that np.roots's companion matrix overflows, raises ConvergenceError.
    """
    num, den = np.array([params.omega_m, force]), np.array([1.0])  # balance = num / den
    with np.errstate(all="ignore"):  # the roots are checked as wholes
        for s, delta, kappa, c in terms:  # num/den + s c/D = (num D + s c den) / (den D)
            add = s * c * den
            d_poly = np.array([s * s, 2.0 * s * delta, kappa * kappa + delta * delta])
            num, den = np.convolve(num, d_poly), np.convolve(den, d_poly)
            num[len(num) - len(add):] += add
        try:
            z = np.roots(num)
        except np.linalg.LinAlgError:  # a coefficient over the leading one overflows
            raise ConvergenceError("force balance roots out of range: its leading coefficient "
                                   "omega_m g1^2 g2^2 is too small for np.roots") from None
        try:
            z = np.concatenate([z, 1.0 / np.roots(num[::-1])])
        except np.linalg.LinAlgError:
            pass
        q = z.real[np.abs(z.imag) <= IMAG_TOL * np.abs(z)]
        for _ in range(POLISH_STEPS):
            f, df, _ = _balance(q, params, terms, force)
            q = q - np.divide(f, df, out=np.zeros_like(q), where=df != 0.0)
        q = q[np.isfinite(q)]
        f, df, scale = _balance(q, params, terms, force)
        q = q[np.abs(f) <= REL_TOL * scale + np.abs(df * np.spacing(q)) + _TINY]
    roots: list[float] = []
    for r in np.sort(q).tolist():
        if not roots or r - roots[-1] > 1e-9 * max(abs(r), abs(roots[-1])) + _TINY:
            roots.append(r)
    if not roots:
        raise ConvergenceError("force balance has no real root")
    return roots


def _steady_state(params, detuning_mode, e1, e2, held=(None, None)) -> WorkingPoint:
    """The steady state with cavity i driven at amplitude e_i, or holding ``held[i]`` photons.

    A held photon number is a constant force s_i n_i (s_1 = -g1, s_2 = g2) whatever q0 is;
    its cavity's amplitude e_i is 0.  In effective mode Delta_i is the stored detuning and
    q0 = (g1 n1 - g2 n2) / omega_m.  In bare mode q0 is the smallest-|q0| real root of the
    force balance (``_real_roots``), ``multiple_roots`` flags that there were several, and
    a tie for the smallest |q0|, magnitudes within 1e-9 relative, raises ConvergenceError:
    the operating point is ambiguous.
    """
    if detuning_mode not in ("effective", "bare"):
        raise InvalidParameterError(f"unknown detuning_mode {detuning_mode!r}")
    g1, g2, k1, k2 = params.g1, params.g2, params.kappa1, params.kappa2
    q, multiple = None, False
    d1, d2 = params.delta_bare1, params.delta_bare2
    if detuning_mode == "bare":
        force = sum(s * n for s, n in zip((-g1, g2), held) if n is not None)
        by_mag = sorted(_real_roots(params, _terms(params, e1, e2), force), key=abs)
        q, multiple = by_mag[0], len(by_mag) > 1
        if multiple and abs(abs(q) - abs(by_mag[1])) <= 1e-9 * abs(by_mag[1]) + _TINY:
            raise ConvergenceError(
                "force balance has tied smallest-|q0| roots "
                f"(q0 = {q:.6g} and {by_mag[1]:.6g}); operating point ambiguous"
            )
        d1, d2 = d1 - g1 * q, d2 + g2 * q
    n1, n2 = (e * e / (k * k + d * d) if n is None else n
              for e, k, d, n in ((e1, k1, d1, held[0]), (e2, k2, d2, held[1])))
    if q is None:
        q = (g1 * n1 - g2 * n2) / params.omega_m
    return WorkingPoint(a10=e1 / (k1 + 1j * d1), a20=e2 / (k2 + 1j * d2), q0=q,
                        delta1=d1, delta2=d2, n1=n1, n2=n2, multiple_roots=multiple)


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
            ``np.roots`` on the quintic and on its coefficient reversal and
            Newton-polished on the balance itself.  If several roots exist, the
            smallest-|q0| one is returned with ``multiple_roots=True``; a tie,
            magnitudes within 1e-9 relative, raises ConvergenceError.  Every root
            meets the 1e-10 force-balance residual relative to its own scale, or
            the balance's step to the adjacent float (``_real_roots``);
            ConvergenceError when none does.
    """
    e1 = drive_amplitude(drives.p_c1, params.omega_c1, params.kappa1)
    e2 = drive_amplitude(drives.p_c2, params.omega_c2, params.kappa2)
    return _steady_state(params, detuning_mode, e1, e2)


def invert_cooperativity(
    params: SystemParams,
    c1: float | None,
    c2: float,
    detuning_mode: str = "effective",
    p_c1: float = 0.0,
) -> tuple[DriveConfig, WorkingPoint]:
    """Coupling powers [W] whose working point has the target cooperativities, and that point.

    As ``_invert_cooperativity``, with each target checked against the envelope's
    cooperativity row (``params.ENVELOPE``): InvalidParameterError naming the target's
    cavity outside it, a target that is negative or not finite included.
    """
    for i, c in enumerate((c1, c2), 1):
        if c is not None:
            within(float(c), f"target cooperativity C{i}", "c")
    return _invert_cooperativity(params, c1, c2, detuning_mode, p_c1)


def _invert_cooperativity(params, c1, c2, detuning_mode="effective", p_c1=0.0):
    """Coupling powers [W] whose working point has the target cooperativities, and that point.

    ``c1=None`` drives cavity 1 at ``p_c1`` and targets C2 alone.  A target fixes a
    photon number, n_i = C_i kappa_i gamma_m / g_i^2 (a zero target holds no photons), and
    n_i = E_i^2 / (kappa_i^2 + Delta_i^2) with
    E_i^2 = 2 kappa_i P_i / (hbar omega_ci) gives P_i = n_i hbar omega_ci (kappa_i^2 +
    Delta_i^2) / (2 kappa_i).  Delta_i is that of the steady state (``_steady_state``) in
    which each target's cavity holds its photon number: in bare mode the balance is linear
    in q0 when both are held, and cavity 1's Lorentzian plus a constant force, a cubic, when
    cavity 1 is driven at ``p_c1``.  One forward solve at these powers confirms the branch:
    every target above 0 must be met within ``INVERSION_RTOL``, else ConvergenceError.
    InvalidParameterError for a target above 0 on an uncoupled cavity (g_i = 0).  The
    targets must be finite and >= 0 (not checked here) but are not bounded by the
    envelope: ratio rows and probe variants ask for C2 = ratio * C1, and the C1 that a
    power inside the envelope gives may exceed the cooperativity row.  The powers returned
    are not bounded by the power row either (``DriveConfig._inverted``).
    """
    cavities = ((params.g1, params.kappa1, params.omega_c1),
                (params.g2, params.kappa2, params.omega_c2))
    targets, photons = [], []
    for i, (c, (g, kappa, _)) in enumerate(zip((c1, c2), cavities), 1):
        n = None  # cavity 1 driven at p_c1
        if c is not None:
            c = float(c)
            if c > 0.0 and g == 0.0:
                raise InvalidParameterError(f"target cooperativity C{i} = {c:g} unreachable: "
                                       f"cavity {i} is uncoupled (g{i} = 0)")
            n = c * kappa * params.gamma_m / (g * g) if c > 0.0 else 0.0
        targets.append(c)
        photons.append(n)
    e1 = drive_amplitude(p_c1, params.omega_c1, params.kappa1) if c1 is None else 0.0
    held = _steady_state(params, detuning_mode, e1, 0.0, photons)
    powers = [p_c1 if c1 is None else 0.0, 0.0]
    for i, ((_, kappa, carrier), n, delta) in enumerate(
            zip(cavities, photons, (held.delta1, held.delta2))):
        if n:  # not cavity 1 at p_c1 (None) or a zero target
            # n scaled by a power of two, which is exact, so that n hbar cannot underflow: a
            # target's C has no lower bound but 0, and a ratio row's C2 may be tiny
            m, e = math.frexp(n)
            powers[i] = math.ldexp(
                m * HBAR * carrier * (kappa * kappa + delta * delta) / (2.0 * kappa), e)
    drives = DriveConfig._inverted(*powers)
    wp = solve_working_point(params, drives, detuning_mode)
    for c, (g, kappa, _), n in zip(targets, cavities, (wp.n1, wp.n2)):
        if not c:
            continue
        achieved = cooperativity(g, n, kappa, params.gamma_m)
        if not abs(achieved - c) <= INVERSION_RTOL * c:
            raise ConvergenceError(
                f"cooperativity inversion off target: {achieved!r} vs {c} "
                "(the forward solve found another branch)")
    return drives, wp


def drift_matrix(wp: WorkingPoint, params: SystemParams) -> np.ndarray:
    """Real drift matrix of the mean-field equations linearized about ``wp``, shape (..., 6, 6).

    In the coordinates (Re da1, Im da1, Re da2, Im da2, dq, dp):

        da1' = -(i Delta_1 + kappa1) da1 + i g1 a10 dq
        da2' = -(i Delta_2 + kappa2) da2 - i g2 a20 dq
        dq'  =  omega_m dp
        dp'  = -omega_m dq - gamma_m dp + 2 g1 Re(a10* da1) - 2 g2 Re(a20* da2)

    The working-point fields may be arrays; the matrices then stack along the leading axes.
    """
    m = np.zeros(np.broadcast(wp.a10, wp.a20, wp.delta1, wp.delta2).shape + (6, 6))
    for re, kappa, g, a, delta in ((0, params.kappa1, params.g1, np.asarray(wp.a10), wp.delta1),
                                   (2, params.kappa2, -params.g2, np.asarray(wp.a20), wp.delta2)):
        im = re + 1
        m[..., re, re] = m[..., im, im] = -kappa
        m[..., re, im], m[..., im, re] = delta, -delta
        m[..., re, 4], m[..., im, 4] = -g * a.imag, g * a.real
        m[..., 5, re], m[..., 5, im] = 2.0 * g * a.real, 2.0 * g * a.imag
    m[..., 4, 5], m[..., 5, 4], m[..., 5, 5] = params.omega_m, -params.omega_m, -params.gamma_m
    return m


def stability_margin(wp: WorkingPoint, params: SystemParams):
    """Largest real part of the drift matrix's eigenvalues [rad/s], per working point.

    Negative when every small deviation from ``wp`` decays; the growth rate of the
    fastest-growing mode otherwise.  A WorkingPoint of arrays takes one stacked eigensolve.
    """
    return _margin(drift_matrix(wp, params))


def _margin(drift):
    """Largest eigenvalue real part of each stacked drift matrix."""
    return np.linalg.eigvals(drift).real.max(axis=-1)


def require_stable(wp: WorkingPoint, params: SystemParams, what: str) -> None:
    """Raise UnstableWorkingPointError naming the first row of ``wp`` that is unstable.

    A margin within ``STABILITY_RTOL`` of the drift matrix's norm is eigensolver
    rounding, not growth, and passes.  ``what`` names the batch in the message.
    """
    drift = drift_matrix(wp, params)
    margin = np.atleast_1d(_margin(drift))
    norm = np.linalg.norm(drift, axis=(-2, -1))
    bad = np.flatnonzero(margin > STABILITY_RTOL * norm)
    if bad.size:
        i = int(bad[0])
        raise UnstableWorkingPointError(
            f"{what} row {i}: unstable working point, its linearized dynamics grow at "
            f"max Re(lambda) = {margin[i] / params.gamma_m:+.5f} gamma_m",
            row=i, margin=float(margin[i]))
