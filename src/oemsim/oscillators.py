"""Effective three-coupled-oscillator model of the probe response.

Two oscillators u, v stand for the driven cavity sidebands and w for the
rotating-wave mechanical amplitude:

    du/dt = -i*Delta1 u - i*G1 w - kappa1 u + E_p exp(-i delta t)
    dv/dt = -i*Delta2 v - i*G2 w - kappa2 v
    dw/dt = -i*omega_m w - i*G1 u - i*G2 v - (gamma_m/2) w

with effective couplings G_i = g_i |a_i0| / sqrt(2), so that G_i^2 equals
the drive weights s_i of the closed-form response and the harmonic steady
state reproduces it exactly, at cavity offsets Delta_i - omega_m included.  The
narrow absorption peak needs the rate hierarchy kappa1 >> gamma_m >> kappa2,
i.e. a mechanical linewidth between the two cavity linewidths.  The steady state
over a whole grid, one stacked solve (``harmonic_steady_state``), is the
"oscillator" model of ``linear_response.response_grid``.

Every amplitude is per unit probe amplitude (E_p = 1), as in ``linear_response``;
the system is linear in E_p, so another probe scales every state by it.

The system is linear with constant coefficients, so the time-domain
propagation is done exactly (the matrix exponential of one output step,
applied sample after sample); an independent fixed-step RK4 path exists
purely as a cross-check.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .errors import InvalidParameterError, SingularResponseError
from .params import Checked, SystemParams, _require_positive
from .working_point import WorkingPoint

METHODS = ("exact_propagator", "rk4")  # the integration methods of ``propagate``
STABILITY_FACTOR = 0.1  # rk4 guard: dt <= STABILITY_FACTOR / max_rate


class OscillatorModel(Checked, namedtuple("OscillatorModel", "delta1 delta2 omega_m kappa1 kappa2 "
                                                            "gamma_m_half g_eff1 g_eff2")):
    """Rates and couplings of the effective (u, v, w) oscillator triple.

    gamma_m_half is the amplitude damping rate of w (half the mechanical
    energy damping rate).
    """

    __slots__ = ()

    def _check(self):
        _require_positive(self.kappa1, "kappa1")
        _require_positive(self.kappa2, "kappa2")
        _require_positive(self.gamma_m_half, "gamma_m_half")

    @property
    def gamma_m(self) -> float:
        return 2.0 * self.gamma_m_half

    def system_matrix(self) -> np.ndarray:
        """The drift matrix A of (u, v, w), of shape (..., 3, 3) over the broadcast fields."""
        a = np.zeros(np.broadcast(*self).shape + (3, 3), dtype=complex)
        a[..., 0, 0] = -1j * self.delta1 - self.kappa1
        a[..., 1, 1] = -1j * self.delta2 - self.kappa2
        a[..., 2, 2] = -1j * self.omega_m - self.gamma_m_half
        a[..., 0, 2] = a[..., 2, 0] = -1j * self.g_eff1
        a[..., 1, 2] = a[..., 2, 1] = -1j * self.g_eff2
        return a


class Trajectory(Checked, namedtuple("Trajectory", "times states")):
    """Time samples of the (u, v, w) amplitudes: ``times``, a strictly increasing array, and
    ``states``, a complex array of shape (len(times), 3)."""

    __slots__ = ()

    def _check(self):
        if np.any(np.diff(self.times) <= 0):
            raise InvalidParameterError("trajectory time grid must be strictly increasing")


def from_working_point(wp: WorkingPoint, params: SystemParams) -> OscillatorModel:
    """Map a solved working point onto the effective oscillator triple."""
    return OscillatorModel(
        delta1=wp.delta1,
        delta2=wp.delta2,
        omega_m=params.omega_m,
        kappa1=params.kappa1,
        kappa2=params.kappa2,
        gamma_m_half=params.gamma_m / 2.0,
        g_eff1=params.g1 * abs(wp.a10) / math.sqrt(2.0),
        g_eff2=params.g2 * abs(wp.a20) / math.sqrt(2.0),
    )


def harmonic_steady_state(model: OscillatorModel, delta) -> np.ndarray:
    """Periodic steady-state amplitudes Z of z(t) = Z exp(-i delta t) per unit probe
    amplitude, of shape (..., 3): (3,) for a scalar detuning and model.

    Solves (-i delta I - A) Z = d for the unit drive vector d = (1, 0, 0) in one stacked
    np.linalg.solve; ``delta`` and the model's fields broadcast.  d is a (..., 3, 1)
    column, which numpy 1.x and 2.x both read as one right-hand side.
    """
    delta = np.asarray(delta, dtype=float)
    m = -1j * delta[..., None, None] * np.eye(3) - model.system_matrix()
    d = np.zeros(m.shape[:-1] + (1,), dtype=complex)
    d[..., 0, 0] = 1.0
    try:
        return np.linalg.solve(m, d)[..., 0]
    except np.linalg.LinAlgError as exc:  # an exactly zero pivot, in any system of the stack
        raise SingularResponseError("oscillator steady state singular",
                                    delta=float(delta) if delta.ndim == 0 else None) from exc


def _max_rate(matrix: np.ndarray) -> float:
    """Upper bound on the spectral radius (max row sum of magnitudes)."""
    return float(np.max(np.sum(np.abs(matrix), axis=1)))


def _taylor(x: np.ndarray, degree: int) -> np.ndarray:
    """The degree-``degree`` Taylor polynomial of exp at a square matrix x, by Horner:
    I + x (I + x/2 (... (I + x/degree) ...))."""
    eye = np.eye(len(x), dtype=x.dtype)
    e = eye
    for k in range(degree, 0, -1):
        e = eye + x @ e / k
    return e


def _expm(a: np.ndarray) -> np.ndarray:
    """exp of one square matrix, by scaling and squaring.

    The matrix is scaled by a power of two to 1-norm <= 1/2, exponentiated
    by its degree-16 Taylor series (truncation below 1e-19) and squared back
    as often as it was halved.
    """
    squarings = max(int(np.frexp(np.abs(a).sum(axis=0).max())[1]) + 1, 0)
    e = _taylor(a / 2.0 ** squarings, 16)
    for _ in range(squarings):
        e = e @ e
    return e


def _orbit(step: np.ndarray, n: int) -> np.ndarray:
    """The first n points of the orbit of (0, 0, 0, 1) under a 4x4 step matrix, as rows.

    Doubling: with rows 0..m-1 filled and ``power`` the step applied m times, rows
    m..2m-1 are rows 0..m-1 times power^T; then power <- power @ power.
    """
    rows = np.zeros((n, 4), dtype=complex)
    rows[:1, 3] = 1.0
    m, power = 1, step
    while m < n:
        k = min(m, n - m)
        rows[m:m + k] = rows[:k] @ power.T
        m, power = 2 * m, power @ power
    return rows


def propagate(
    model: OscillatorModel,
    delta: float,
    t_final: float,
    method: str = "exact_propagator",
    dt: float | None = None,
    n_samples: int = 1001,
) -> Trajectory:
    """Integrate the oscillator triple, driven by the unit probe, from (u, v, w) = (0, 0, 0).

    Both methods work in the probe co-rotating frame y = exp(i delta t) z, an
    exact change of variables that makes the drive constant: dy/dt = B y + d
    with B = A + i delta I and d = (1, 0, 0).  On (y, 1) this is the
    linear system with the 4x4 generator G = [[B, d], [0, 0]], so a step of
    either method is one 4x4 matrix, and the samples are the orbit of
    (0, 0, 0, 1) under it (``_orbit``).

    exact_propagator:
        the step exp(G t_final / (n_samples - 1)) (``_expm``, scaling and
        squaring) between the n_samples equally spaced output times.  Exact
        for this linear system, unconditionally stable, and equally valid at
        exceptional points, where A has no eigenbasis.
    rk4:
        classic fixed-step RK4 at step h = t_final / ceil(t_final / dt), guarded by
        dt <= 0.1/max_rate of B (InvalidParameterError).  On this linear system one step is
        the degree-4 Taylor polynomial of h G; its powers (``matrix_power``)
        give the map of one output stride and of the final partial stride, so
        the work grows with n_samples and only logarithmically with the steps
        per sample.  No eigenbasis and no matrix exponential enters, so it
        stays an independent verification path.  It samples step 0, every
        (n_steps // (n_samples - 1))-th step and the last step, so the row count
        can differ from n_samples: 300 samples of 1000 steps give 335 rows, and
        more samples than steps give n_steps + 1 rows.

    Either method raises SingularResponseError naming the first sample that is
    not finite (``_trajectory``).
    """
    if not t_final > 0:
        raise InvalidParameterError("t_final must be > 0")
    if n_samples < 1:
        raise InvalidParameterError(f"n_samples must be >= 1, got {n_samples!r}")
    g = np.zeros((4, 4), dtype=complex)
    g[:3, :3] = model.system_matrix() + 1j * delta * np.eye(3)
    g[0, 3] = 1.0

    if method == "exact_propagator":
        times = np.linspace(0.0, t_final, n_samples)
        with np.errstate(all="ignore"):  # an overflowed squaring shows up in _trajectory
            ys = _orbit(_expm(g * (t_final / max(1, n_samples - 1))), n_samples)
        return _trajectory(times, ys, delta, method)

    if method != "rk4":
        raise InvalidParameterError(f"unknown integration method {method!r}")
    if dt is None or not dt > 0:
        raise InvalidParameterError("rk4 requires dt > 0")
    max_rate = _max_rate(g[:3, :3])
    if max_rate > 0 and dt > STABILITY_FACTOR / max_rate:
        raise InvalidParameterError(
            f"dt = {dt:.3e} s violates the stability guard "
            f"{STABILITY_FACTOR:.1f}/max_rate = {STABILITY_FACTOR / max_rate:.3e} s"
        )
    n_steps = max(1, math.ceil(t_final / dt))
    h = t_final / n_steps
    step = _taylor(h * g, 4)

    # samples at the steps k % stride == 0 and at k == n_steps: whole strides, then the rest
    stride = max(1, n_steps // max(1, n_samples - 1))
    n_strides, rest = divmod(n_steps, stride)
    steps = list(range(0, n_steps + 1, stride)) + ([n_steps] if rest else [])
    times = np.array(steps, dtype=float) * h
    ys = _orbit(np.linalg.matrix_power(step, stride), n_strides + 1)
    if rest:
        ys = np.vstack([ys, ys[-1] @ np.linalg.matrix_power(step, rest).T])
    return _trajectory(times, ys, delta, method)


def _trajectory(times: np.ndarray, ys: np.ndarray, delta: float, method: str) -> Trajectory:
    """The orbit rows (y, 1) at ``times`` as lab-frame states z = exp(-i delta t) y.

    Raises SingularResponseError naming the first sample that is not finite, as an
    overflowed step of a huge detuning leaves it.
    """
    with np.errstate(all="ignore"):  # checked below
        states = ys[:, :3] * np.exp(-1j * delta * times)[:, None]
    bad = np.flatnonzero(~np.isfinite(states).all(axis=1))
    if bad.size:
        raise SingularResponseError(
            f"sample {bad[0]} (t = {times[bad[0]]:.6e} s) of the {method} trace is not finite "
            f"at delta = {delta:.6e} rad/s", delta=delta)
    return Trajectory(times=times, states=states)
