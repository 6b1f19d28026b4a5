"""Effective three-coupled-oscillator model of the probe response.

Two oscillators u, v stand for the driven cavity sidebands and w for the
rotating-wave mechanical amplitude:

    du/dt = -i*Delta1 u - i*G1 w - kappa1 u + E_p exp(-i delta t)
    dv/dt = -i*Delta2 v - i*G2 w - kappa2 v
    dw/dt = -i*omega_m w - i*G1 u - i*G2 v - (gamma_m/2) w

with effective couplings G_i = g_i |a_i0| / sqrt(2), so that G_i^2 equals
the drive weights s_i of the closed-form response and the harmonic steady
state reproduces it exactly at Delta_1 = Delta_2 = omega_m.  The narrow
absorption peak needs the rate hierarchy kappa1 >> gamma_m >> kappa2, i.e. a
mechanical linewidth between the two cavity linewidths.

The system is linear with constant coefficients, so the time-domain
propagation is done exactly (eigendecomposition plus the particular
harmonic solution); an independent fixed-step RK4 path exists purely as a
cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, SingularResponseError, StepSizeError
from .params import SystemParams, _require_positive
from .working_point import WorkingPoint

STABILITY_FACTOR = 0.1  # rk4 guard: dt <= STABILITY_FACTOR / max_rate


@dataclass(frozen=True)
class OscillatorModel:
    """Rates and couplings of the effective (u, v, w) oscillator triple.

    gamma_m_half is the amplitude damping rate of w (half the mechanical
    energy damping rate).
    """

    delta1: float
    delta2: float
    omega_m: float
    kappa1: float
    kappa2: float
    gamma_m_half: float
    g_eff1: float
    g_eff2: float

    def __post_init__(self):
        _require_positive(self.kappa1, "kappa1")
        _require_positive(self.kappa2, "kappa2")
        _require_positive(self.gamma_m_half, "gamma_m_half")

    @property
    def gamma_m(self) -> float:
        return 2.0 * self.gamma_m_half

    def hierarchy_report(self, factor: float = 10.0) -> dict:
        """Whether kappa1 >> gamma_m >> kappa2 holds, with the two ratios.

        Ratios sitting exactly at the factor count as satisfied (a small
        relative slack absorbs the rounding of e.g. a ratio of exactly 10).
        """
        r1 = self.kappa1 / self.gamma_m
        r2 = self.gamma_m / self.kappa2
        cut = factor * (1.0 - 1e-9)
        return {
            "kappa1_over_gamma_m": r1,
            "gamma_m_over_kappa2": r2,
            "satisfied": r1 >= cut and r2 >= cut,
        }

    def system_matrix(self) -> np.ndarray:
        return np.array(
            [
                [-1j * self.delta1 - self.kappa1, 0.0, -1j * self.g_eff1],
                [0.0, -1j * self.delta2 - self.kappa2, -1j * self.g_eff2],
                [-1j * self.g_eff1, -1j * self.g_eff2, -1j * self.omega_m - self.gamma_m_half],
            ],
            dtype=complex,
        )


@dataclass(frozen=True)
class Trajectory:
    """Time samples of the (u, v, w) amplitudes; times strictly increasing."""

    times: np.ndarray
    states: np.ndarray  # shape (len(times), 3), complex

    def __post_init__(self):
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


def harmonic_steady_state(
    model: OscillatorModel, delta: float, probe_amp: complex = 1.0
) -> tuple[complex, complex, complex]:
    """Periodic steady-state amplitudes Z of z(t) = Z exp(-i delta t).

    Solves (-i delta I - A) Z = d for the constant drive vector
    d = (probe_amp, 0, 0).
    """
    a = model.system_matrix()
    m = -1j * delta * np.eye(3) - a
    d = np.array([probe_amp, 0.0, 0.0], dtype=complex)
    try:
        z = np.linalg.solve(m, d)
    except np.linalg.LinAlgError as exc:
        raise SingularResponseError(
            f"oscillator steady state singular at delta = {delta:.6e} rad/s", delta=delta
        ) from exc
    return complex(z[0]), complex(z[1]), complex(z[2])


def _max_rate(matrix: np.ndarray) -> float:
    """Upper bound on the spectral radius (max row sum of magnitudes)."""
    return float(np.max(np.sum(np.abs(matrix), axis=1)))


def _expm(a: np.ndarray) -> np.ndarray:
    """exp of every matrix in a stack (..., n, n), by scaling and squaring.

    Each matrix is scaled by a power of two to 1-norm <= 1/2, exponentiated
    by its degree-16 Taylor series (truncation below 1e-19) and squared back
    as often as it was halved.
    """
    squarings = np.maximum(np.frexp(np.abs(a).sum(axis=-2).max(axis=-1))[1] + 1, 0)
    x = a / (2.0 ** squarings)[..., None, None]
    eye = np.eye(a.shape[-1], dtype=a.dtype)
    e = eye
    for k in range(16, 0, -1):  # Horner: I + x/16 (... (I + x/2 (I + x)) ...)
        e = eye + x @ e / k
    for k in range(int(squarings.max(initial=0))):
        e = np.where((squarings > k)[..., None, None], e @ e, e)
    return e


def _affine_power(matrix: np.ndarray, drive: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The map y -> M y + r applied k >= 1 times, as (M^k, (M^{k-1} + ... + 1) r).

    Binary powering: O(log k) 3x3 products.  All factors are powers of the
    same map, so the order in which they are composed does not matter.
    """
    power_matrix, power_drive = np.eye(3, dtype=complex), np.zeros(3, dtype=complex)
    while True:
        if k & 1:
            power_matrix, power_drive = matrix @ power_matrix, matrix @ power_drive + drive
        k >>= 1
        if not k:
            return power_matrix, power_drive
        matrix, drive = matrix @ matrix, matrix @ drive + drive


def propagate(
    model: OscillatorModel,
    probe_amp: complex,
    delta: float,
    t_final: float,
    method: str = "exact_propagator",
    dt: float | None = None,
    n_samples: int = 1001,
) -> Trajectory:
    """Integrate the driven oscillator triple from (u, v, w) = (0, 0, 0).

    exact_propagator:
        z(t) = Z exp(-i delta t) - V exp(L t) V^{-1} Z, with (V, L) the
        eigendecomposition of the system matrix and Z the harmonic steady
        state.  Exact for this linear system and unconditionally stable; if
        the eigenvector matrix is too ill-conditioned (defective matrix),
        falls back to the matrix exponential exp(A t) of every output time
        (``_expm``, scaling and squaring).
    rk4:
        classic fixed-step RK4 run in the probe co-rotating frame
        (y = exp(i delta t) z, an exact change of variables that makes the
        drive constant), guarded by dt <= 0.1/max_rate of the transformed
        system.  The constant-drive step is an affine map y <- M y + r; it is
        composed (by binary powering) into the map of one output stride and
        of the final partial stride, so the work grows with n_samples and
        only logarithmically with the steps per sample.  Still plain RK4 at
        step h = t_final / ceil(t_final / dt), with no eigenbasis and no
        matrix exponential, so it stays an independent verification path.
    """
    if not t_final > 0:
        raise InvalidParameterError("t_final must be > 0")
    a = model.system_matrix()

    if method == "exact_propagator":
        z_ss = np.array(harmonic_steady_state(model, delta, probe_amp), dtype=complex)
        times = np.linspace(0.0, t_final, n_samples)
        evals, evecs = np.linalg.eig(a)
        # near-defective eigenbasis (exceptional point): switch to expm
        use_eig = np.linalg.cond(evecs) < 1e7
        if use_eig:
            c0 = np.linalg.solve(evecs, -z_ss)  # homogeneous part coefficients
            # all samples at once, an explicit sum over the three eigenmodes (no BLAS product)
            hom = sum(np.multiply.outer(np.exp(evals[k] * times) * c0[k], evecs[:, k])
                      for k in range(3))
        else:
            hom = _expm(a * times[:, None, None]) @ -z_ss
        states = np.multiply.outer(np.exp(-1j * delta * times), z_ss) + hom
        return Trajectory(times=times, states=states)

    if method != "rk4":
        raise InvalidParameterError(f"unknown integration method {method!r}")
    if dt is None or not dt > 0:
        raise InvalidParameterError("rk4 requires dt > 0")

    b = a + 1j * delta * np.eye(3)  # co-rotating frame: dy/dt = B y + d
    max_rate = _max_rate(b)
    if max_rate > 0 and dt > STABILITY_FACTOR / max_rate:
        raise StepSizeError(
            f"dt = {dt:.3e} s violates the stability guard "
            f"{STABILITY_FACTOR:.1f}/max_rate = {STABILITY_FACTOR / max_rate:.3e} s"
        )
    n_steps = max(1, math.ceil(t_final / dt))
    h = t_final / n_steps
    d = np.array([probe_amp, 0.0, 0.0], dtype=complex)

    # constant-drive affine RK4 step: y <- R y + r
    hb = h * b
    hb2 = hb @ hb
    hb3 = hb2 @ hb
    hb4 = hb3 @ hb
    eye = np.eye(3, dtype=complex)
    step_matrix = eye + hb + hb2 / 2.0 + hb3 / 6.0 + hb4 / 24.0
    step_drive = h * (eye + hb / 2.0 + hb2 / 6.0 + hb3 / 24.0) @ d

    # samples at the steps k % stride == 0 and at k == n_steps: whole strides, then the rest
    stride = max(1, n_steps // max(1, n_samples - 1))
    n_strides, rest = divmod(n_steps, stride)
    steps = list(range(0, n_steps + 1, stride)) + ([n_steps] if rest else [])
    times = np.array(steps, dtype=float) * h
    stride_matrix, stride_drive = _affine_power(step_matrix, step_drive, stride)
    ys = np.zeros((len(steps), 3), dtype=complex)
    for i in range(1, n_strides + 1):
        ys[i] = stride_matrix @ ys[i - 1] + stride_drive
    if rest:
        rest_matrix, rest_drive = _affine_power(step_matrix, step_drive, rest)
        ys[-1] = rest_matrix @ ys[-2] + rest_drive
    return Trajectory(times=times, states=ys * np.exp(-1j * delta * times)[:, None])

