"""System parameters, physical constants, and drive/coupling conversions.

Unit conventions
----------------
Every frequency, detuning, and decay rate is stored as an angular frequency
in rad/s.  Hardware values are usually quoted in plain Hz, so the
constructors ending in ``from_hz`` (and the CLI config format) accept Hz and
apply the factor 2*pi themselves.  Powers are in watts.

``kappa1``/``kappa2`` are cavity *amplitude* decay rates (intracavity fields
decay as exp(-kappa*t)); ``gamma_m`` is the mechanical *energy* damping rate
(the momentum quadrature is damped at gamma_m, so the rotating-frame
mechanical amplitude decays at gamma_m/2).

Detunings are stored instead of absolute cavity frequencies: with optical
carriers near 1e15 rad/s, forming ``omega_cavity - omega_laser`` from two
stored absolutes would lose most of the double-precision mantissa.  The
carriers themselves are kept only for photon-energy conversions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConvergenceError, InvalidParameterError

HBAR = 1.054571817e-34  # J*s
TWO_PI = 2.0 * math.pi


def _require_positive(value: float, name: str) -> None:
    if not math.isfinite(value) or value <= 0.0:
        raise InvalidParameterError(f"{name} must be finite and > 0, got {value!r}")


def _require_non_negative(value: float, name: str) -> None:
    if not math.isfinite(value) or value < 0.0:
        raise InvalidParameterError(f"{name} must be finite and >= 0, got {value!r}")


@dataclass(frozen=True)
class SystemParams:
    """Fixed hardware rates and detunings of the two-cavity device.

    Attributes
    ----------
    omega_c1, omega_c2:
        Carrier angular frequencies of the optical and microwave coupling
        tones [rad/s].  Used only for power <-> photon-flux conversion.
    delta_bare1, delta_bare2:
        Cavity minus coupling-tone detunings omega_i - omega_ci [rad/s].
        Positive means the coupling tone sits below the cavity resonance.
    omega_m:
        Mechanical angular frequency [rad/s].
    gamma_m:
        Mechanical energy damping rate [rad/s].
    kappa1, kappa2:
        Cavity amplitude decay rates [rad/s].
    g1, g2:
        Single-photon optomechanical coupling rates [rad/s].  The shared
        mechanical element couples with opposite signs to the two cavities.
    """

    omega_c1: float
    omega_c2: float
    delta_bare1: float
    delta_bare2: float
    omega_m: float
    gamma_m: float
    kappa1: float
    kappa2: float
    g1: float
    g2: float

    def __post_init__(self):
        _require_positive(self.omega_c1, "omega_c1")
        _require_positive(self.omega_c2, "omega_c2")
        _require_positive(self.omega_m, "omega_m")
        _require_positive(self.gamma_m, "gamma_m")
        _require_positive(self.kappa1, "kappa1")
        _require_positive(self.kappa2, "kappa2")
        _require_non_negative(self.g1, "g1")
        _require_non_negative(self.g2, "g2")
        for name in ("delta_bare1", "delta_bare2"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidParameterError(f"{name} must be finite")

    @classmethod
    def from_hz(
        cls,
        omega_c1: float,
        omega_c2: float,
        omega_m: float,
        gamma_m: float,
        kappa1: float,
        kappa2: float,
        g1: float,
        g2: float,
        delta_bare1: float | None = None,
        delta_bare2: float | None = None,
    ) -> "SystemParams":
        """Build from plain-Hz values (2*pi applied here).

        Detunings default to the mechanical frequency, i.e. both coupling
        tones one mechanical frequency below their cavity resonances.
        """
        if delta_bare1 is None:
            delta_bare1 = omega_m
        if delta_bare2 is None:
            delta_bare2 = omega_m
        return cls(
            omega_c1=TWO_PI * omega_c1,
            omega_c2=TWO_PI * omega_c2,
            delta_bare1=TWO_PI * delta_bare1,
            delta_bare2=TWO_PI * delta_bare2,
            omega_m=TWO_PI * omega_m,
            gamma_m=TWO_PI * gamma_m,
            kappa1=TWO_PI * kappa1,
            kappa2=TWO_PI * kappa2,
            g1=TWO_PI * g1,
            g2=TWO_PI * g2,
        )

    @property
    def sideband_resolution(self) -> float:
        """omega_m / max(kappa1, kappa2); >> 1 in the resolved-sideband regime."""
        return self.omega_m / max(self.kappa1, self.kappa2)


# Reference hardware in plain Hz: optical and microwave carriers, 10 MHz mechanics,
# kappa1 >> gamma_m >> kappa2.
REFERENCE_HZ = {"omega_c1": 4e14, "omega_c2": 1e10, "omega_m": 1e7, "gamma_m": 1e3,
                "kappa1": 1e6, "kappa2": 1e2, "g1": 50.0, "g2": 5.0}


def default_params() -> SystemParams:
    """Experimentally realizable reference set (``REFERENCE_HZ``) used by all built-in
    scenarios; both coupling tones detuned omega_m below their cavity."""
    return SystemParams.from_hz(**REFERENCE_HZ)


@dataclass(frozen=True)
class DriveConfig:
    """Input powers of the two coupling tones [W].

    The probe needs no power: the linear response is normalized per unit
    probe amplitude.
    """

    p_c1: float
    p_c2: float

    def __post_init__(self):
        _require_non_negative(self.p_c1, "p_c1")
        _require_non_negative(self.p_c2, "p_c2")


def drive_amplitude(power: float, carrier: float, kappa: float) -> float:
    """Intracavity drive amplitude sqrt(2*kappa*P/(hbar*omega_c)) [sqrt(photons)/s].

    Monotone square-root law in power: quadrupling the power doubles the
    amplitude.
    """
    _require_non_negative(power, "power")
    _require_positive(kappa, "kappa")
    photon_energy = HBAR * carrier  # 0 for a carrier below ~5e-290 rad/s (underflow)
    _require_positive(photon_energy, "photon energy hbar*carrier")
    return math.sqrt(2.0 * kappa * power / photon_energy)


def cooperativity(g: float, photon_number: float, kappa: float, gamma_m: float) -> float:
    """Optomechanical cooperativity C = g^2 * n / (kappa * gamma_m)."""
    _require_non_negative(g, "g")
    _require_non_negative(photon_number, "photon_number")
    _require_positive(kappa, "kappa")
    _require_positive(gamma_m, "gamma_m")
    return g * g * photon_number / (kappa * gamma_m)


def critical_power(params: SystemParams) -> float:
    """Coupling power at which the transparency-window poles collide [W].

    P_cr = (hbar*omega_c1 / (4 g1^2 kappa1)) * (kappa1^2 + omega_m^2)
           * (gamma_m/2 - kappa1)^2

    Below this power the response poles of the single-coupling (C2 = 0)
    configuration are purely imaginary; above it they acquire real parts and
    the window splits into two normal modes.  Scales as 1/g1^2 and vanishes
    when gamma_m -> 2*kappa1 (zero pole splitting).  Infinite, the 1/g1^2
    limit, when 4 g1^2 kappa1 is 0 (g1 = 0, or g1^2 below the float range).
    ConvergenceError when a square of a rate leaves the float range.
    """
    k1 = params.kappa1
    try:
        rate = 4.0 * params.g1**2 * k1
        if rate == 0.0:
            return math.inf
        return HBAR * params.omega_c1 / rate * (k1**2 + params.omega_m**2) * (
            params.gamma_m / 2.0 - k1) ** 2
    except OverflowError:
        raise ConvergenceError("critical power out of range: a squared rate of g1, kappa1, "
                               "omega_m or gamma_m / 2 - kappa1 overflows") from None


def eit_width(c1: float, gamma_m: float) -> float:
    """Transparency-window half-width Gamma_EIT = (1 + C1) * gamma_m / 2.

    Reduces to the bare mechanical half-linewidth gamma_m/2 at C1 = 0;
    20.5*gamma_m at C1 = 40.
    """
    _require_non_negative(c1, "c1")
    _require_positive(gamma_m, "gamma_m")
    return (1.0 + c1) * gamma_m / 2.0
