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
from collections import namedtuple

from .errors import InvalidParameterError

HBAR = 1.054571817e-34  # J*s
TWO_PI = 2.0 * math.pi
HIERARCHY_FACTOR = 10.0  # ">>" of the rate hierarchy: a ratio of at least 10


def _require_positive(value: float, name: str) -> None:
    if not math.isfinite(value) or value <= 0.0:
        raise InvalidParameterError(f"{name} must be finite and > 0, got {value!r}")


def _require_non_negative(value: float, name: str) -> None:
    if not math.isfinite(value) or value < 0.0:
        raise InvalidParameterError(f"{name} must be finite and >= 0, got {value!r}")


# The supported-input envelope: input kind -> (low, high, unit).  The paper's regime (red-
# detuned tones, kappa1 >> gamma_m >> kappa2, cooperativities of order 1-100) lies well
# inside it, and inside it no working point, pole or response leaves the float range (a
# long time trace still can, and is refused by its own check).  A rate in rad/s is checked
# against 2 pi times its bounds in Hz.  A coupling rate g may also be 0; "x" is a probe
# offset from omega_m in units of gamma_m.
ENVELOPE = {
    "carrier": (1e6, 1e16, "Hz"),
    "omega_m": (1.0, 1e11, "Hz"),
    "gamma_m": (1e-3, 1e10, "Hz"),
    "kappa": (1e-3, 1e12, "Hz"),
    "g": (1e-6, 1e9, "Hz"),
    "delta": (-1e13, 1e13, "Hz"),
    "power": (0.0, 1e3, "W"),
    "c": (0.0, 1e9, ""),
    "c2_over_c1": (0.0, 1e6, ""),
    "x": (-1e9, 1e9, "gamma_m"),
}
# SystemParams field -> its ENVELOPE kind
PARAM_KINDS = {"omega_c1": "carrier", "omega_c2": "carrier", "delta_bare1": "delta",
               "delta_bare2": "delta", "omega_m": "omega_m", "gamma_m": "gamma_m",
               "kappa1": "kappa", "kappa2": "kappa", "g1": "g", "g2": "g"}


def within(value: float, name: str, kind: str, scale: float = 1.0) -> float:
    """``value``, checked against the envelope row ``kind`` after a scale of ``scale``.

    InvalidParameterError naming ``name`` with the value in the row's unit, ``value / scale``:
    a value that is not finite and > 0 (>= 0 in a row from 0, and for g), judged on ``value``,
    fails in the words of ``_require_positive`` (``_require_non_negative``); any other value
    outside its row fails with the supported range.
    """
    low, high, unit = ENVELOPE[kind]
    sign = ">= 0" if kind == "g" or low == 0.0 else "> 0" if low > 0.0 else None
    if sign and not (math.isfinite(value) and (value > 0.0 or sign == ">= 0" and value == 0.0)):
        raise InvalidParameterError(f"{name} must be finite and {sign}, got {value / scale!r}")
    if not (low * scale <= value <= high * scale or kind == "g" and value == 0.0):
        unit = f" {unit}" if unit else ""
        zero = ", or 0" if kind == "g" else ""
        raise InvalidParameterError(f"{name} = {value / scale:.12g}{unit} is outside the "
                                    f"supported range {low:g} to {high:g}{unit}{zero}")
    return value


class Checked:
    """Base of a checked record, ``class X(Checked, namedtuple("X", fields))``: runs
    ``_check`` on every new instance, those made by ``_make`` and ``_replace`` included.

    A subclass sets ``__slots__ = ()`` so that its instances stay immutable.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class SystemParams(Checked, namedtuple("SystemParams", "omega_c1 omega_c2 delta_bare1 delta_bare2 "
                                                      "omega_m gamma_m kappa1 kappa2 g1 g2")):
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

    __slots__ = ()

    def _check(self):
        for name, kind in PARAM_KINDS.items():
            within(getattr(self, name), name, kind, TWO_PI)

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


def rate_hierarchy(kappa1: float, gamma_m: float, kappa2: float) -> dict:
    """Whether kappa1 >> gamma_m >> kappa2 holds, with the two ratios.

    The narrow absorption peak needs a mechanical linewidth between the two cavity
    linewidths.  Ratios sitting exactly at HIERARCHY_FACTOR count as satisfied (a small
    relative slack absorbs the rounding of e.g. a ratio of exactly 10).
    """
    r1 = kappa1 / gamma_m
    r2 = gamma_m / kappa2
    cut = HIERARCHY_FACTOR * (1.0 - 1e-9)
    return {
        "kappa1_over_gamma_m": r1,
        "gamma_m_over_kappa2": r2,
        "satisfied": r1 >= cut and r2 >= cut,
    }


def default_params() -> SystemParams:
    """Experimentally realizable reference set (``REFERENCE_HZ``) used by all built-in
    scenarios; both coupling tones detuned omega_m below their cavity."""
    return SystemParams.from_hz(**REFERENCE_HZ)


class DriveConfig(Checked, namedtuple("DriveConfig", "p_c1 p_c2")):
    """Input powers of the two coupling tones [W], each inside the envelope's power row.

    The probe needs no power: the linear response is normalized per unit
    probe amplitude.
    """

    __slots__ = ()

    def _check(self):
        within(self.p_c1, "p_c1", "power")
        within(self.p_c2, "p_c2", "power")

    @classmethod
    def _inverted(cls, p_c1: float, p_c2: float) -> "DriveConfig":
        """Powers that an inversion derived: finite and >= 0, but not bounded by the power
        row, which bounds the powers a caller gives.  Inside the envelope a target may need
        far more than 1e3 W, and the power it needs stays finite."""
        _require_non_negative(p_c1, "p_c1")
        _require_non_negative(p_c2, "p_c2")
        return tuple.__new__(cls, (p_c1, p_c2))


def drive_amplitude(power: float, carrier: float, kappa: float) -> float:
    """Intracavity drive amplitude sqrt(2*kappa*P/(hbar*omega_c)) [sqrt(photons)/s].

    Monotone square-root law in power: quadrupling the power doubles the
    amplitude.
    """
    _require_non_negative(power, "power")
    _require_positive(kappa, "kappa")
    within(carrier, "carrier", "carrier", TWO_PI)
    return math.sqrt(2.0 * kappa * power / (HBAR * carrier))


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
    limit, at g1 = 0.
    """
    k1 = params.kappa1
    if params.g1 == 0.0:
        return math.inf
    return HBAR * params.omega_c1 / (4.0 * params.g1**2 * k1) * (k1**2 + params.omega_m**2) * (
        params.gamma_m / 2.0 - k1) ** 2


def eit_width(c1: float, gamma_m: float) -> float:
    """Transparency-window half-width Gamma_EIT = (1 + C1) * gamma_m / 2.

    Reduces to the bare mechanical half-linewidth gamma_m/2 at C1 = 0;
    20.5*gamma_m at C1 = 40.
    """
    _require_non_negative(c1, "c1")
    _require_positive(gamma_m, "gamma_m")
    return (1.0 + c1) * gamma_m / 2.0


def off_resonance(params: SystemParams, delta1: float, delta2: float) -> dict[int, float]:
    """(Delta_i - omega_m) / kappa_i of each cavity i whose detuning misses omega_m by more
    than 0.1 kappa_i: off the two-photon resonance Delta1 = Delta2 = omega_m that the closed
    forms (``analytic``) and the pole table assume.  Empty when both cavities are on it."""
    offsets = {1: (delta1 - params.omega_m) / params.kappa1,
               2: (delta2 - params.omega_m) / params.kappa2}
    return {i: offset for i, offset in offsets.items() if abs(offset) > 0.1}
