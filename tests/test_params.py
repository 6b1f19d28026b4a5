import math

import numpy as np
import pytest

import oemsim as om
from oemsim.params import HBAR, TWO_PI


def test_drive_amplitude_zero_power():
    assert om.drive_amplitude(0.0, TWO_PI * 4e14, TWO_PI * 1e6) == 0.0


def test_drive_amplitude_square_root_law():
    carrier, kappa = TWO_PI * 4e14, TWO_PI * 1e6
    base = om.drive_amplitude(2e-3, carrier, kappa)
    assert om.drive_amplitude(8e-3, carrier, kappa) == pytest.approx(2.0 * base, rel=1e-12)


def test_drive_amplitude_reference_value():
    # independent arithmetic: sqrt(2*kappa*P/(hbar*omega)) at 1.3 mW
    carrier, kappa = TWO_PI * 4e14, TWO_PI * 1e6
    oracle = math.sqrt(2.0 * kappa * 1.3e-3 / (HBAR * carrier))
    amp = om.drive_amplitude(1.3e-3, carrier, kappa)
    assert amp == pytest.approx(oracle, rel=1e-12)
    assert amp == pytest.approx(2.482667722306e11, rel=1e-9)


def test_drive_amplitude_power_round_trip():
    carrier, kappa = TWO_PI * 4e14, TWO_PI * 1e6
    for power in (1e-9, 3.3e-6, 1.3e-3, 0.5):
        amp = om.drive_amplitude(power, carrier, kappa)
        assert amp**2 * HBAR * carrier / (2.0 * kappa) == pytest.approx(power, rel=1e-12)


def test_drive_amplitude_rejects_bad_rates():
    with pytest.raises(om.InvalidParameterError):
        om.drive_amplitude(1e-3, 0.0, TWO_PI * 1e6)
    with pytest.raises(om.InvalidParameterError):
        om.drive_amplitude(1e-3, TWO_PI * 4e14, -1.0)
    with pytest.raises(om.InvalidParameterError):
        om.drive_amplitude(-1e-3, TWO_PI * 4e14, TWO_PI * 1e6)


def test_cooperativity_zero_photons(params):
    assert om.cooperativity(params.g1, 0.0, params.kappa1, params.gamma_m) == 0.0


def test_cooperativity_scaling_invariance(params):
    base = om.cooperativity(params.g1, 1.5e7, params.kappa1, params.gamma_m)
    for s in (0.1, 3.0, 250.0):
        scaled = om.cooperativity(s * params.g1, 1.5e7 / s**2, params.kappa1, params.gamma_m)
        assert scaled == pytest.approx(base, rel=1e-12)


def test_critical_power_reference(params):
    pcr = om.critical_power(params)
    assert pcr == pytest.approx(16.6e-3, rel=0.03)


def test_critical_power_inverse_square_in_g1(params):
    doubled = om.SystemParams.from_hz(
        omega_c1=4e14, omega_c2=1e10, omega_m=1e7, gamma_m=1e3,
        kappa1=1e6, kappa2=1e2, g1=100.0, g2=5.0,
    )
    assert om.critical_power(doubled) == pytest.approx(om.critical_power(params) / 4.0, rel=1e-12)


def test_critical_power_vanishes_at_rate_degeneracy():
    # gamma_m/2 == kappa1 collapses the pole splitting entirely
    p = om.SystemParams.from_hz(
        omega_c1=4e14, omega_c2=1e10, omega_m=1e7, gamma_m=2e6,
        kappa1=1e6, kappa2=1e2, g1=50.0, g2=5.0,
    )
    assert om.critical_power(p) == 0.0


def test_critical_power_limits_out_of_float_range():
    # 4 g1^2 kappa1 of 0 is the 1/g1^2 limit; a square that overflows has no float answer
    def with_hz(**hz):
        return om.SystemParams.from_hz(**{**om.params.REFERENCE_HZ, **hz})

    assert om.critical_power(with_hz(g1=0.0)) == math.inf
    assert om.critical_power(with_hz(g1=1e-170)) == math.inf
    for hz in ({"omega_m": 1e300}, {"g1": 1e300}):
        with pytest.raises(om.ConvergenceError, match="critical power out of range"):
            om.critical_power(with_hz(**hz))


def test_eit_width_values(params):
    gm = params.gamma_m
    assert om.eit_width(0.0, gm) == gm / 2.0
    assert om.eit_width(40.0, gm) == 20.5 * gm
    assert om.eit_width(80.0, gm) == 40.5 * gm


def test_pure_functions_bit_identical(params):
    assert om.critical_power(params) == om.critical_power(params)
    assert om.eit_width(40.0, params.gamma_m) == om.eit_width(40.0, params.gamma_m)


def test_sideband_resolution(params):
    assert params.sideband_resolution == pytest.approx(10.0, rel=1e-12)


def test_system_params_validation():
    with pytest.raises(om.InvalidParameterError):
        om.SystemParams.from_hz(
            omega_c1=4e14, omega_c2=1e10, omega_m=-1e7, gamma_m=1e3,
            kappa1=1e6, kappa2=1e2, g1=50.0, g2=5.0,
        )
    with pytest.raises(om.InvalidParameterError):
        om.SystemParams.from_hz(
            omega_c1=4e14, omega_c2=1e10, omega_m=1e7, gamma_m=1e3,
            kappa1=0.0, kappa2=1e2, g1=50.0, g2=5.0,
        )


CHECKED = {  # record: (a valid instance, one field and a value its check refuses, message)
    "SystemParams": (om.default_params(), "kappa1", 0.0, "kappa1 must be finite and > 0"),
    "DriveConfig": (om.DriveConfig(1e-3, 0.0), "p_c2", -1.0, "p_c2 must be finite and >= 0"),
    "RwaCoefficients": (om.RwaCoefficients(1.0, 1.0, 1.0, 0.0, 0.0), "s1", math.nan,
                        "s1 must be finite and >= 0"),
    "OscillatorModel": (om.OscillatorModel(5.0, 5.0, 5.0, 2.0, 3.0, 1.0, 0.5, 0.0),
                        "gamma_m_half", 0.0, "gamma_m_half must be finite and > 0"),
    "Trajectory": (om.Trajectory(np.array([0.0, 1.0]), np.zeros((2, 3), complex)), "times",
                   np.array([1.0, 1.0]), "trajectory time grid must be strictly increasing"),
}


@pytest.mark.parametrize("name", sorted(CHECKED))
def test_checked_record_checks_every_construction(name):
    """Keyword, positional, ``_replace`` and ``_make`` construction all run the checks;
    instances compare by value and take no attribute assignment."""
    record, field, bad, message = CHECKED[name]
    cls = type(record)
    assert cls.__name__ == name
    values = {**record._asdict(), field: bad}
    for build in (lambda: cls(**values), lambda: cls(*values.values()),
                  lambda: record._replace(**{field: bad}), lambda: cls._make(values.values())):
        with pytest.raises(om.InvalidParameterError, match=message):
            build()
    if name != "Trajectory":  # arrays have no truth value to compare by
        assert cls(**record._asdict()) == record
    for attr in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, attr, bad)
