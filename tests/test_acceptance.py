"""Acceptance gate: every exit criterion at its stated tolerance.

Each test prints one PASS line once its assertions hold; run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion report.
All tests run on the reference parameter set at desk scale (< 1 min total).
"""

import numpy as np
import pytest

import oemsim as om
from oemsim import cli


def report(num, text):
    print(f"[acceptance] criterion {num:02d} PASS - {text}")


def refine_peak(fun, x_lo, x_hi, n=801):
    """Grid argmax plus one parabolic refinement step; ``fun`` takes the whole grid."""
    xs = np.linspace(x_lo, x_hi, n)
    vals = fun(xs)
    i = int(np.clip(vals.argmax(), 1, n - 2))
    y0, y1, y2 = vals[i - 1], vals[i], vals[i + 1]
    denom = y0 - 2.0 * y1 + y2
    x_pk = xs[i] if denom == 0 else xs[i] - 0.5 * (xs[i + 1] - xs[i]) * (y2 - y0) / denom
    return x_pk, fun(x_pk)


def re_el(wp, params, x, model):
    return om.response_grid(wp, params, params.omega_m + x, model).e_l.real


def test_criterion_01_critical_power(params):
    pcr = om.critical_power(params)
    assert pcr == pytest.approx(16.6e-3, rel=0.03)
    report(1, f"P_cr = {pcr * 1e3:.3f} mW, within 3% of 16.6 mW")


def test_criterion_02_cooperativity_power_mapping(params):
    drives, _ = cli.invert_cooperativity(params, 40.0, 40.0)
    p1, p2 = drives.p_c1, drives.p_c2
    assert p1 == pytest.approx(1.3e-3, rel=0.05)
    assert p2 == pytest.approx(3.3e-6, rel=0.05)
    report(2, f"C1=40 at {p1 * 1e3:.3f} mW, C2=40 at {p2 * 1e6:.3f} uW (5% of 1.3 mW / 3.3 uW)")


def test_criterion_03_eit_width(params):
    gamma_eit = om.eit_width(40.0, params.gamma_m)
    assert gamma_eit == 20.5 * params.gamma_m
    report(3, "Gamma_EIT = 20.5*gamma_m exactly at C1 = 40")


def test_criterion_04_eia_peak_height(params, wp_c40):
    x_pk, height = refine_peak(
        lambda x: re_el(wp_c40, params, x, "rwa"),
        -0.5 * params.gamma_m, 0.5 * params.gamma_m, 401,
    )
    assert abs(x_pk) < 0.05 * params.gamma_m
    assert height == pytest.approx(82.0 / 81.0, abs=1e-6)
    approx = om.peak_height(40.0, 40.0).large_c_approx
    assert approx == pytest.approx(height, rel=0.015)
    report(4, f"peak at x = {x_pk / params.gamma_m:.2e} gamma_m, height {height:.9f} "
              f"(82/81 to 1e-6; large-C estimate within 1.5%)")


def test_criterion_05_eia_half_width(params, wp_c40):
    coeffs = om.RwaCoefficients.from_working_point(wp_c40, params)
    narrow = om.denominator_roots(coeffs).widths[0]
    predicted = params.kappa2 * (1.0 + 40.0 / 41.0)
    assert narrow == pytest.approx(predicted, rel=0.02)
    report(5, f"narrow pole width {narrow / params.kappa2:.4f} kappa2 vs "
              f"{predicted / params.kappa2:.4f} kappa2 (2%)")


def test_criterion_06_root_structure(params):
    p_c1 = cli.invert_cooperativity(params, 40.0, 0.0)[0].p_c1
    assert p_c1 < om.critical_power(params)
    ratios = np.linspace(0.0, 1.0, 201)
    k1, k2, g = params.kappa1, params.kappa2, params.gamma_m
    traj = om.root_trajectories(k1, k2, g, 40.0 * k1 * g / 2.0, 40.0 * ratios * k2 * g / 2.0)
    assert np.all(np.abs(traj.real) <= 1e-6 * np.abs(traj.imag))
    steps = np.abs(np.diff(traj, axis=0)) / np.abs(traj[:-1])
    assert steps.max() < 0.01
    report(6, f"201-point trajectories purely imaginary, max matched step "
              f"{steps.max() * 100:.2f}% < 1%")


def test_criterion_07_oracle_equivalence(params, wp_c40):
    coeffs = om.RwaCoefficients.from_working_point(wp_c40, params)
    model = om.from_working_point(wp_c40, params)
    xs = np.random.default_rng(2024).uniform(-30 * params.gamma_m, 30 * params.gamma_m, 1000)
    reference = om.response_rwa(xs, coeffs)
    solver = om.response_grid(wp_c40, params, params.omega_m + xs, "rwa").e_l
    worst_solver = np.max(np.abs(solver - reference) / np.abs(reference))
    u = np.array([om.harmonic_steady_state(model, params.omega_m + x)[0] for x in xs])
    worst_osc = np.max(np.abs(2.0 * params.kappa1 * u - reference) / np.abs(reference))
    assert worst_solver < 1e-10
    assert worst_osc < 1e-10
    report(7, f"1000 random x: solver {worst_solver:.2e}, oscillator {worst_osc:.2e} (< 1e-10)")


def test_criterion_08_flux_conservation(params, wp_c40):
    deltas = params.omega_m + np.linspace(-30.0, 30.0, 1201) * params.gamma_m
    rwa = om.response_grid(wp_c40, params, deltas, "rwa").flux_budget
    worst_rwa = np.max(np.abs(rwa - 1.0))
    full = om.response_grid(wp_c40, params, deltas, "full").flux_budget
    budget_lo, budget_hi = full.min(), full.max()
    assert worst_rwa < 1e-9
    assert 0.98 <= budget_lo and budget_hi <= 1.02
    report(8, f"rwa |budget-1| <= {worst_rwa:.1e}; full budget in "
              f"[{budget_lo:.4f}, {budget_hi:.4f}]")


def test_criterion_09_switching(params, wp_c40, drives_c40):
    on = om.response_grid(wp_c40, params, params.omega_m, "rwa")
    transmit_expect = 4.0 * 40.0 * 40.0 / 81.0**2
    reflect_expect = (1.0 / 81.0) ** 2
    assert on.transmit_flux == pytest.approx(transmit_expect, abs=1e-3)
    assert on.reflect_flux == pytest.approx(reflect_expect, abs=1e-3)

    wp_off = om.solve_working_point(params, om.DriveConfig(p_c1=drives_c40.p_c1, p_c2=0.0))
    off = om.response_grid(wp_off, params, params.omega_m, "rwa")
    ratio_tr = on.transmit_flux / on.reflect_flux
    ratio_off_on = off.reflect_flux / on.reflect_flux
    assert ratio_tr >= 1e3
    assert ratio_off_on >= 1e3
    assert ratio_tr == pytest.approx(6400.0, rel=1e-6)
    assert ratio_off_on == pytest.approx(5936.5, rel=1e-3)
    report(9, f"transmit {on.transmit_flux:.4f}, reflect {on.reflect_flux:.3e}; switching "
              f"ratios {ratio_tr:.0f} and {ratio_off_on:.0f} (both >= 1e3)")


def test_criterion_10_dark_mode_trend(params):
    p_c1 = cli.invert_cooperativity(params, 40.0, 0.0)[0].p_c1
    intensities = []
    for ratio in np.linspace(0.0, 1.0, 21):
        _, wp = cli.invert_cooperativity(params, None, 40.0 * ratio, p_c1=p_c1)
        intensities.append(om.response_grid(wp, params, params.omega_m, "rwa").mech_intensity)
    intensities = np.array(intensities)
    assert np.all(np.diff(intensities) < 0)
    suppression = intensities[-1] / intensities[0]
    assert suppression == pytest.approx((41.0 / 81.0) ** 2, rel=0.01)
    report(10, f"mech intensity strictly decreasing; C2=C1 value {suppression:.4f} "
               f"of C2=0 ((41/81)^2 = {(41 / 81) ** 2:.4f}, 1%)")


def test_criterion_11_full_model_peak_shift(params, wp_c40):
    gm = params.gamma_m
    x_full, h_full = refine_peak(lambda x: re_el(wp_c40, params, x, "full"),
                                 -3.0 * gm, 3.0 * gm, 1201)
    x_rwa, h_rwa = refine_peak(lambda x: re_el(wp_c40, params, x, "rwa"),
                               -3.0 * gm, 3.0 * gm, 1201)
    assert abs(x_full) < 2.0 * gm
    assert h_full == pytest.approx(h_rwa, rel=0.05)
    assert abs(x_rwa) < 0.05 * gm
    report(11, f"full-model peak at {x_full / gm:+.3f} gamma_m (|x| < 2 gamma_m), height "
               f"{h_full:.6f} vs rwa {h_rwa:.6f} (5%); rwa peak at {x_rwa / gm:+.1e} gamma_m")


def test_criterion_12_time_domain_settling(scaled_model):
    t_final = 10.0 / scaled_model.kappa2
    delta = scaled_model.omega_m
    steady = np.array(om.harmonic_steady_state(scaled_model, delta))
    target = steady * np.exp(-1j * delta * t_final)
    scale = np.abs(target).max()
    errors = {}
    for method, kwargs in (("exact_propagator", {}), ("rk4", {"dt": 2e-4})):
        traj = om.propagate(scaled_model, 1.0, delta, t_final, method=method,
                            n_samples=11, **kwargs)
        errors[method] = np.abs(traj.states[-1] - target).max() / scale
        assert errors[method] < 1e-6
    report(12, f"settling at t = 10/kappa2: exact {errors['exact_propagator']:.1e}, "
               f"rk4 {errors['rk4']:.1e} (both < 1e-6)")
