import numpy as np
import pytest

import oemsim as om
from oemsim.cli import invert_cooperativity
from oemsim.linear_response import (
    probe_outputs,
    response_grid,
    solve_sidebands,
    solve_sidebands_closed_form,
)


def el_of(sol, params):
    return 2.0 * params.kappa1 * sol.a1_plus


@pytest.fixture(scope="module")
def drives_c40_only(params):
    return invert_cooperativity(params, 40.0, 0.0)[0]


def test_empty_cavity_lorentzian():
    p = om.SystemParams.from_hz(
        omega_c1=4e14, omega_c2=1e10, omega_m=1e7, gamma_m=1e3,
        kappa1=1e6, kappa2=1e2, g1=0.0, g2=0.0,
    )
    wp = om.solve_working_point(p, om.DriveConfig(0.0, 0.0))
    for rwa in (False, True):
        for x in (0.0, 0.3 * p.kappa1, -2.0 * p.kappa1):
            sol = solve_sidebands(wp, p, p.omega_m + x, rwa=rwa)
            expected = 1.0 / (p.kappa1 + 1j * (wp.delta1 - (p.omega_m + x)))
            assert sol.a1_plus == pytest.approx(expected, rel=1e-12)
            assert sol.a2_plus == 0 and sol.q_plus == 0


def test_eit_dip_depth(params, drives_c40_only):
    wp = om.solve_working_point(params, drives_c40_only)
    sol = solve_sidebands(wp, params, params.omega_m, rwa=True)
    assert el_of(sol, params) == pytest.approx(2.0 / 41.0, rel=1e-10)


def test_eia_peak_value(params, wp_c40):
    sol = solve_sidebands(wp_c40, params, params.omega_m, rwa=True)
    assert el_of(sol, params) == pytest.approx(82.0 / 81.0, rel=1e-10)


def test_rwa_matches_closed_form_elimination(params, wp_c40):
    rng = np.random.default_rng(3)
    for x in rng.uniform(-30 * params.gamma_m, 30 * params.gamma_m, 200):
        delta = params.omega_m + x
        a = solve_sidebands(wp_c40, params, delta, rwa=True)
        b = solve_sidebands_closed_form(wp_c40, params, delta)
        assert a.a1_plus == pytest.approx(b.a1_plus, rel=1e-10)
        assert a.a2_plus == pytest.approx(b.a2_plus, rel=1e-10)
        assert a.q_plus == pytest.approx(b.q_plus, rel=1e-10)


def test_rwa_matches_nested_fraction(params, wp_c40):
    coeffs = om.RwaCoefficients.from_working_point(wp_c40, params)
    rng = np.random.default_rng(11)
    for x in rng.uniform(-30 * params.gamma_m, 30 * params.gamma_m, 200):
        sol = solve_sidebands(wp_c40, params, params.omega_m + x, rwa=True)
        assert el_of(sol, params) == pytest.approx(om.response_rwa(x, coeffs), rel=1e-10)


def test_resubstitution_residuals(params, wp_c40):
    for rwa in (True, False):
        for x in np.linspace(-20, 20, 9) * params.gamma_m:
            sol = solve_sidebands(wp_c40, params, params.omega_m + x, rwa=rwa)
            assert sol.residual < 1e-10


def test_reality_symmetry(params, wp_c40):
    # at Delta_1 = Delta_2 = omega_m the reduced model has E_L(-x) = conj(E_L(x))
    for x in (0.13, 2.7, 19.0):
        xr = x * params.gamma_m
        plus = el_of(solve_sidebands(wp_c40, params, params.omega_m + xr, rwa=True), params)
        minus = el_of(solve_sidebands(wp_c40, params, params.omega_m - xr, rwa=True), params)
        assert minus == pytest.approx(np.conj(plus), rel=1e-12)


def test_flux_conservation_rwa(params, wp_c40):
    for x in np.linspace(-30, 30, 121) * params.gamma_m:
        sol = solve_sidebands(wp_c40, params, params.omega_m + x, rwa=True)
        resp = probe_outputs(sol, wp_c40, params)
        assert abs(resp.flux_budget - 1.0) < 1e-9
        assert resp.lower_sideband_flux1 == 0.0 and resp.lower_sideband_flux2 == 0.0


def test_flux_budget_full_model(params, wp_c40):
    for x in np.linspace(-30, 30, 61) * params.gamma_m:
        sol = solve_sidebands(wp_c40, params, params.omega_m + x, rwa=False)
        resp = probe_outputs(sol, wp_c40, params)
        assert 0.98 < resp.flux_budget < 1.02


def test_probe_outputs_empty_cavity_reflection():
    p = om.SystemParams.from_hz(
        omega_c1=4e14, omega_c2=1e10, omega_m=1e7, gamma_m=1e3,
        kappa1=1e6, kappa2=1e2, g1=0.0, g2=0.0,
    )
    wp = om.solve_working_point(p, om.DriveConfig(0.0, 0.0))
    resp = probe_outputs(solve_sidebands(wp, p, p.omega_m, rwa=True), wp, p)
    assert resp.e_l == pytest.approx(2.0, rel=1e-12)
    assert resp.reflect_flux == pytest.approx(1.0, rel=1e-12)
    assert resp.transmit_flux == 0.0


def test_line_center_routing(params, wp_c40, drives_c40_only):
    on = probe_outputs(solve_sidebands(wp_c40, params, params.omega_m, rwa=True), wp_c40, params)
    assert on.reflect_flux == pytest.approx((1.0 / 81.0) ** 2, rel=1e-9)
    assert on.transmit_flux == pytest.approx(6400.0 / 6561.0, rel=1e-9)
    wp_off = om.solve_working_point(params, drives_c40_only)
    off = probe_outputs(solve_sidebands(wp_off, params, params.omega_m, rwa=True), wp_off, params)
    assert off.transmit_flux == 0.0
    assert off.reflect_flux == pytest.approx((39.0 / 41.0) ** 2, rel=1e-9)


def test_transduced_frequency_bookkeeping(params, wp_c40):
    x = 3.7 * params.gamma_m
    sol = solve_sidebands(wp_c40, params, params.omega_m + x, rwa=False)
    resp = probe_outputs(sol, wp_c40, params)
    # omega_c2 + (omega_p - omega_c1) with omega_p = omega_c1 + delta
    assert resp.transduced_frequency == params.omega_c2 + sol.delta


def sweep(params, drives, x_min, x_max, n_points, model):
    """Probe spectrum on a uniform x grid through the whole-grid kernel, as a CLI sweep does."""
    wp = om.solve_working_point(params, drives)
    return response_grid(wp, params, params.omega_m + np.linspace(x_min, x_max, n_points), model)


def test_sweep_two_points_are_endpoints(params, drives_c40):
    grid = sweep(params, drives_c40, -5 * params.gamma_m, 5 * params.gamma_m, 2, "rwa")
    assert len(grid.x) == 2
    assert grid.x[0] == pytest.approx(-5 * params.gamma_m)
    assert grid.x[1] == pytest.approx(5 * params.gamma_m)


def test_sweep_broadband_transparency_window(params, drives_c40_only):
    # single coupling tone: narrow transparency at center of a broad absorption profile
    grid = sweep(params, drives_c40_only, -3 * params.kappa1, 3 * params.kappa1, 301, "full")
    re_el = grid.e_l.real
    center = np.argmin(np.abs(grid.x))
    assert re_el[center] < 0.1
    assert re_el.max() > 1.5


def test_sweep_narrow_peak_inside_window(params, drives_c40):
    grid = sweep(params, drives_c40, -30 * params.gamma_m, 30 * params.gamma_m, 601, "rwa")
    re_el = grid.e_l.real
    xs = grid.x / params.gamma_m
    center = np.argmin(np.abs(xs))
    shoulder = np.argmin(np.abs(xs - 5.0))
    assert re_el[center] > 1.0
    assert re_el[center] > re_el[shoulder] + 0.5
    assert np.all(np.diff(xs) > 0)
