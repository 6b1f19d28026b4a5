import numpy as np
import pytest

import oemsim as om
from oemsim.cli import invert_cooperativity
from oemsim.linear_response import _solve_grid, probe_outputs, response_grid


@pytest.fixture(scope="module")
def drives_c40_only(params):
    return invert_cooperativity(params, 40.0, 0.0)[0]


def test_empty_cavity_lorentzian():
    p = om.SystemParams.from_hz(
        omega_c1=4e14, omega_c2=1e10, omega_m=1e7, gamma_m=1e3,
        kappa1=1e6, kappa2=1e2, g1=0.0, g2=0.0,
    )
    wp = om.solve_working_point(p, om.DriveConfig(0.0, 0.0))
    deltas = p.omega_m + np.array([0.0, 0.3, -2.0]) * p.kappa1
    for model in ("full", "rwa"):
        sol = _solve_grid(wp, p, deltas, model)
        expected = 1.0 / (p.kappa1 + 1j * (wp.delta1 - deltas))
        assert sol.a1_plus == pytest.approx(expected, rel=1e-12)
        assert np.all(sol.a2_plus == 0) and np.all(sol.q_plus == 0)


def test_eit_dip_depth(params, drives_c40_only):
    wp = om.solve_working_point(params, drives_c40_only)
    resp = response_grid(wp, params, params.omega_m, "rwa")
    assert resp.e_l == pytest.approx(2.0 / 41.0, rel=1e-10)


def test_eia_peak_value(params, wp_c40):
    resp = response_grid(wp_c40, params, params.omega_m, "rwa")
    assert resp.e_l == pytest.approx(82.0 / 81.0, rel=1e-10)


def random_deltas(params, seed, n=200):
    rng = np.random.default_rng(seed)
    return params.omega_m + rng.uniform(-30 * params.gamma_m, 30 * params.gamma_m, n)


def test_rwa_matches_closed_form_elimination(params, wp_c40):
    deltas = random_deltas(params, 3)
    a = _solve_grid(wp_c40, params, deltas, "rwa")
    b = _solve_grid(wp_c40, params, deltas, "analytic")
    for name in ("a1_plus", "a2_plus", "q_plus"):
        assert getattr(a, name) == pytest.approx(getattr(b, name), rel=1e-10), name


def test_rwa_matches_nested_fraction(params, wp_c40):
    coeffs = om.RwaCoefficients.from_working_point(wp_c40, params)
    deltas = random_deltas(params, 11)
    resp = response_grid(wp_c40, params, deltas, "rwa")
    assert resp.e_l == pytest.approx(om.response_rwa(deltas - params.omega_m, coeffs), rel=1e-10)


def test_resubstitution_residuals(params, wp_c40):
    deltas = params.omega_m + np.linspace(-20, 20, 9) * params.gamma_m
    for model in ("rwa", "full"):
        assert np.all(_solve_grid(wp_c40, params, deltas, model).residual < 1e-10)


def test_reality_symmetry(params, wp_c40):
    # at Delta_1 = Delta_2 = omega_m the reduced model has E_L(-x) = conj(E_L(x))
    xs = np.array([0.13, 2.7, 19.0]) * params.gamma_m
    plus = response_grid(wp_c40, params, params.omega_m + xs, "rwa").e_l
    minus = response_grid(wp_c40, params, params.omega_m - xs, "rwa").e_l
    assert minus == pytest.approx(np.conj(plus), rel=1e-12)


def test_flux_conservation_rwa(params, wp_c40):
    deltas = params.omega_m + np.linspace(-30, 30, 121) * params.gamma_m
    resp = response_grid(wp_c40, params, deltas, "rwa")
    assert np.max(np.abs(resp.flux_budget - 1.0)) < 1e-9
    assert resp.lower_sideband_flux1 == 0.0 and resp.lower_sideband_flux2 == 0.0


def test_flux_budget_full_model(params, wp_c40):
    deltas = params.omega_m + np.linspace(-30, 30, 61) * params.gamma_m
    budget = response_grid(wp_c40, params, deltas, "full").flux_budget
    assert np.all((0.98 < budget) & (budget < 1.02))


def test_probe_outputs_empty_cavity_reflection():
    p = om.SystemParams.from_hz(
        omega_c1=4e14, omega_c2=1e10, omega_m=1e7, gamma_m=1e3,
        kappa1=1e6, kappa2=1e2, g1=0.0, g2=0.0,
    )
    wp = om.solve_working_point(p, om.DriveConfig(0.0, 0.0))
    resp = probe_outputs(_solve_grid(wp, p, p.omega_m, "rwa"), p)
    assert resp.e_l == pytest.approx(2.0, rel=1e-12)
    assert resp.reflect_flux == pytest.approx(1.0, rel=1e-12)
    assert resp.transmit_flux == 0.0


def test_line_center_routing(params, wp_c40, drives_c40_only):
    on = response_grid(wp_c40, params, params.omega_m, "rwa")
    assert on.reflect_flux == pytest.approx((1.0 / 81.0) ** 2, rel=1e-9)
    assert on.transmit_flux == pytest.approx(6400.0 / 6561.0, rel=1e-9)
    wp_off = om.solve_working_point(params, drives_c40_only)
    off = response_grid(wp_off, params, params.omega_m, "rwa")
    assert off.transmit_flux == 0.0
    assert off.reflect_flux == pytest.approx((39.0 / 41.0) ** 2, rel=1e-9)


def sweep(params, drives, x_min, x_max, n_points, model):
    """Probe spectrum on a uniform x grid through the whole-grid kernel, as a CLI sweep does;
    returns the grid and its response."""
    wp = om.solve_working_point(params, drives)
    xs = np.linspace(x_min, x_max, n_points)
    return xs, response_grid(wp, params, params.omega_m + xs, model)


def test_sweep_two_points_are_endpoints(params, drives_c40):
    x_lo, x_hi = -5 * params.gamma_m, 5 * params.gamma_m
    _, grid = sweep(params, drives_c40, x_lo, x_hi, 2, "rwa")
    wp = om.solve_working_point(params, drives_c40)
    ends = [response_grid(wp, params, params.omega_m + x, "rwa").e_l for x in (x_lo, x_hi)]
    assert grid.e_l.shape == (2,)
    assert grid.e_l == pytest.approx(ends, rel=1e-15)


def test_sweep_broadband_transparency_window(params, drives_c40_only):
    # single coupling tone: narrow transparency at center of a broad absorption profile
    xs, grid = sweep(params, drives_c40_only, -3 * params.kappa1, 3 * params.kappa1, 301, "full")
    re_el = grid.e_l.real
    center = np.argmin(np.abs(xs))
    assert re_el[center] < 0.1
    assert re_el.max() > 1.5


def test_sweep_narrow_peak_inside_window(params, drives_c40):
    xs, grid = sweep(params, drives_c40, -30 * params.gamma_m, 30 * params.gamma_m, 601, "rwa")
    re_el = grid.e_l.real
    xs = xs / params.gamma_m
    center = np.argmin(np.abs(xs))
    shoulder = np.argmin(np.abs(xs - 5.0))
    assert re_el[center] > 1.0
    assert re_el[center] > re_el[shoulder] + 0.5
