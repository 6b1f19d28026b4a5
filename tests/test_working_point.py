import numpy as np
import pytest

import oemsim as om
from oemsim import working_point as wpmod


def residuals(wp, params, drives):
    """Self-consistency and force-balance residuals, both relative."""
    e1 = om.drive_amplitude(drives.p_c1, params.omega_c1, params.kappa1)
    e2 = om.drive_amplitude(drives.p_c2, params.omega_c2, params.kappa2)
    r1 = abs(wp.a10 * (params.kappa1 + 1j * wp.delta1) - e1) / max(e1, 1.0)
    r2 = abs(wp.a20 * (params.kappa2 + 1j * wp.delta2) - e2) / max(e2, 1.0)
    scale = params.omega_m * abs(wp.q0) + params.g1 * wp.n1 + params.g2 * wp.n2 + 1.0
    rf = abs(params.omega_m * wp.q0 - params.g1 * wp.n1 + params.g2 * wp.n2) / scale
    return r1, r2, rf


def test_undriven_is_zero(params):
    for mode in ("effective", "bare"):
        wp = om.solve_working_point(params, om.DriveConfig(0.0, 0.0), detuning_mode=mode)
        assert wp.a10 == 0 and wp.a20 == 0
        assert wp.q0 == 0.0
        assert not wp.multiple_roots


def test_zero_coupling_gives_exact_lorentzians():
    p = om.SystemParams.from_hz(
        omega_c1=4e14, omega_c2=1e10, omega_m=1e7, gamma_m=1e3,
        kappa1=1e6, kappa2=1e2, g1=0.0, g2=0.0,
    )
    d = om.DriveConfig(p_c1=1.3e-3, p_c2=3.3e-6)
    for mode in ("effective", "bare"):
        wp = om.solve_working_point(p, d, detuning_mode=mode)
        e1 = om.drive_amplitude(d.p_c1, p.omega_c1, p.kappa1)
        e2 = om.drive_amplitude(d.p_c2, p.omega_c2, p.kappa2)
        assert wp.a10 == pytest.approx(e1 / (p.kappa1 + 1j * p.delta_bare1), rel=1e-14)
        assert wp.a20 == pytest.approx(e2 / (p.kappa2 + 1j * p.delta_bare2), rel=1e-14)
        assert wp.q0 == 0.0


def test_effective_mode_reference_numbers(params):
    # n_i = E_ci^2/(kappa_i^2 + omega_m^2) with the detunings pinned at omega_m
    wp = om.solve_working_point(params, om.DriveConfig(p_c1=1.3e-3, p_c2=3.3e-6))
    assert wp.delta1 == params.omega_m and wp.delta2 == params.omega_m
    assert wp.n1 == pytest.approx(1.545809903435e7, rel=1e-9)
    assert wp.n2 == pytest.approx(1.585287510041e5, rel=1e-9)
    assert params.g1 * wp.q0 == pytest.approx(2.43e4, rel=0.01)
    assert params.g1 * wp.q0 < 0.005 * params.kappa1  # negligible static shift
    assert residuals(wp, params, om.DriveConfig(p_c1=1.3e-3, p_c2=3.3e-6))[2] < 1e-12


def test_bare_mode_invariants(params):
    d = om.DriveConfig(p_c1=1.3e-3, p_c2=3.3e-6)
    wp = om.solve_working_point(params, d, detuning_mode="bare")
    r1, r2, rf = residuals(wp, params, d)
    assert max(r1, r2, rf) < 1e-10
    # spring shift pulls the effective detuning slightly below omega_m
    assert 0.999 < wp.delta1 / params.omega_m < 1.0


def test_power_continuity(params):
    d_full = om.DriveConfig(p_c1=1.3e-3, p_c2=3.3e-6)
    d_half = om.DriveConfig(p_c1=0.65e-3, p_c2=3.3e-6)
    for mode in ("effective", "bare"):
        n_full = om.solve_working_point(params, d_full, detuning_mode=mode).n1
        n_half = om.solve_working_point(params, d_half, detuning_mode=mode).n1
        assert 0.49 < n_half / n_full < 0.51


def test_invariants_on_random_grid():
    rng = np.random.default_rng(7)
    for _ in range(25):
        f = lambda: rng.uniform(0.5, 1.5)
        p = om.SystemParams.from_hz(
            omega_c1=4e14 * f(), omega_c2=1e10 * f(), omega_m=1e7 * f(),
            gamma_m=1e3 * f(), kappa1=1e6 * f(), kappa2=1e2 * f(),
            g1=50 * f(), g2=5 * f(),
        )
        d = om.DriveConfig(p_c1=1.3e-3 * f(), p_c2=3.3e-6 * f())
        for mode in ("effective", "bare"):
            wp = om.solve_working_point(p, d, detuning_mode=mode)
            assert max(residuals(wp, p, d)) < 1e-10, mode


def test_single_cavity_bistability_flag(params):
    low = om.solve_working_point(
        params, om.DriveConfig(p_c1=1.3e-3, p_c2=0.0), detuning_mode="bare"
    )
    assert not low.multiple_roots
    high = om.solve_working_point(
        params, om.DriveConfig(p_c1=40e-3, p_c2=0.0), detuning_mode="bare"
    )
    assert high.multiple_roots
    # policy: smallest-|q0| branch, which stays far below the pulled resonance
    assert abs(high.q0) < params.delta_bare1 / params.g1 / 10


def test_tied_roots_raise(params, monkeypatch):
    monkeypatch.setattr(wpmod, "_real_roots", lambda *a: [-5.0, 5.0, 9.0])
    with pytest.raises(om.ConvergenceError):
        om.solve_working_point(
            params, om.DriveConfig(p_c1=1e-3, p_c2=0.0), detuning_mode="bare"
        )


def test_inversion_refuses_tied_roots_as_the_forward_solve_does(params, monkeypatch):
    """One operating-root rule: a tie for the smallest |q0| is refused by the inversion's
    held-photon balance with the forward solve's own message."""
    monkeypatch.setattr(wpmod, "_real_roots", lambda *a: [-5.0, 5.0])
    with pytest.raises(om.ConvergenceError) as forward:
        om.solve_working_point(params, om.DriveConfig(p_c1=1e-3, p_c2=0.0), "bare")
    # refused at the held balance, before any confirming forward solve
    monkeypatch.setattr(wpmod, "solve_working_point", None)
    with pytest.raises(om.ConvergenceError) as inverse:
        wpmod.invert_cooperativity(params, None, 40.0, "bare", p_c1=1e-3)
    assert str(inverse.value) == str(forward.value)
    assert "tied smallest-|q0| roots (q0 = -5 and 5)" in str(inverse.value)


def test_unknown_mode_rejected(params):
    with pytest.raises(om.InvalidParameterError):
        om.solve_working_point(params, om.DriveConfig(0.0, 0.0), detuning_mode="pinned")
    with pytest.raises(om.InvalidParameterError, match="unknown detuning_mode 'sideways'"):
        wpmod.invert_cooperativity(params, 40.0, 40.0, "sideways")


def test_bare_ratio_rows_meet_their_c2_target_to_rounding(params):
    """A ratio row holds n_2 as a constant force against cavity 1 driven at the run's power;
    the forward solve at the inverted powers lands on C2 far inside INVERSION_RTOL."""
    p_c1 = wpmod.invert_cooperativity(params, 40.0, 0.0, "bare")[0].p_c1
    for c2 in np.arange(5.0, 61.0, 5.0):
        _, wp = wpmod.invert_cooperativity(params, None, c2, "bare", p_c1=p_c1)
        achieved = om.cooperativity(params.g2, wp.n2, params.kappa2, params.gamma_m)
        assert abs(achieved - c2) <= 1e-12 * c2
