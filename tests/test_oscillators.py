import math

import numpy as np
import pytest

import oemsim as om
from oemsim import oscillators
from oemsim.params import rate_hierarchy


def steady_at(model, delta, t, probe_amp=1.0):
    z = np.array(om.harmonic_steady_state(model, delta, probe_amp))
    return z * np.exp(-1j * delta * t)


def test_mapping_from_working_point(params, wp_c40):
    model = om.from_working_point(wp_c40, params)
    assert model.g_eff1**2 == pytest.approx(40.0 * params.kappa1 * params.gamma_m / 2.0, rel=1e-9)
    assert model.g_eff2**2 == pytest.approx(40.0 * params.kappa2 * params.gamma_m / 2.0, rel=1e-9)
    assert model.gamma_m == params.gamma_m
    report = rate_hierarchy(model.kappa1, model.gamma_m, model.kappa2)
    assert report["satisfied"]
    assert report["kappa1_over_gamma_m"] == pytest.approx(1000.0, rel=1e-9)
    assert report["gamma_m_over_kappa2"] == pytest.approx(10.0, rel=1e-9)


def test_undriven_second_cavity_drops_out(params):
    wp = om.solve_working_point(params, om.DriveConfig(p_c1=1.3e-3, p_c2=0.0))
    model = om.from_working_point(wp, params)
    assert model.g_eff2 == 0.0


def test_uncoupled_steady_state(scaled_model):
    bare = om.OscillatorModel(
        delta1=scaled_model.delta1, delta2=scaled_model.delta2, omega_m=scaled_model.omega_m,
        kappa1=scaled_model.kappa1, kappa2=scaled_model.kappa2,
        gamma_m_half=scaled_model.gamma_m_half, g_eff1=0.0, g_eff2=0.0,
    )
    u, v, w = om.harmonic_steady_state(bare, bare.delta1)
    assert u == pytest.approx(1.0 / bare.kappa1, rel=1e-12)
    assert v == 0 and w == 0


def test_dark_mode_amplitude_closed_form(params, wp_c40):
    model = om.from_working_point(wp_c40, params)
    u, v, w = om.harmonic_steady_state(model, params.omega_m)
    predicted = -1j * model.g_eff1 / (params.kappa1 * (params.gamma_m / 2.0) * 81.0)
    assert w == pytest.approx(predicted, rel=1e-10)
    assert 2.0 * params.kappa1 * u == pytest.approx(82.0 / 81.0, rel=1e-10)


def test_mechanical_suppression_factor(params, drives_c40):
    wp_on = om.solve_working_point(params, drives_c40)
    model_on = om.from_working_point(wp_on, params)
    _, _, w_on = om.harmonic_steady_state(model_on, params.omega_m)
    wp_off = om.solve_working_point(params, om.DriveConfig(p_c1=drives_c40.p_c1, p_c2=0.0))
    model_off = om.from_working_point(wp_off, params)
    _, _, w_off = om.harmonic_steady_state(model_off, params.omega_m)
    assert abs(w_on) / abs(w_off) == pytest.approx(41.0 / 81.0, rel=1e-6)


def test_steady_state_matches_nested_fraction(params, wp_c40):
    model = om.from_working_point(wp_c40, params)
    coeffs = om.RwaCoefficients.from_working_point(wp_c40, params)
    rng = np.random.default_rng(23)
    for x in rng.uniform(-30 * params.gamma_m, 30 * params.gamma_m, 100):
        u, _, _ = om.harmonic_steady_state(model, params.omega_m + x)
        assert 2.0 * params.kappa1 * u == pytest.approx(om.response_rwa(x, coeffs), rel=1e-10)


def test_stacked_steady_state_is_one_solve_per_system(scaled_model):
    """A grid of detunings against a model whose couplings are arrays: one (n, 3, 3) system
    matrix and one (n, 3) steady state, each row that of its scalar model and detuning."""
    g2 = np.array([0.0, 1.0, 5.0, 20.0])
    stacked = scaled_model._replace(g_eff2=g2)
    deltas = scaled_model.omega_m + np.array([-30.0, -1.0, 0.0, 12.5])
    matrices = stacked.system_matrix()
    z = oscillators.steady_state(stacked, deltas, 0.5j)
    assert matrices.shape == (4, 3, 3) and z.shape == (4, 3)
    for i, (g, delta) in enumerate(zip(g2, deltas)):
        scalar = scaled_model._replace(g_eff2=float(g))
        assert np.array_equal(matrices[i], scalar.system_matrix())
        want = om.harmonic_steady_state(scalar, float(delta), 0.5j)
        np.testing.assert_allclose(z[i], want, rtol=1e-14, atol=0)


def test_singular_steady_state_is_a_singular_response(scaled_model, monkeypatch):
    """A zero LU pivot (no valid model has one: the Hermitian part of -i delta I - A is
    diag(kappa1, kappa2, gamma_m/2) > 0) is a SingularResponseError, not a LinAlgError."""
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(om.SingularResponseError, match="^oscillator steady state singular$") as info:
        om.harmonic_steady_state(scaled_model, 2.5)
    assert info.value.delta == 2.5


def test_steady_state_flux_identity(params, wp_c40):
    model = om.from_working_point(wp_c40, params)
    k1, k2, gm = params.kappa1, params.kappa2, params.gamma_m
    for x in np.linspace(-25, 25, 41) * gm:
        u, v, w = om.harmonic_steady_state(model, params.omega_m + x)
        flux = abs(1 - 2 * k1 * u) ** 2 + 4 * k1 * k2 * abs(v) ** 2 + 2 * k1 * gm * abs(w) ** 2
        assert abs(flux - 1.0) < 1e-9


def test_mechanical_amplitude_decreases_with_second_coupling(scaled_model):
    g2_values = np.linspace(0.0, 2.0 * scaled_model.g_eff2, 9)
    amps = []
    for g2 in g2_values:
        m = om.OscillatorModel(
            delta1=scaled_model.delta1, delta2=scaled_model.delta2,
            omega_m=scaled_model.omega_m, kappa1=scaled_model.kappa1,
            kappa2=scaled_model.kappa2, gamma_m_half=scaled_model.gamma_m_half,
            g_eff1=scaled_model.g_eff1, g_eff2=g2,
        )
        _, _, w = om.harmonic_steady_state(m, m.omega_m)
        amps.append(abs(w))
    assert np.all(np.diff(amps) < 0)


def test_zero_drive_stays_at_rest(scaled_model):
    traj = om.propagate(scaled_model, 0.0, scaled_model.omega_m, 1.0, n_samples=64)
    assert np.all(traj.states == 0)


def test_scalar_relaxation_both_methods(scaled_model):
    # G1 = G2 = 0 at delta = Delta1: |u(t)| = (E_p/kappa1)(1 - exp(-kappa1 t))
    bare = om.OscillatorModel(
        delta1=scaled_model.delta1, delta2=scaled_model.delta2, omega_m=scaled_model.omega_m,
        kappa1=scaled_model.kappa1, kappa2=scaled_model.kappa2,
        gamma_m_half=scaled_model.gamma_m_half, g_eff1=0.0, g_eff2=0.0,
    )
    delta = bare.delta1
    t_final = 5.0 / bare.kappa1
    for kwargs in ({"method": "exact_propagator"}, {"method": "rk4", "dt": 2e-5}):
        traj = om.propagate(bare, 1.0, delta, t_final, n_samples=200, **kwargs)
        for t, z in zip(traj.times[::20], traj.states[::20]):
            expected = (1.0 / bare.kappa1) * (1.0 - math.exp(-bare.kappa1 * t))
            assert abs(z[0]) == pytest.approx(expected, abs=1e-8)
            assert z[1] == 0 and z[2] == 0


def test_settling_to_harmonic_steady_state(scaled_model):
    t_final = 10.0 / scaled_model.kappa2
    delta = scaled_model.omega_m
    target = steady_at(scaled_model, delta, t_final)
    scale = np.abs(target).max()
    exact = om.propagate(scaled_model, 1.0, delta, t_final, method="exact_propagator",
                         n_samples=11)
    assert np.abs(exact.states[-1] - target).max() / scale < 1e-6
    rk4 = om.propagate(scaled_model, 1.0, delta, t_final, method="rk4", dt=2e-4,
                       n_samples=11)
    assert np.abs(rk4.states[-1] - target).max() / scale < 1e-6


def test_methods_agree_along_trajectory(scaled_model):
    t_final = 10.0 / scaled_model.kappa2
    delta = scaled_model.omega_m
    rk4 = om.propagate(scaled_model, 1.0, delta, t_final, method="rk4", dt=1e-4,
                       n_samples=101)
    a = scaled_model.system_matrix()
    evals, evecs = np.linalg.eig(a)
    z_ss = np.array(om.harmonic_steady_state(scaled_model, delta))
    c0 = np.linalg.solve(evecs, -z_ss)
    scale = np.abs(z_ss).max()
    for t, z in zip(rk4.times, rk4.states):
        exact = z_ss * np.exp(-1j * delta * t) + evecs @ (np.exp(evals * t) * c0)
        assert np.abs(z - exact).max() / scale < 1e-6


def test_rk4_guard_rejects_large_step(scaled_model):
    with pytest.raises(om.InvalidParameterError, match="^dt = .* violates the stability guard"):
        om.propagate(scaled_model, 1.0, scaled_model.omega_m, 1.0, method="rk4", dt=1.0)
    with pytest.raises(om.InvalidParameterError):
        om.propagate(scaled_model, 1.0, scaled_model.omega_m, 1.0, method="rk4")


def test_exceptional_point_fallback_matches_rk4():
    # u-w pair tuned to a defective (Jordan-block) system matrix:
    # G1 = |kappa1 - gamma_m/2| / 2 with matched frequencies
    model = om.OscillatorModel(
        delta1=5.0, delta2=5.0, omega_m=5.0,
        kappa1=2.0, kappa2=3.0, gamma_m_half=1.0,
        g_eff1=0.5, g_eff2=0.0,
    )
    delta = 4.0
    t_final = 6.0
    exact = om.propagate(model, 1.0, delta, t_final, method="exact_propagator", n_samples=31)
    rk4 = om.propagate(model, 1.0, delta, t_final, method="rk4", dt=1e-3, n_samples=31)
    z_ss = np.abs(np.array(om.harmonic_steady_state(model, delta))).max()
    for te, ze in zip(exact.times, exact.states):
        i = np.argmin(np.abs(rk4.times - te))
        assert np.isclose(rk4.times[i], te, rtol=1e-9)
        assert np.abs(ze - rk4.states[i]).max() / z_ss < 1e-5


def test_expm_matches_scipy():
    linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(2013)
    for _ in range(300):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a *= rng.uniform(0.0, 5.0)
        expected = linalg.expm(a)
        assert np.abs(oscillators._expm(a) - expected).max() <= 1e-12 * np.abs(expected).max()
    # the exceptional point of the fallback test, over its time grid
    model = om.OscillatorModel(delta1=5.0, delta2=5.0, omega_m=5.0, kappa1=2.0, kappa2=3.0,
                               gamma_m_half=1.0, g_eff1=0.5, g_eff2=0.0)
    a = model.system_matrix()
    for t in np.linspace(0.0, 6.0, 31):
        expected = linalg.expm(a * t)
        got = oscillators._expm(a * t)
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


def test_rk4_solves_no_harmonic_steady_state(scaled_model, monkeypatch):
    kwargs = dict(method="rk4", dt=1e-4, n_samples=11)
    before = om.propagate(scaled_model, 1.0, 1.01e4, 0.05, **kwargs)

    def unused(*args, **kw):
        raise AssertionError("rk4 solved the harmonic steady state")

    monkeypatch.setattr(oscillators, "harmonic_steady_state", unused)
    after = om.propagate(scaled_model, 1.0, 1.01e4, 0.05, **kwargs)
    assert np.array_equal(after.times, before.times)
    assert np.array_equal(after.states, before.states)


@pytest.mark.parametrize("n_samples", [-1, 0])
@pytest.mark.parametrize("method", ["exact_propagator", "rk4"])
def test_propagate_rejects_fewer_than_one_sample(scaled_model, method, n_samples):
    with pytest.raises(om.InvalidParameterError, match="n_samples must be >= 1"):
        om.propagate(scaled_model, 1.0, 1e4, 0.05, method=method, dt=1e-4, n_samples=n_samples)


@pytest.mark.parametrize("t_final", [0.0, -1e-3])
def test_propagate_rejects_a_span_that_is_not_positive(scaled_model, t_final):
    with pytest.raises(om.InvalidParameterError, match="t_final must be > 0"):
        om.propagate(scaled_model, 1.0, 1e4, t_final)


def test_propagate_rejects_an_unknown_method(scaled_model):
    with pytest.raises(om.InvalidParameterError, match="unknown integration method 'euler'"):
        om.propagate(scaled_model, 1.0, 1e4, 0.05, method="euler", dt=1e-4)


def test_trajectory_time_grid_validation():
    with pytest.raises(om.InvalidParameterError):
        om.Trajectory(times=np.array([0.0, 1.0, 1.0]), states=np.zeros((3, 3), dtype=complex))


def eigenbasis_propagate(model, probe_amp, delta, times):
    """The eigenmode sum the exact propagator used before its one-step map, kept as the oracle.

    z(t) = Z exp(-i delta t) - V exp(L t) V^{-1} Z with (V, L) the eigendecomposition of the
    system matrix and Z the harmonic steady state; valid away from exceptional points.
    """
    z_ss = np.array(om.harmonic_steady_state(model, delta, probe_amp), dtype=complex)
    evals, evecs = np.linalg.eig(model.system_matrix())
    c0 = np.linalg.solve(evecs, -z_ss)
    hom = sum(np.multiply.outer(np.exp(evals[k] * times) * c0[k], evecs[:, k]) for k in range(3))
    return np.multiply.outer(np.exp(-1j * delta * times), z_ss) + hom


@pytest.mark.parametrize("seed", range(4))
def test_exact_propagator_matches_eigenbasis_in_dense_grids_regime(params, seed):
    # the regime of the benchmark's long traces: C1 10-60, C2/C1 0.2-1.2, |x| <= 3 gamma_m
    rng = np.random.default_rng(seed)
    c1 = rng.uniform(10.0, 60.0)
    c2 = c1 * rng.uniform(0.2, 1.2)
    gm = params.gamma_m
    model = om.OscillatorModel(
        delta1=params.omega_m, delta2=params.omega_m, omega_m=params.omega_m,
        kappa1=params.kappa1, kappa2=params.kappa2, gamma_m_half=gm / 2.0,
        g_eff1=math.sqrt(c1 * params.kappa1 * gm / 2.0),
        g_eff2=math.sqrt(c2 * params.kappa2 * gm / 2.0),
    )
    delta = params.omega_m + rng.uniform(-3.0, 3.0) * gm
    traj = om.propagate(model, 1.0, delta, rng.uniform(1e-3, 3e-3), n_samples=30000)
    expected = eigenbasis_propagate(model, 1.0, delta, traj.times)
    scale = np.abs(expected).max(axis=0)
    assert np.all(np.abs(traj.states - expected) <= 3e-11 * scale)


def exact_per_step(model, probe_amp, delta, t_final, n_samples):
    """The exact propagator's one-step map applied sample after sample, without doubling."""
    g = np.zeros((4, 4), dtype=complex)
    g[:3, :3] = model.system_matrix() + 1j * delta * np.eye(3)
    g[0, 3] = probe_amp
    step = oscillators._expm(g * (t_final / max(1, n_samples - 1)))
    times = np.linspace(0.0, t_final, n_samples)
    y = np.array([0.0, 0.0, 0.0, 1.0], dtype=complex)
    states = []
    for t in times:
        states.append(y[:3] * np.exp(-1j * delta * t))
        y = step @ y
    return times, np.array(states)


@pytest.mark.parametrize("n_samples", [1, 2, 3, 4, 5, 1023, 1024, 1025])
def test_exact_orbit_matches_per_step_loop(scaled_model, n_samples):
    delta, t_final = scaled_model.omega_m + 3.0, 5.0 / scaled_model.kappa2
    times, states = exact_per_step(scaled_model, 1.0, delta, t_final, n_samples)
    traj = om.propagate(scaled_model, 1.0, delta, t_final, n_samples=n_samples)
    assert traj.times.tobytes() == times.tobytes()
    assert traj.states.shape == states.shape == (n_samples, 3)
    assert np.all(traj.states[0] == 0)
    scale = np.abs(states).max(axis=0)
    assert np.all(np.abs(traj.states - states) <= 1e-12 * scale)


def rk4_per_step(model, probe_amp, delta, t_final, dt, n_samples):
    """The per-step RK4 loop the composed stride maps replaced, kept as the oracle."""
    b = model.system_matrix() + 1j * delta * np.eye(3)
    n_steps = max(1, math.ceil(t_final / dt))
    h = t_final / n_steps
    d = np.array([probe_amp, 0.0, 0.0], dtype=complex)
    hb = h * b
    hb2 = hb @ hb
    hb3 = hb2 @ hb
    hb4 = hb3 @ hb
    eye = np.eye(3, dtype=complex)
    step_matrix = eye + hb + hb2 / 2.0 + hb3 / 6.0 + hb4 / 24.0
    step_drive = h * (eye + hb / 2.0 + hb2 / 6.0 + hb3 / 24.0) @ d
    stride = max(1, n_steps // max(1, n_samples - 1))
    times = [0.0]
    states = [np.zeros(3, dtype=complex)]
    y = np.zeros(3, dtype=complex)
    for step in range(1, n_steps + 1):
        y = step_matrix @ y + step_drive
        if step % stride == 0 or step == n_steps:
            t = step * h
            times.append(t)
            states.append(y * np.exp(-1j * delta * t))
    return np.array(times), np.array(states), n_steps, stride


@pytest.mark.parametrize("t_final, n_samples, layout", [
    (2.0**-3, 65, "whole strides"),  # 1024 steps, stride 16
    (2.0**-3, 100, "remainder"),  # stride 10, a last block of 4 steps
    (2.0**-3, 2000, "stride 1"),  # more samples than steps
    (2.0**-13, 1001, "one step"),
    (2.0**-3, 2, "two samples"),  # one stride of all 1024 steps
])
def test_rk4_stride_maps_match_per_step_loop(scaled_model, t_final, n_samples, layout):
    dt, delta = 2.0**-13, scaled_model.omega_m + 3.0
    times, states, n_steps, stride = rk4_per_step(scaled_model, 1.0, delta, t_final, dt, n_samples)
    assert {"whole strides": n_steps % stride == 0 and stride > 1,
            "remainder": n_steps % stride > 0,
            "stride 1": stride == 1 and n_steps > 1,
            "one step": n_steps == 1,
            "two samples": len(times) == 2 and n_steps > 1}[layout]
    traj = om.propagate(scaled_model, 1.0, delta, t_final, method="rk4", dt=dt,
                        n_samples=n_samples)
    assert traj.times.tobytes() == times.tobytes()
    assert traj.states.shape == states.shape
    scale = np.abs(states).max(axis=0)
    assert np.all(np.abs(traj.states - states) <= 1e-11 * scale)


@pytest.mark.filterwarnings("error")
def test_overflowing_propagator_raises(params, wp_c40):
    """A detuning of 1e300 gamma_m is finite, but the squarings of its step overflow: the
    first sample after t = 0 is not finite and is named."""
    model = om.from_working_point(wp_c40, params)
    delta = params.omega_m + 1e300 * params.gamma_m
    with pytest.raises(om.SingularResponseError, match=r"^sample 1 \(t = 1\.000000e-06 s\) "):
        om.propagate(model, 1.0, delta, 1e-3)
