"""The whole-grid response kernel against an independent per-point oracle, a dense LU
solve of the sideband matrices, and the analytic and oscillator routes against the
kernel's rwa elimination."""

import json
import math
import re

import numpy as np
import pytest

import oemsim as om
from oemsim import cli, linear_response
from oemsim.linear_response import response_grid

REL = 1e-12
MODELS = ("full", "rwa", "analytic", "oscillator")


def random_case(rng):
    """Paper-regime parameters (kappa1 >> gamma_m >> kappa2, red-detuned tones)
    and a working point at random cooperativities, detuning offsets and phases."""
    omega_m = rng.uniform(5e6, 2e7)
    gamma_m = rng.uniform(5e2, 2e3)
    kappa1 = gamma_m * rng.uniform(50.0, 2000.0)
    kappa2 = gamma_m / rng.uniform(5.0, 50.0)
    params = om.SystemParams.from_hz(
        omega_c1=4e14, omega_c2=1e10, omega_m=omega_m, gamma_m=gamma_m,
        kappa1=kappa1, kappa2=kappa2, g1=rng.uniform(10.0, 100.0), g2=rng.uniform(1.0, 10.0),
    )
    return params, random_wp(rng, params)


def random_wp(rng, params):
    c1, c2 = rng.uniform(1.0, 60.0), rng.uniform(0.0, 60.0)
    n1 = c1 * params.kappa1 * params.gamma_m / params.g1**2
    n2 = c2 * params.kappa2 * params.gamma_m / params.g2**2
    a10 = math.sqrt(n1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    a20 = math.sqrt(n2) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    return om.WorkingPoint(
        a10=complex(a10), a20=complex(a20), q0=0.0,
        delta1=params.omega_m + rng.uniform(-0.5, 0.5) * params.kappa1,
        delta2=params.omega_m + rng.uniform(-0.5, 0.5) * params.kappa2,
        n1=abs(a10) ** 2, n2=abs(a20) ** 2,
    )


def dense_system(wp, params, delta, rwa):
    """The sideband matrix and right-hand side, entry by entry."""
    k1, k2 = params.kappa1, params.kappa2
    g1, g2 = params.g1, params.g2
    a10, a20 = wp.a10, wp.a20
    d1, d2 = wp.delta1, wp.delta2
    gm, wm = params.gamma_m, params.omega_m
    if rwa:
        # unknowns (a1+, a2+, Q+); mechanical row linearized about omega_m
        a = [
            [-1j * (delta - d1) + k1, 0.0, -1j * g1 * a10],
            [0.0, -1j * (delta - d2) + k2, 1j * g2 * a20],
            [g1 * np.conj(a10), -g2 * np.conj(a20), 2.0 * ((delta - wm) + 0.5j * gm)],
        ]
    else:
        # unknowns (a1+, conj(a1-), a2+, conj(a2-), Q+); mechanical row kept
        # quadratic, scaled by 1/(2 omega_m) to match the cavity-row magnitudes
        a = [
            [-1j * (delta - d1) + k1, 0.0, 0.0, 0.0, -1j * g1 * a10],
            [0.0, -1j * (delta + d1) + k1, 0.0, 0.0, 1j * g1 * np.conj(a10)],
            [0.0, 0.0, -1j * (delta - d2) + k2, 0.0, 1j * g2 * a20],
            [0.0, 0.0, 0.0, -1j * (delta + d2) + k2, -1j * g2 * np.conj(a20)],
            [-0.5 * g1 * np.conj(a10), -0.5 * g1 * a10, 0.5 * g2 * np.conj(a20),
             0.5 * g2 * a20, (wm**2 - delta**2 - 1j * delta * gm) / (2.0 * wm)],
        ]
    b = np.zeros(len(a), dtype=complex)
    b[0] = 1.0
    return np.array(a, dtype=complex), b


def dense_solution(wp, params, delta, rwa):
    """Sideband amplitudes by an LU solve of the dense matrix."""
    z = np.linalg.solve(*dense_system(wp, params, delta, rwa))
    if rwa:
        (a1p, a2p, qp), a1m, a2m = z, 0.0j, 0.0j
    else:
        a1p, b1, a2p, b2, qp = z
        a1m, a2m = np.conj(b1), np.conj(b2)
    return linear_response.SidebandSolution(a1p, a1m, a2p, a2m, qp, delta, rwa, 0.0)


def oracle(wp, params, delta, model):
    """One ProbeResponse from the dense LU solve of the sideband matrices, an independent
    per-point route ("analytic" and "oscillator" are the rwa system)."""
    sol = dense_solution(wp, params, delta, model != "full")
    return linear_response.probe_outputs(sol, params)


def assert_row_matches(grid, i, ref, model):
    for name, want in ref._asdict().items():
        got = np.broadcast_to(getattr(grid, name), np.shape(grid.e_l))[i]
        if name == "e_r" and model == "oscillator":  # its amplitudes drop the tones' phases
            got, want = abs(got), abs(want)
        # reflect = |e_l - 1|^2 cancels near e_l = 1: its scale is that of its terms
        scale = (1 + abs(ref.e_l)) ** 2 if name == "reflect_flux" else abs(want)
        assert abs(got - want) <= REL * scale, (name, i, got, want)


@pytest.mark.parametrize("model", MODELS)
def test_probe_grid_matches_scalar_oracle(model):
    rng = np.random.default_rng(20 + MODELS.index(model))
    for _ in range(6):
        params, wp = random_case(rng)
        half = rng.choice([30 * params.gamma_m, 3 * params.kappa1])
        shift = rng.uniform(-1, 1) * params.gamma_m
        deltas = params.omega_m + shift + np.linspace(-half, half, 41)
        grid = response_grid(wp, params, deltas, model)
        assert grid.e_l.shape == deltas.shape
        for i, delta in enumerate(deltas):
            assert_row_matches(grid, i, oracle(wp, params, float(delta), model), model)


@pytest.mark.parametrize("model", MODELS)
def test_one_working_point_per_row_matches_scalar_oracle(model):
    rng = np.random.default_rng(40 + MODELS.index(model))
    params, _ = random_case(rng)
    wps = [random_wp(rng, params) for _ in range(25)]
    stacked = om.WorkingPoint(*(np.array([getattr(wp, f) for wp in wps]) for f in (
        "a10", "a20", "q0", "delta1", "delta2", "n1", "n2")))
    delta = params.omega_m + 0.7 * params.gamma_m
    grid = response_grid(stacked, params, delta, model)
    assert grid.e_l.shape == (len(wps),)
    for i, wp in enumerate(wps):
        assert_row_matches(grid, i, oracle(wp, params, delta, model), model)


def test_rwa_grid_conserves_flux(params, wp_c40):
    deltas = params.omega_m + np.linspace(-30, 30, 601) * params.gamma_m
    for model in ("rwa", "analytic", "oscillator"):
        grid = response_grid(wp_c40, params, deltas, model)
        assert np.max(np.abs(grid.flux_budget - 1.0)) < 1e-9


def test_analytic_and_oscillator_routes_solve_no_arrow_system(monkeypatch, params, wp_c40):
    """"analytic" is the nested fraction and "oscillator" the oscillator steady state: with
    the kernel's arrow elimination gone, both still answer, and agree with it off two-photon
    resonance (bare C1 = C2 = 40, where Delta2 - omega_m = 3.996 kappa2)."""
    wp_bare = cli.invert_cooperativity(params, 40.0, 40.0, "bare")[1]
    assert (wp_bare.delta2 - params.omega_m) / params.kappa2 == pytest.approx(3.996, abs=1e-3)
    deltas = params.omega_m + np.linspace(-30, 30, 2001) * params.gamma_m
    rwa = response_grid(wp_bare, params, deltas, "rwa").e_l

    def no_arrow(*args):
        raise AssertionError("solved through the kernel's arrow elimination")

    monkeypatch.setattr(linear_response, "_arrow_solve", no_arrow)
    for model in ("analytic", "oscillator"):
        e_l = response_grid(wp_bare, params, deltas, model).e_l
        assert np.max(np.abs(e_l - rwa) / np.abs(rwa)) <= 1e-12, model
    closed = om.response_rwa(deltas - params.omega_m,
                             om.RwaCoefficients.from_working_point(wp_c40, params))
    e_l = response_grid(wp_c40, params, deltas, "analytic").e_l
    assert np.max(np.abs(e_l - closed) / np.abs(closed)) <= 1e-14


@pytest.mark.parametrize("model", MODELS)
def test_gate_names_first_failing_row(monkeypatch, params, wp_c40, model):
    monkeypatch.setattr(linear_response, "RESIDUAL_TOL", -1.0)
    xs = np.array([-2.5, 0.0, 4.0]) * params.gamma_m
    expected = re.escape(f"row 0 (x = {xs[0]:.6e} rad/s)")
    with pytest.raises(om.SingularResponseError, match=expected) as info:
        response_grid(wp_c40, params, params.omega_m + xs, model)
    assert info.value.delta == params.omega_m + xs[0]


def test_arrow_residual_is_the_dense_definition():
    # a perturbed solution, so the residual is well above rounding noise
    rng = np.random.default_rng(8)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    for m in (2, 4):
        n = 50
        diag, col, row = list(cplx(m, n)), list(cplx(m, n)), list(cplx(m, n))
        corner = cplx(n)
        xs, q, _ = linear_response._arrow_solve(diag, col, row, corner)
        z = np.array(xs + [q]).T * (1 + 1e-6 * cplx(n, m + 1))
        got = linear_response._arrow_residual(diag, col, row, corner, list(z[:, :m].T), z[:, m])
        a = np.zeros((n, m + 1, m + 1), dtype=complex)
        for j in range(m):
            a[:, j, j], a[:, j, m], a[:, m, j] = diag[j], col[j], row[j]
        a[:, m, m] = corner
        b = np.zeros(m + 1)
        b[0] = 1.0
        err = np.abs(np.einsum("nij,nj->ni", a, z) - b)
        scale = np.einsum("nij,nj->ni", np.abs(a), np.abs(z)) + b
        assert got == pytest.approx(np.max(err / scale, axis=1), rel=1e-6)


def test_arrow_residual_allows_an_underflowed_unknown():
    """a1 + 0 q = 1, 2**1000 a2 + 2**-100 q = 0, a1 - q = 0: the exact a2 = -2**-1100 is
    below the float range and rounds to 0, so the cavity-2 row's error |c2 q| is all of
    its scale, but lies within tiny * sum |A_row|; the residual is 0."""
    one = np.ones(1, dtype=complex)
    diag, col, row = [one, 2.0**1000 * one], [0 * one, 2.0**-100 * one], [one, 0 * one]
    corner = -one
    xs, q, residual = linear_response._arrow_solve(diag, col, row, corner)
    assert (xs[0], xs[1], q) == (1.0, 0.0, 1.0)
    assert abs(diag[1] * xs[1] + col[1] * q) / (abs(col[1]) * abs(q)) == 1.0  # the bare ratio
    assert residual.tolist() == [0.0]
    # an error above that allowance still counts: the mechanical row's |1 - 2| / (1 + 2)
    got = linear_response._arrow_residual(diag, col, row, corner, xs, 2 * q)
    assert got.tolist() == [pytest.approx(1 / 3)]


@pytest.mark.parametrize("model", MODELS)
def test_gate_rejects_nan(params, wp_c40, model):
    broken = om.WorkingPoint(**{**wp_c40._asdict(), "a10": complex("nan+nanj"), "n1": math.nan})
    deltas = params.omega_m + np.array([0.3, 1.0, 2.0]) * params.gamma_m
    for delta in (deltas, deltas[0]):
        with pytest.raises(om.SingularResponseError, match="row 0") as info:
            response_grid(broken, params, delta, model)
        assert info.value.delta == deltas[0]


def test_unknown_model_rejected(params, wp_c40):
    with pytest.raises(om.InvalidParameterError):
        response_grid(wp_c40, params, params.omega_m, "dense")


@pytest.mark.parametrize("doc", [
    {"params": {"kappa1_hz": 100, "gamma_m_hz": 1, "kappa2_hz": 0.01},
     "drives": {"c1": 1e8, "c2": 0}},
    {"params": {"kappa1_hz": 1e-3, "kappa2_hz": 1e12}, "drives": {"p_c1": 1000, "p_c2": 1000}},
], ids=["c1_1e8", "reversed_hierarchy"])
def test_almost_transparent_probe_keeps_its_precision(tmp_path, capsys, doc):
    """Where E_L at x = 0 is small (2e-8 and 1.5e-7 here), x0 = 1 / (d0 - c0 r0 / m) keeps
    it to rounding; (1 - c0 q) / d0 cancelled and failed the 1e-10 gate (exit 3)."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["derive", "--scenario", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["reflect_flux_line_center"] > 0.99
    run = cli.Run(cli.Scenario.from_dict(doc))
    params, wp = run.scenario.params, run.wp
    for model in ("rwa", "full", "oscillator"):
        ref = dense_solution(wp, params, params.omega_m, model != "full")
        want = linear_response.probe_outputs(ref, params).e_l
        got = response_grid(wp, params, params.omega_m, model).e_l
        assert abs(got - want) <= REL * abs(want), (model, got, want)
