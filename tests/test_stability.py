"""Stability margin of the linearized dynamics, checked against a Routh-Hurwitz oracle.

The oracle never computes an eigenvalue: it takes the characteristic polynomial of
the drift matrix by the Faddeev-LeVerrier recursion (matrix products and traces only)
and bisects on the shift sigma at which A - sigma I stops being Hurwitz-stable, which
it decides from the signs of the Routh array's first column.
"""

import numpy as np
import pytest

import oemsim as om
from oemsim import cli
from oemsim import working_point as wpmod

BLUE = {"params": {"delta1_hz": -1e7}, "drives": {"p_c1": "1.3mW"}}
TONE2_BLUE = {"params": {"delta2_hz": -1e7}, "drives": {"c1": 40.0, "c2": 0.0}}


def charpoly(a):
    """Coefficients of det(sI - a), leading 1 first, by Faddeev-LeVerrier."""
    n = len(a)
    coeffs, m = [1.0], np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(a @ m) / k)
    return coeffs


def hurwitz_stable(coeffs):
    """Every root in the open left half-plane: the Routh array's first column is positive."""
    width = (len(coeffs) + 1) // 2 + 1
    rows = [list(coeffs[0::2]), list(coeffs[1::2])]
    rows = [r + [0.0] * (width - len(r)) for r in rows]
    for _ in range(len(coeffs) - 2):
        a, b = rows[-2], rows[-1]
        if b[0] <= 0.0:
            return False
        rows.append([(b[0] * a[j + 1] - a[0] * b[j + 1]) / b[0] for j in range(width - 1)] + [0.0])
    return all(r[0] > 0.0 for r in rows)


def oracle_margin(a, scale):
    """max Re(lambda) of ``a`` to about 1e-15 ``scale``, by bisection on the shift."""
    a = a / scale
    lo, hi = -1.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if hurwitz_stable(charpoly(a - mid * np.eye(len(a)))):
            hi = mid
        else:
            lo = mid
    return hi * scale


def run_wp(doc):
    run = cli.Run(cli.Scenario.from_dict(doc))
    return run, run.wp, run.scenario.params


@pytest.mark.parametrize("doc, margin", [
    (BLUE, 18.42219),
    ({}, -0.19850),
    ({"detuning_mode": "bare"}, -0.19832),
], ids=["blue_detuned", "default", "bare"])
def test_margin_check_values(doc, margin):
    _, wp, params = run_wp(doc)
    a = wpmod.drift_matrix(wp, params)
    assert om.stability_margin(wp, params) / params.gamma_m == pytest.approx(margin, abs=5e-6)
    assert oracle_margin(a, params.omega_m) / params.gamma_m == pytest.approx(margin, abs=5e-6)


def random_working_points(rng, n):
    """Effective-mode points at random C1, C2 and detunings: red, blue and in between."""
    for _ in range(n):
        doc = {"params": {"delta1_hz": rng.choice([1.0, -1.0, 0.3]) * 1e7,
                          "delta2_hz": rng.choice([1.0, -1.0, 2.0]) * 1e7},
               "drives": {"c1": rng.uniform(1.0, 80.0), "c2": rng.uniform(0.0, 80.0)}}
        yield run_wp(doc)[1:]


def test_margin_matches_routh_hurwitz_oracle():
    signs = set()
    for wp, params in random_working_points(np.random.default_rng(13), 40):
        margin = om.stability_margin(wp, params)
        oracle = oracle_margin(wpmod.drift_matrix(wp, params), params.omega_m)
        assert margin == pytest.approx(oracle, abs=1e-6 * params.gamma_m)
        signs.add(bool(oracle > 0))
    assert signs == {True, False}  # both stable and unstable points were drawn


def test_stacked_margins_equal_per_point_margins():
    run = cli.Run(cli.Scenario.from_dict(TONE2_BLUE))
    wps = [run.solve(run.scaled_drives(r)) for r in (0.0, 0.5, 1.5, 2.0)]
    stacked = cli._stacked(wps)
    params = run.scenario.params
    assert wpmod.drift_matrix(stacked, params).shape == (4, 6, 6)
    each = [om.stability_margin(wp, params) for wp in wps]
    np.testing.assert_array_equal(om.stability_margin(stacked, params), each)


def test_gate_names_the_first_unstable_row():
    run = cli.Run(cli.Scenario.from_dict(TONE2_BLUE))
    params = run.scenario.params
    # tone 2 blue-detuned amplifies once C2 exceeds C1 + 1: rows 2 and 3 grow
    stacked = cli._stacked([run.solve(run.scaled_drives(r)) for r in (0.0, 1.0, 1.5, 2.0)])
    with pytest.raises(om.UnstableWorkingPointError, match=r"^sweep row 2: unstable") as info:
        wpmod.require_stable(stacked, params, "sweep")
    assert info.value.row == 2
    assert info.value.margin == om.stability_margin(stacked, params)[2] > 0
    assert isinstance(info.value, om.ConvergenceError)
    wpmod.require_stable(cli._stacked([run.wp, run.wp]), params, "sweep")  # stable: no raise


def test_drift_matrix_is_the_jacobian_of_the_mean_field_equations():
    """Central differences of the bare mean-field equations (``working_point``'s docstring)
    about a bare working point; they are quadratic, so the differences are exact but for
    rounding."""
    run, wp, p = run_wp({"detuning_mode": "bare"})
    e1 = om.drive_amplitude(run.drives.p_c1, p.omega_c1, p.kappa1)
    e2 = om.drive_amplitude(run.drives.p_c2, p.omega_c2, p.kappa2)

    def rhs(y):
        a1, a2, q, mom = complex(y[0], y[1]), complex(y[2], y[3]), y[4], y[5]
        da1 = -(1j * p.delta_bare1 + p.kappa1) * a1 + 1j * p.g1 * a1 * q + e1
        da2 = -(1j * p.delta_bare2 + p.kappa2) * a2 - 1j * p.g2 * a2 * q + e2
        dmom = -p.omega_m * q - p.gamma_m * mom + p.g1 * abs(a1) ** 2 - p.g2 * abs(a2) ** 2
        return np.array([da1.real, da1.imag, da2.real, da2.imag, p.omega_m * mom, dmom])

    y0 = np.array([wp.a10.real, wp.a10.imag, wp.a20.real, wp.a20.imag, wp.q0, 0.0])
    h = 1e-3 * np.maximum(np.abs(y0), 1.0)
    jac = np.column_stack([(rhs(y0 + h[j] * e) - rhs(y0 - h[j] * e)) / (2.0 * h[j])
                           for j, e in enumerate(np.eye(6))])
    drift = wpmod.drift_matrix(wp, p)
    assert np.abs(rhs(y0)).max() < 1e-9 * np.linalg.norm(drift) * np.abs(y0).max()
    np.testing.assert_allclose(jac, drift, rtol=0, atol=1e-9 * np.linalg.norm(drift))


def test_margin_within_eigensolver_rounding_passes_the_gate():
    """With kappa at 1e-10 Hz the least damped modes decay at about 1e-9 rad/s, far below the
    eigensolver's rounding on a matrix of norm 1.5e8: the computed margin comes out at about
    +1e-8 rad/s (8e-17 of the norm) here, which is rounding, not growth."""
    _, wp, params = run_wp({"params": {"kappa1_hz": 1e-10, "kappa2_hz": 1e-10},
                            "drives": {"c1": 1.0, "c2": 1.0}})
    norm = np.linalg.norm(wpmod.drift_matrix(wp, params))
    assert abs(om.stability_margin(wp, params)) < 1e-15 * norm
    wpmod.require_stable(wp, params, "derive")
