"""The closed-form force-balance roots against the scalar grid scan they replaced.

The scan is kept as the oracle: one Python call of the residual per grid
point, brackets found in a loop and polished by ``scipy.optimize.brentq``.
"""

import numpy as np
import pytest

import oemsim as om
from oemsim import working_point as wpmod

optimize = pytest.importorskip("scipy.optimize")


def force_residual(q, e1, e2, params):
    """omega_m*q - g1 n1(q) + g2 n2(q); zero at a self-consistent q0."""
    d1 = params.delta_bare1 - params.g1 * q
    d2 = params.delta_bare2 + params.g2 * q
    n1 = e1 * e1 / (params.kappa1 * params.kappa1 + d1 * d1)
    n2 = e2 * e2 / (params.kappa2 * params.kappa2 + d2 * d2)
    return params.omega_m * q - params.g1 * n1 + params.g2 * n2


def scalar_scan_roots(e1, e2, params):
    """Oracle: a padded, locally refined grid scanned point by point."""
    g1, g2 = params.g1, params.g2
    n1_max = e1 * e1 / params.kappa1**2
    n2_max = e2 * e2 / params.kappa2**2
    q_max = (g1 * n1_max + g2 * n2_max) / params.omega_m
    if q_max == 0.0:
        return [0.0]
    lo, hi = -1.05 * q_max - 1.0, 1.05 * q_max + 1.0

    grid = np.linspace(lo, hi, 4001)
    for center, width in (
        (params.delta_bare1 / g1 if g1 > 0 else None, params.kappa1 / g1 if g1 > 0 else 0),
        (-params.delta_bare2 / g2 if g2 > 0 else None, params.kappa2 / g2 if g2 > 0 else 0),
    ):
        if center is not None and lo < center < hi and width > 0:
            local = np.linspace(center - 10 * width, center + 10 * width, 801)
            grid = np.concatenate([grid, local[(local > lo) & (local < hi)]])
    grid = np.unique(grid)

    values = np.array([force_residual(q, e1, e2, params) for q in grid])
    roots = []
    for i in range(len(grid) - 1):
        a, b = values[i], values[i + 1]
        if a == 0.0:
            roots.append(grid[i])
        elif a * b < 0.0:
            roots.append(
                optimize.brentq(force_residual, grid[i], grid[i + 1],
                                args=(e1, e2, params), xtol=1e-14, rtol=1e-14)
            )
    if values[-1] == 0.0:
        roots.append(grid[-1])
    merged = []
    scale = max(abs(hi), 1.0)
    for r in sorted(roots):
        if not merged or abs(r - merged[-1]) > 1e-9 * scale:
            merged.append(r)
    return merged


def amplitudes(params, p_c1, p_c2):
    return (om.drive_amplitude(p_c1, params.omega_c1, params.kappa1),
            om.drive_amplitude(p_c2, params.omega_c2, params.kappa2))


def real_roots(e1, e2, params):
    return wpmod._real_roots(params, wpmod._terms(params, e1, e2))


def assert_same_roots(got, expected):
    assert len(got) == len(expected), (got, expected)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)


def test_bistable_point_matches_scalar_scan(params):
    e1, e2 = amplitudes(params, 40e-3, 0.0)
    roots = real_roots(e1, e2, params)
    assert len(roots) == 3
    assert_same_roots(roots, scalar_scan_roots(e1, e2, params))


def test_random_parameters_match_scalar_scan():
    rng = np.random.default_rng(1301)
    counts = set()
    for _ in range(400):
        f = lambda: rng.uniform(0.5, 1.5)  # noqa: E731
        p = om.SystemParams.from_hz(
            omega_c1=4e14 * f(), omega_c2=1e10 * f(), omega_m=1e7 * f(),
            gamma_m=1e3 * f(), kappa1=1e6 * f(), kappa2=1e2 * f(),
            g1=50 * f(), g2=5 * f(),
            delta_bare1=1e7 * rng.uniform(0.8, 1.2), delta_bare2=1e7 * rng.uniform(0.8, 1.2),
        )
        p_c2 = 10.0 ** rng.uniform(-7, -5) if rng.uniform() < 0.5 else 0.0
        e1, e2 = amplitudes(p, 10.0 ** rng.uniform(-3.5, -1.2), p_c2)
        roots = real_roots(e1, e2, p)
        assert_same_roots(roots, scalar_scan_roots(e1, e2, p))
        counts.add(len(roots))
    assert counts >= {1, 3}  # both monostable and bistable draws


def test_undriven_scan_is_origin(params):
    assert real_roots(0.0, 0.0, params) == scalar_scan_roots(0.0, 0.0, params) == [0.0]


@pytest.mark.parametrize("p_c2", [8.25e-9, 8.3e-9, 8.3265e-9])
def test_fold_band_keeps_only_the_true_root(params, p_c2):
    """Just below the lower fold of bare C1 = 40, np.roots gives a complex pair near
    q = -2e6 whose imaginary part passes as negligible, and the polish sends it to
    79.99977, where the balance misses by 2e3.  The residual gate drops it."""
    e1, e2 = amplitudes(params, 1.3445e-3, p_c2)
    assert_same_roots(real_roots(e1, e2, params), scalar_scan_roots(e1, e2, params))
