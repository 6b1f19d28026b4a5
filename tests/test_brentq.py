"""The package's Brent root finder: bit-identical to scipy, and its failures.

``working_point._brentq`` is a port of scipy's ``brentq.c``; these tests pin
that it returns the very same float on random brackets at every tolerance
pair the package uses, and that its failures surface as ConvergenceError and
CLI exit code 3.
"""

import functools
import math

import numpy as np
import pytest

import oemsim as om
from oemsim import cli
from oemsim import working_point as wpmod

# (xtol, rtol): working-point polish, cooperativity inversion, scipy defaults
TOLERANCES = [(1e-14, 1e-14), (1e-18, 1e-13), (2e-12, 4 * np.finfo(float).eps)]


def random_brackets(rng, count):
    """(f, a, b) with f(a), f(b) of opposite sign, from six function families."""
    cases = []
    k = 0
    while len(cases) < count:
        family = k % 6
        k += 1
        a, b = sorted(rng.uniform(-1.0, 1.0, 2) * 10.0 ** rng.uniform(-6, 6))
        r = rng.uniform(a, b)
        if family == 0:
            c = rng.normal(size=6)
            s = 10.0 ** rng.uniform(-3, 3)
            f = lambda x, c=c, s=s: float(np.polyval(c, x / s))  # noqa: E731
        elif family == 1:
            slope = rng.uniform(0.1, 5.0) / (b - a)
            f = lambda x, r=r, k=slope: math.tanh(k * (x - r)) + 1e-3  # noqa: E731
        elif family == 2:  # products of f values underflow to zero
            f = lambda x, r=r: 1e-200 * (x - r)  # noqa: E731
        elif family == 3:
            f = lambda x, r=r, a=a, w=b - a: (  # noqa: E731
                math.exp(5.0 * (x - a) / w) - math.exp(5.0 * (r - a) / w))
        elif family == 4:  # triple root, flat bracket
            f = lambda x, r=r: 1e-150 * (x - r) ** 3  # noqa: E731
        else:  # narrow Lorentzian-derivative feature, like the force balance
            w = (b - a) * 10.0 ** rng.uniform(-8, 0)
            f = lambda x, r=r, w=w: (x - r) / ((x - r) ** 2 + w * w) + 0.01 / w  # noqa: E731
        fa, fb = f(a), f(b)
        if fa != 0.0 and fb != 0.0 and math.copysign(1.0, fa) != math.copysign(1.0, fb):
            cases.append((f, a, b))
    return cases


def test_bit_identical_to_scipy():
    optimize = pytest.importorskip("scipy.optimize")
    cases = random_brackets(np.random.default_rng(20130114), 1200)
    for xtol, rtol in TOLERANCES:
        for f, a, b in cases:
            expected = optimize.brentq(f, a, b, xtol=xtol, rtol=rtol)
            got = wpmod._brentq(f, a, b, xtol=xtol, rtol=rtol)
            assert got == expected, (a, b, xtol, rtol)
            assert type(got) is float


def test_bit_identical_to_scipy_on_force_balance(params):
    optimize = pytest.importorskip("scipy.optimize")
    e1 = om.drive_amplitude(40e-3, params.omega_c1, params.kappa1)
    e2 = om.drive_amplitude(3.3e-6, params.omega_c2, params.kappa2)
    grid = np.linspace(-2e6, 2e6, 801)
    values = wpmod._force_residual(grid, e1, e2, params)
    brackets = np.flatnonzero(values[:-1] * values[1:] < 0.0)
    assert len(brackets) > 1
    for i in brackets:
        args = (grid[i], grid[i + 1])
        kw = dict(args=(e1, e2, params), xtol=1e-14, rtol=1e-14)
        assert wpmod._brentq(wpmod._force_residual, *args, **kw) == optimize.brentq(
            wpmod._force_residual, *args, **kw)


def test_failures_raise_convergence_error():
    with pytest.raises(om.ConvergenceError, match="NaN"):
        wpmod._brentq(lambda x: math.nan if x > 0.2 else x - 0.5, 0.0, 1.0)
    with pytest.raises(om.ConvergenceError, match="did not converge") as info:
        wpmod._brentq(lambda x: math.tanh(x - 0.3), 0.0, 1.0, maxiter=2)
    assert 0.0 < info.value.residual < 1.0
    with pytest.raises(om.ConvergenceError, match="no sign change"):
        wpmod._brentq(lambda x: x + 1.0, 0.0, 1.0)
    # exact zeros at the ends are roots, as in scipy
    assert wpmod._brentq(lambda x: x, 0.0, 1.0) == 0.0
    assert wpmod._brentq(lambda x: x - 1.0, 0.0, 1.0) == 1.0


def test_nan_during_inversion_exits_3(params, monkeypatch, capsys):
    real_cooperativity = cli.cooperativity
    n_target = 40.0 * params.kappa1 * params.gamma_m / params.g1**2

    def nan_inside_bracket(g, n, kappa, gamma_m):
        # the bracket ends (n = 0 and n = 2 n_target) stay finite
        if 0.0 < n < 1.5 * n_target:
            return math.nan
        return real_cooperativity(g, n, kappa, gamma_m)

    monkeypatch.setattr(cli, "cooperativity", nan_inside_bracket)
    with pytest.raises(om.ConvergenceError, match="NaN"):
        cli.invert_cooperativity(40.0, 1, params)
    assert cli.main(["invert", "--target", "40", "--cavity", "1"]) == 3
    assert "solver error" in capsys.readouterr().err


def test_non_convergence_during_inversion_exits_3(params, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_brentq", functools.partial(wpmod._brentq, maxiter=1))
    with pytest.raises(om.ConvergenceError, match="did not converge"):
        cli.invert_cooperativity(40.0, 1, params)
    assert cli.main(["invert", "--target", "40", "--cavity", "1"]) == 3
    assert "solver error" in capsys.readouterr().err
