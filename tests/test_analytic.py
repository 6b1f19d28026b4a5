import json
import re
from itertools import permutations

import numpy as np
import pytest

import oemsim as om
from oemsim import analytic, cli
from oemsim.analytic import EIT_REGIME, NMS_REGIME, PURE_IMAG_TOL
from oemsim.linear_response import response_grid


def sweep_for(params, c1, c2):
    """root_trajectories' arguments at cooperativities c1, c2 (scalars or arrays):
    the rates and the drive weights s_i = C_i kappa_i gamma_m / 2."""
    k1, k2, g = params.kappa1, params.kappa2, params.gamma_m
    return k1, k2, g, c1 * k1 * g / 2.0, c2 * k2 * g / 2.0


def coeffs_for(params, c1, c2):
    return om.RwaCoefficients(*sweep_for(params, c1, c2))


def rows(kappa1, kappa2, gamma_m, s1, s2):
    """One RwaCoefficients per row of a root_trajectories sweep, for the scalar oracle."""
    return [om.RwaCoefficients(kappa1, kappa2, gamma_m, a, b)
            for a, b in zip(*np.broadcast_arrays(s1, s2))]


def test_empty_cavity_response(params):
    c = coeffs_for(params, 0.0, 0.0)
    assert om.response_rwa(0.0, c) == pytest.approx(2.0, rel=1e-14)
    x = 0.7 * params.kappa1
    assert om.response_rwa(x, c) == pytest.approx(2j * params.kappa1 / (x + 1j * params.kappa1))


def test_single_coupling_dip(params):
    c = coeffs_for(params, 40.0, 0.0)
    assert om.response_rwa(0.0, c) == pytest.approx(2.0 / 41.0, rel=1e-12)


def test_double_coupling_peak(params):
    c = coeffs_for(params, 40.0, 40.0)
    assert om.response_rwa(0.0, c) == pytest.approx(82.0 / 81.0, rel=1e-12)


def test_response_vectorized(params):
    c = coeffs_for(params, 40.0, 40.0)
    xs = np.linspace(-10, 10, 7) * params.gamma_m
    arr = om.response_rwa(xs, c)
    assert arr.shape == xs.shape
    for x, v in zip(xs, arr):
        assert v == om.response_rwa(float(x), c)


@pytest.mark.parametrize("c1, c2, rate, message", [
    (40.0, 40.0, "kappa2", "x + i*kappa2 vanished"),
    (40.0, 0.0, "gamma_m_half", "middle level of the response fraction vanished"),
    (0.0, 0.0, "kappa1", "response evaluated exactly on a pole"),
], ids=["inner", "middle", "outer"])
def test_response_on_an_exact_pole_is_refused(params, c1, c2, rate, message):
    """x = -i kappa2 zeroes the inner level; with s2 = 0, x = -i gamma_m / 2 the middle
    one; with s1 = s2 = 0, x = -i kappa1 the outer one."""
    c = coeffs_for(params, c1, c2)
    x = -1j * {"kappa1": c.kappa1, "kappa2": c.kappa2, "gamma_m_half": c.gamma_m / 2}[rate]
    with pytest.raises(om.SingularResponseError, match=re.escape(message)):
        om.response_rwa(x, c)


def test_decoupled_roots(params):
    c = coeffs_for(params, 0.0, 0.0)
    ps = om.denominator_roots(c)
    widths = ps.widths
    assert widths[0] == pytest.approx(params.kappa2, rel=1e-10)
    assert widths[1] == pytest.approx(params.gamma_m / 2.0, rel=1e-10)
    assert widths[2] == pytest.approx(params.kappa1, rel=1e-10)
    assert ps.classification == EIT_REGIME


def test_single_coupling_roots_match_quadratic_oracle(params):
    # with s2 = 0 the cubic factors into (x + i*kappa2) and a quadratic
    c = coeffs_for(params, 40.0, 0.0)
    k1, gh = c.kappa1, c.gamma_m / 2.0
    disc = (k1 - gh) ** 2 - 4.0 * c.s1  # positive below the critical drive
    assert disc > 0
    gam_fast = ((k1 + gh) + np.sqrt(disc)) / 2.0
    gam_slow = ((k1 + gh) - np.sqrt(disc)) / 2.0
    ps = om.denominator_roots(c)
    widths = sorted(ps.widths)
    assert widths[0] == pytest.approx(c.kappa2, rel=1e-9)
    assert widths[1] == pytest.approx(gam_slow, rel=1e-9)
    assert widths[2] == pytest.approx(gam_fast, rel=1e-9)
    assert ps.classification == EIT_REGIME
    # the slow pole approaches (1+C1)*gamma_m/2 in the Gamma_EIT << kappa1 limit
    assert gam_slow == pytest.approx(om.eit_width(40.0, c.gamma_m), rel=0.03)


def test_vieta_relations(params):
    for c1, c2 in ((0.0, 0.0), (40.0, 0.0), (40.0, 40.0), (7.0, 93.0)):
        c = coeffs_for(params, c1, c2)
        r = om.denominator_roots(c).roots
        s_sum = r[0] + r[1] + r[2]
        s_pairs = r[0] * r[1] + r[0] * r[2] + r[1] * r[2]
        s_prod = r[0] * r[1] * r[2]
        k1, k2, gh = c.kappa1, c.kappa2, c.gamma_m / 2.0
        expect_sum = -1j * (k1 + k2 + gh)
        expect_pairs = -(k1 * gh + k1 * k2 + gh * k2 + c.s1 + c.s2)
        expect_prod = 1j * (k1 * gh * k2 + c.s1 * k2 + c.s2 * k1)
        assert abs(s_sum - expect_sum) < 1e-9 * abs(expect_sum)
        assert abs(s_pairs - expect_pairs) < 1e-9 * abs(expect_pairs)
        assert abs(s_prod - expect_prod) < 1e-9 * abs(expect_prod)


def test_partial_fraction_reconstruction(params):
    # E_L = 2i*kappa1*N(x)/p(x) reconstructed from poles and residues
    c = coeffs_for(params, 40.0, 40.0)
    roots = np.array(om.denominator_roots(c).roots)
    g = c.gamma_m

    def numerator(x):
        return (x + 0.5j * g) * (x + 1j * c.kappa2) - c.s2

    def dpoly(x):
        total = 0.0
        for k in range(3):
            others = [roots[j] for j in range(3) if j != k]
            total += (x - others[0]) * (x - others[1])
        return total

    residues = [2j * c.kappa1 * numerator(r) / dpoly(r) for r in roots]
    rng = np.random.default_rng(5)
    for x in rng.uniform(-25 * g, 25 * g, 64):
        rebuilt = sum(res / (x - r) for res, r in zip(residues, roots))
        assert abs(rebuilt - om.response_rwa(float(x), c)) <= 1e-8 * abs(om.response_rwa(float(x), c))


def test_eit_regime_purity(params):
    c = coeffs_for(params, 40.0, 0.0)
    for r in om.denominator_roots(c).roots:
        assert abs(r.real) < 1e-6 * abs(r.imag)


def test_nms_regime_above_critical(params):
    # drive weight past the pole-collision threshold s1* = (kappa1 - gamma_m/2)^2/4
    s1_critical = (params.kappa1 - params.gamma_m / 2.0) ** 2 / 4.0
    c = om.RwaCoefficients(
        kappa1=params.kappa1, kappa2=params.kappa2, gamma_m=params.gamma_m,
        s1=2.0 * s1_critical, s2=0.0,
    )
    ps = om.denominator_roots(c)
    assert ps.classification == NMS_REGIME
    reals = sorted(r.real for r in ps.roots)
    assert reals[0] < 0 < reals[-1]  # conjugate-pair split


def test_root_continuity_in_s2(params):
    for ratio in (0.1, 0.5, 1.0):
        c_a = coeffs_for(params, 40.0, 40.0 * ratio)
        c_b = om.RwaCoefficients(
            kappa1=c_a.kappa1, kappa2=c_a.kappa2, gamma_m=c_a.gamma_m,
            s1=c_a.s1, s2=c_a.s2 * 1.001,
        )
        ra = np.array(om.denominator_roots(c_a).roots)
        rb = np.array(om.denominator_roots(c_b).roots)
        for root in ra:
            nearest = rb[np.argmin(np.abs(rb - root))]
            assert abs(nearest - root) < 0.01 * abs(root)


def test_trajectories_are_continuous(params):
    ratios = np.linspace(0.0, 1.0, 101)
    traj = om.root_trajectories(*sweep_for(params, 40.0, 40.0 * ratios))
    steps = np.abs(np.diff(traj, axis=0)) / np.abs(traj[:-1])
    assert steps.max() < 0.01
    # narrow branch grows from kappa2 toward ~2*kappa2
    narrow = -traj[:, 0].imag
    assert narrow[0] == pytest.approx(params.kappa2, rel=1e-6)
    assert 1.9 < narrow[-1] / params.kappa2 < 2.05
    assert np.all(np.diff(narrow) > 0)


def scalar_poles(c):
    """The per-set pole solve the batched one replaced: np.roots and one Newton step per root."""
    g = c.gamma_m
    k1, k2, gh, s1, s2 = c.kappa1 / g, c.kappa2 / g, 0.5, c.s1 / g**2, c.s2 / g**2
    coeffs = np.array([1.0, -(k1 + k2 + gh), k1 * gh + k1 * k2 + gh * k2 + s1 + s2,
                       -(k1 * gh * k2 + s1 * k2 + s2 * k1)])
    ys = []
    for y in np.roots(coeffs):
        p = np.polyval(coeffs, y)
        dp = np.polyval(np.polyder(coeffs), y)
        if dp != 0:
            y = y - p / dp
        ys.append(y)
    x = -1j * np.array(ys) * g
    x = x[np.lexsort((x.real, np.abs(x.imag)))]
    pure = all(abs(r.real) <= PURE_IMAG_TOL * max(abs(r.imag), g) for r in x)
    return x, EIT_REGIME if pure else NMS_REGIME


def scalar_trajectories(sets):
    out = np.empty((len(sets), 3), dtype=complex)
    for i, c in enumerate(sets):
        roots = scalar_poles(c)[0]
        if i:
            best = min(permutations(range(3)),
                       key=lambda p: sum(abs(roots[list(p)] - out[i - 1]) ** 2))
            roots = roots[list(best)]
        out[i] = roots
    return out


def same_bits(a, b):
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def random_sweep(rng, n):
    """root_trajectories' arguments for C1 along a line between two points around the
    critical drive, at a fixed C2/C1."""
    g = 10 ** rng.uniform(-1, 6)
    k1, k2 = g * 10 ** rng.uniform(0, 4), g * 10 ** rng.uniform(-3, 1)
    c_crit = (k1 / g - 0.5) ** 2 / (2 * k1 / g)  # s1 = (kappa1 - gamma_m/2)^2 / 4 at s2 = 0
    ratio = rng.uniform(0.0, 2.0) * rng.choice([0, 1])
    c1 = np.linspace(*(c_crit * 10 ** rng.uniform(-1, 1, 2)), n)
    return k1, k2, g, c1 * k1 * g / 2.0, ratio * c1 * k2 * g / 2.0


def test_batched_poles_match_scalar_oracle_bit_for_bit():
    rng = np.random.default_rng(41)
    # every gamma_m whose libm square g**2 differs from g*g in the last bit, then random ones
    odd = [g for g in 10 ** rng.uniform(-3, 9, 100_000) if g**2 != g * g]
    assert len(odd) > 20
    sets = []
    for g in odd + list(10 ** rng.uniform(-3, 9, 1500)):
        k1, k2 = g * 10 ** rng.uniform(-4, 5), g * 10 ** rng.uniform(-4, 5)
        s1 = g * g * 10 ** rng.uniform(-6, 8)
        s2 = g * g * 10 ** rng.uniform(-6, 8) * rng.choice([0, 1])
        sets.append(om.RwaCoefficients(k1, k2, g, s1, s2))
    # a constant term that underflows to 0 (np.roots deflates it), with and without a
    # vanishing derivative at the zero root
    sets += [om.RwaCoefficients(1e-200, 1e-200, 1.0, 1e-300, 0.0),
             om.RwaCoefficients(5e-324, 5e-324, 1.0, 0.0, 0.0)]
    regimes = set()
    for c in sets:
        ps = om.denominator_roots(c)
        roots, regime = scalar_poles(c)
        assert same_bits(ps.roots, roots), c
        assert ps.classification == regime
        regimes.add(regime)
    assert regimes == {EIT_REGIME, NMS_REGIME}
    assert sum(c.s2 == 0 for c in sets) > 500


def test_batched_trajectories_match_scalar_oracle_bit_for_bit():
    rng = np.random.default_rng(43)
    crossing = starts_nms = 0
    for _ in range(60):
        sweep = random_sweep(rng, int(rng.integers(2, 80)))
        sets = rows(*sweep)
        regimes = [scalar_poles(c)[1] for c in sets]
        crossing += len(set(regimes)) == 2
        starts_nms += regimes[0] == NMS_REGIME
        assert same_bits(om.root_trajectories(*sweep), scalar_trajectories(sets))
    assert crossing >= 10 and starts_nms >= 10


def test_roots_cli_matches_scalar_oracle_in_nms_regime(tmp_path, monkeypatch):
    seen = []
    real = analytic.root_trajectories

    def spy(*sweep):
        seen.append((rows(*sweep), real(*sweep)))
        return seen[-1][1]

    monkeypatch.setattr(analytic, "root_trajectories", spy)  # cli imports it per call
    path = tmp_path / "nms.json"
    path.write_text(json.dumps({"drives": {"c1": 800.0, "c2": 0.0},
                                "sweep": {"kind": "roots_vs_ratio", "n_points": 41}}))
    assert cli.main(["roots", "--scenario", str(path), "--out", str(tmp_path / "r.csv")]) == 0
    [(sets, traj)] = seen
    assert all(scalar_poles(c)[1] == NMS_REGIME for c in sets)
    assert same_bits(traj, scalar_trajectories(sets))


@pytest.mark.parametrize("n", [0, 1])
def test_trajectories_of_empty_and_single_sweeps(params, n):
    traj = om.root_trajectories(*sweep_for(params, np.full(n, 40.0), 40.0))
    assert traj.shape == (n, 3) and traj.dtype == complex
    if n:
        assert same_bits(traj[0], om.denominator_roots(coeffs_for(params, 40.0, 40.0)).roots)


@pytest.mark.parametrize("name, value, message", [
    ("s1", np.array([1.0, -1.0, 2.0]), "row 1: s1 must be finite and >= 0, got -1.0"),
    ("s2", np.array([1.0, 2.0, np.inf]), "row 2: s2 must be finite and >= 0, got inf"),
    ("s2", np.array([np.nan, 1.0, 1.0]), "row 0: s2 must be finite and >= 0, got nan"),
    ("kappa1", 0.0, "kappa1 must be finite and > 0, got 0.0"),
    ("gamma_m", np.inf, "gamma_m must be finite and > 0, got inf"),
])
def test_trajectories_reject_invalid_rates_and_weights(params, name, value, message):
    sweep = dict(zip(("kappa1", "kappa2", "gamma_m", "s1", "s2"),
                     sweep_for(params, 40.0, np.full(3, 40.0))))
    sweep[name] = value
    with pytest.raises(om.InvalidParameterError, match=re.escape(message)):
        om.root_trajectories(**sweep)


def test_eia_splitting_trivial_and_degenerate(params):
    gamma_eit = om.eit_width(40.0, params.gamma_m)
    off = om.eia_splitting(gamma_eit, 0.0, params.kappa2)
    assert off.gamma_plus == gamma_eit
    assert off.gamma_minus == 0.0
    assert off.gamma_eia_approx == params.kappa2
    deg = om.eia_splitting(gamma_eit, gamma_eit**2 / 4.0, params.kappa2)
    assert deg.gamma_plus == pytest.approx(gamma_eit / 2.0)
    assert deg.gamma_minus == pytest.approx(gamma_eit / 2.0)


def test_eia_splitting_reference_point(params, wp_c40):
    coeffs = om.RwaCoefficients.from_working_point(wp_c40, params)
    gamma_eit = om.eit_width(40.0, params.gamma_m)
    split = om.eia_splitting(gamma_eit, coeffs.s2, params.kappa2)
    assert split.narrow_coupling
    assert 4.0 * coeffs.s2 / gamma_eit**2 == pytest.approx(0.019, abs=0.002)
    # kappa2 * (1 + C2/(1+C1)) = kappa2 * (1 + 40/41)
    assert split.gamma_eia_approx == pytest.approx(params.kappa2 * 81.0 / 41.0, rel=1e-9)
    assert split.gamma_eia_approx == pytest.approx(0.198 * params.gamma_m, abs=0.001 * params.gamma_m)


def test_eia_splitting_complex_branch(params):
    gamma_eit = om.eit_width(40.0, params.gamma_m)
    split = om.eia_splitting(gamma_eit, gamma_eit**2, params.kappa2)
    assert split.gamma_plus.imag != 0.0
    assert split.gamma_minus == np.conj(split.gamma_plus)
    assert not split.narrow_coupling


def test_peak_height_formulas():
    perfect = om.peak_height(40.0, 40.0)
    assert perfect.exact == pytest.approx(82.0 / 81.0, rel=1e-14)
    assert perfect.large_c_approx == pytest.approx(1.0, rel=1e-14)
    dip = om.peak_height(40.0, 0.0)
    assert dip.exact == pytest.approx(2.0 / 41.0, rel=1e-14)
    assert dip.large_c_approx is None
    half = om.peak_height(40.0, 20.0)
    assert half.exact == pytest.approx(42.0 / 61.0, rel=1e-14)
    assert half.large_c_approx == pytest.approx(2.0 / 3.0, rel=1e-14)


def test_peak_height_matches_response_at_zero(params):
    rng = np.random.default_rng(19)
    for _ in range(32):
        c1 = rng.uniform(0.0, 200.0)
        c2 = rng.uniform(0.0, 200.0)
        c = coeffs_for(params, c1, c2)
        assert om.peak_height(c1, c2).exact == pytest.approx(
            om.response_rwa(0.0, c).real, rel=1e-12, abs=1e-12
        )
        assert abs(om.response_rwa(0.0, c).imag) < 1e-12


@pytest.mark.parametrize("c1", [10.0, 40.0])
def test_routing_optima_at_line_center(params, c1):
    """RWA at x = 0: reflection vanishes at C2 = C1 - 1 (transmission C2/C1), transmission
    peaks at C2 = C1 + 1 (at C1/(C1 + 1)), and C2 = C1 reflects (1/(1 + 2 C1))^2."""
    p1 = cli.invert_cooperativity(params, c1, 0.0)[0].p_c1

    def line_center(c2):
        _, wp = cli.invert_cooperativity(params, None, c2, p_c1=p1)
        return response_grid(wp, params, params.omega_m, "rwa")

    dark = line_center(c1 - 1.0)
    assert dark.reflect_flux < 1e-24
    assert dark.transmit_flux == pytest.approx((c1 - 1.0) / c1, rel=1e-10)
    assert line_center(c1).reflect_flux == pytest.approx((1.0 / (1.0 + 2.0 * c1)) ** 2, rel=1e-8)
    best = line_center(c1 + 1.0).transmit_flux
    assert best == pytest.approx(c1 / (c1 + 1.0), rel=1e-10)
    for c2 in (c1, c1 + 0.5, c1 + 1.5, c1 + 2.0):
        assert line_center(c2).transmit_flux < best


def test_large_c_approx_converges():
    errors = []
    for c1 in (10.0, 100.0, 1000.0):
        c2 = c1 / 2.0
        ph = om.peak_height(c1, c2)
        errors.append(abs(ph.large_c_approx - ph.exact))
    assert errors[0] > errors[1] > errors[2]


@pytest.mark.parametrize("c2", [0.4, 4.0, 40.0, 400.0])
def test_rwa_response_is_rebuilt_from_its_poles(params, c2):
    """E_L(x) = 2i kappa1 N(x) / p(x) with N(x) = (x + i gamma_m/2)(x + i kappa2) - s2 and p
    the monic pole cubic, so E_L is the sum of its pole terms R_k / (x - x_k), the residues sum
    to 2i kappa1, and T(x) = 4 kappa1 kappa2 s1 s2 / |p(x)|^2.  No C2 here is at an
    exceptional point, where two residues diverge."""
    _, wp = cli.invert_cooperativity(params, 40.0, c2)
    k1, k2, g = params.kappa1, params.kappa2, params.gamma_m
    s1, s2 = params.g1**2 * wp.n1 / 2.0, params.g2**2 * wp.n2 / 2.0
    poles = om.root_trajectories(k1, k2, g, s1, s2)[0]
    x = np.linspace(-30.0, 30.0, 2001) * g
    resp = response_grid(wp, params, params.omega_m + x, "rwa")

    def numerator(z):
        return 2j * k1 * ((z + 0.5j * g) * (z + 1j * k2) - s2)

    p = np.prod(x[:, None] - poles, axis=1)
    residues = np.array([numerator(z) / np.prod(z - np.delete(poles, k))
                         for k, z in enumerate(poles)])
    for rebuilt in (numerator(x) / p, (residues / (x[:, None] - poles)).sum(axis=1)):
        assert np.all(np.abs(rebuilt - resp.e_l) <= 1e-11 * np.abs(resp.e_l))
    assert abs(residues.sum() - 2j * k1) <= 1e-14 * 2.0 * k1
    transmit = 4.0 * k1 * k2 * s1 * s2 / np.abs(p) ** 2
    np.testing.assert_allclose(transmit, resp.transmit_flux, rtol=1e-11, atol=0)
