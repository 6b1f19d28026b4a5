import json
import re
from fractions import Fraction

import numpy as np
import pytest

import oemsim as om
from oemsim import cli
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


@pytest.mark.parametrize("c1, c2, cavity", [(-1.0, 0.0, 1), (np.nan, 0.0, 1), (np.inf, 0.0, 1),
                                            (40.0, -1.0, 2)],
                         ids=["c1_negative", "c1_nan", "c1_inf", "c2_negative"])
def test_inversion_refuses_a_bad_target_naming_its_cavity(params, c1, c2, cavity):
    """Every target goes through the envelope's cooperativity row, so a negative or
    non-finite one is refused in that row's words and names the target's cavity."""
    message = f"target cooperativity C{cavity} must be finite and >= 0, got "
    with pytest.raises(om.InvalidParameterError, match="^" + re.escape(message)):
        wpmod.invert_cooperativity(params, c1, c2)


# README "Supported inputs": cavity 1's Lorentzian puts two polynomial roots near
# |q0| = kappa1/g1 = 1e18, so np.roots resolves the others only to about 1e2 in q0, far
# coarser than cavity 2's Lorentzian, kappa2/g2 = 1e-12 wide.
ROOT_CORNER = {"detuning_mode": "bare", "params": {
    "omega_c1_hz": 1e16, "omega_c2_hz": 1e16, "omega_m_hz": 4408261.408548234,
    "gamma_m_hz": 44824417.361899644, "kappa1_hz": 1e12, "kappa2_hz": 0.001, "g1_hz": 1e-6,
    "g2_hz": 1e9, "delta1_hz": -0.001, "delta2_hz": 0}, "drives": {"p_c1": 1e-12, "p_c2": 1e-12}}


def test_bare_root_corner_finds_its_root():
    """The balance runs from -inf to +inf in q0, so a root exists; the solve should find
    one that meets the 1e-10 force-balance residual."""
    scenario = cli.Scenario.from_dict(ROOT_CORNER)
    drives = om.DriveConfig(**scenario.drives)
    wp = om.solve_working_point(scenario.params, drives, scenario.detuning_mode)
    assert residuals(wp, scenario.params, drives)[2] <= 1e-10


@pytest.mark.parametrize("p_c2, code, message", [
    (1e-12, 3, "summary [as driven, tone 2 off] row 0: unstable working point"),
    (1e-18, 0, "note: "),  # cavity 2 sits far off two-photon resonance
], ids=["unstable", "stable"])
def test_bare_root_corner_derive_judges_its_root(tmp_path, capsys, p_c2, code, message):
    """``derive`` at the root corner gets past the solve.  At 1 pW on tone 2 the root's
    linearized dynamics grow (exit 3 names it); at 1e-18 W they decay (exit 0)."""
    path = tmp_path / "corner.json"
    path.write_text(json.dumps({**ROOT_CORNER, "drives": {"p_c1": 1e-12, "p_c2": p_c2}}))
    assert cli.main(["derive", "--scenario", str(path)]) == code
    err = capsys.readouterr().err
    assert message in err and "no real root" not in err


def exact_balance(params, e1, e2, q):
    """omega_m q - g1 n1(q) + g2 n2(q) in exact rational arithmetic on the float inputs."""
    q = Fraction(q)
    f = Fraction(params.omega_m) * q
    for s, delta, kappa, e in ((-params.g1, params.delta_bare1, params.kappa1, e1),
                               (params.g2, params.delta_bare2, params.kappa2, e2)):
        d = Fraction(delta) + Fraction(s) * q
        f += Fraction(s) * Fraction(e) ** 2 / (Fraction(kappa) ** 2 + d * d)
    return f


def brackets_a_root(params, drives, q, rel=1e-9):
    """Whether the exact balance changes sign across q (1 +/- rel), widened by the smallest
    subnormal float so that a subnormal q, which carries few digits, is judged too."""
    e1 = om.drive_amplitude(drives.p_c1, params.omega_c1, params.kappa1)
    e2 = om.drive_amplitude(drives.p_c2, params.omega_c2, params.kappa2)
    half = abs(Fraction(q)) * Fraction(rel) + Fraction(2) ** -1074
    lo, hi = (exact_balance(params, e1, e2, Fraction(q) + k * half) for k in (-1, 1))
    return lo * hi < 0


def bare_params(hz):
    return cli.Scenario.from_dict({"detuning_mode": "bare", "params": hz}).params


# Found on seeded envelope draws, each against a 60-digit root set of the balance polynomial.
# Two roots below 1 in |q0|, far apart relative to themselves: not a tie.
SMALL_PAIR = {"omega_c1_hz": 1.585e6, "omega_c2_hz": 6.015e13, "omega_m_hz": 1.712,
              "gamma_m_hz": 7.581, "kappa1_hz": 1.665e5, "kappa2_hz": 1e-3, "g1_hz": 1e-6,
              "g2_hz": 1e9, "delta1_hz": 4.314e7, "delta2_hz": -0.208}
# A close root pair near q0 = -0.1411, 4e-5 apart relative.  np.roots on the polynomial puts
# it at -0.14123 and -0.14103, too far off for the Newton polish to meet the residual gate;
# the reversal resolves the pair.  q0 = -6.61 is the next root out.
REVERSAL_PAIR = {
    "omega_c1_hz": 293021630023938.06, "omega_c2_hz": 18931548.668736655,
    "omega_m_hz": 10970272669.258842, "gamma_m_hz": 2.566735615854066, "kappa1_hz": 0.001,
    "kappa2_hz": 262006846844.46, "g1_hz": 109271831.78603223, "g2_hz": 0.0010920225459498903,
    "delta1_hz": -15421490.443920098, "delta2_hz": 1e13}
REVERSAL_DRIVES = {"p_c1": 4.3073155749547976e-08, "p_c2": 1000.0}
# One root of about 4e-9, where a residual judged against max(|q0|, 1) admits a value 0.7%
# away from it.
SMALL_ROOT = {
    "omega_c1_hz": 1e16, "omega_c2_hz": 1e6, "omega_m_hz": 180382412.91111457,
    "gamma_m_hz": 123097.91576758912, "kappa1_hz": 19511543914.937836,
    "kappa2_hz": 0.0022192810258904734, "g1_hz": 1e9, "g2_hz": 1.4573534222084673e-06,
    "delta1_hz": -1e13, "delta2_hz": -6316318.854513209}

# A root pair 5e-7 apart relative on cavity 2's Lorentzian, kappa2/g2 = 1e-12 wide: between
# adjacent floats the balance steps by 8e-10 of its scale, so no float meets 1e-10.
STEEP_PAIR = {
    "omega_c1_hz": 1942125.4630617101, "omega_c2_hz": 32190489.247760322,
    "omega_m_hz": 6934895.7019735435, "gamma_m_hz": 40146.1898275262, "kappa1_hz": 1e12,
    "kappa2_hz": 0.001, "g1_hz": 4726.001812851307, "g2_hz": 1e9,
    "delta1_hz": 185251.35122947724, "delta2_hz": -33601335141.806545}
# The same on cavity 1's Lorentzian, for the held balance of a C2 target at 1 pW on tone 1.
STEEP_HELD_PAIR = {
    "omega_c1_hz": 49563927299212.57, "omega_c2_hz": 1e16, "omega_m_hz": 1249394019.4658082,
    "gamma_m_hz": 76.18752084464015, "kappa1_hz": 0.03970373952838794,
    "kappa2_hz": 48945.2390837213, "g1_hz": 1e9, "g2_hz": 1e-6, "delta1_hz": -604923.3174540276,
    "delta2_hz": 0.001}
# A root pair 2.8e-13 apart relative at cavity 1's Lorentzian center delta1/g1 = 1e4, whose
# width kappa1/g1 is 1e-12: the smallest-|q0| roots are 9999.999999998618 and
# 10000.00000000138, and -2302372.299 is the next root out.
CLOSE_PAIR = {
    "omega_c1_hz": 2.720983297043495e15, "omega_c2_hz": 393269427.2510466, "omega_m_hz": 1e11,
    "gamma_m_hz": 1e-3, "kappa1_hz": 1e-3, "kappa2_hz": 1e-3, "g1_hz": 1e9, "g2_hz": 1e-6,
    "delta1_hz": 1e13, "delta2_hz": -1e-3}
# Delta2 rounds to 0 near q0 = -1e-12, where the float balance reads exactly 0; the exact
# balance keeps its sign there, and its only real root is 1.923e10.
ZERO_READING = {
    "omega_c1_hz": 1e6, "omega_c2_hz": 1e6, "omega_m_hz": 67.55296712811675,
    "gamma_m_hz": 2312110476.855714, "kappa1_hz": 1e12, "kappa2_hz": 1e-3, "g1_hz": 1e9,
    "g2_hz": 1e9, "delta1_hz": -1e-3, "delta2_hz": 1e-3}


def test_distinct_small_roots_are_not_tied():
    """q0 = -3.347e-10 and 7.507e-10 differ by more than their own size; the smaller one is
    the operating point, flagged as one of several."""
    params, drives = bare_params(SMALL_PAIR), om.DriveConfig(1e3, 1e-12)
    wp = om.solve_working_point(params, drives, "bare")
    assert wp.multiple_roots
    assert wp.q0 == pytest.approx(-3.3471563919997663e-10, rel=1e-9, abs=0.0)
    assert brackets_a_root(params, drives, wp.q0)
    assert brackets_a_root(params, drives, 7.507156391999765e-10)


def test_bare_solve_finds_the_root_pair_only_the_reversal_resolves(tmp_path, capsys):
    """``derive`` reports the smallest-|q0| root -0.141126588029, not the next root out."""
    params, drives = bare_params(REVERSAL_PAIR), om.DriveConfig(**REVERSAL_DRIVES)
    wp = om.solve_working_point(params, drives, "bare")
    assert wp.multiple_roots
    assert brackets_a_root(params, drives, wp.q0)
    assert brackets_a_root(params, drives, -6.613582093601769)
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"detuning_mode": "bare", "params": REVERSAL_PAIR,
                                "drives": REVERSAL_DRIVES}))
    assert cli.main(["derive", "--scenario", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["q0"] == -0.141126588029


def test_bare_solve_judges_a_small_root_relative_to_itself():
    """The root -3.6970e-9 is the operating point; -3.7231e-9, which met a residual gate
    scaled by max(|q0|, 1), is no root: the exact balance keeps its sign across it."""
    params, drives = bare_params(SMALL_ROOT), om.DriveConfig(1.0794921254589554e-10,
                                                             4.310486936781348e-05)
    wp = om.solve_working_point(params, drives, "bare")
    assert not wp.multiple_roots
    assert wp.q0 == pytest.approx(-3.69695422007e-09, rel=1e-11, abs=0.0)
    assert brackets_a_root(params, drives, wp.q0)
    assert not brackets_a_root(params, drives, -3.72313024855e-09)


@pytest.mark.parametrize("power", [5e-324, 1e-310, 1e-300])
@pytest.mark.parametrize("tones", [(1, 1), (1, 0), (0, 1)], ids=["both", "tone1", "tone2"])
def test_subnormal_powers_solve(params, power, tones):
    """Photon numbers, forces and q0 below the normal float range still meet the balance:
    its residual gate has the smallest normal float as its floor.  At 5e-324 W the
    polynomial's constant term is so small that its reversal's companion matrix overflows;
    the reversal then adds no candidates."""
    drives = om.DriveConfig(power * tones[0], power * tones[1])
    wp = om.solve_working_point(params, drives, "bare")
    assert not wp.multiple_roots
    assert brackets_a_root(params, drives, wp.q0)


def test_a_root_steeper_than_the_float_spacing_meets_the_gate():
    """The residual gate allows |d balance/dq| times the float spacing of q: the smallest-|q0|
    root 33.6013 is the operating point, not the next root out at 1.08e7."""
    params = bare_params(STEEP_PAIR)
    drives = om.DriveConfig(6.424257004542835e-05, 4.062910482259703e-10)
    wp = om.solve_working_point(params, drives, "bare")
    assert wp.multiple_roots
    assert wp.q0 == pytest.approx(33.60132615644084, rel=1e-12, abs=0.0)
    assert brackets_a_root(params, drives, wp.q0)
    assert brackets_a_root(params, drives, 33.601344127172254)


def test_inversion_holds_the_smallest_root_of_a_steep_pair():
    """The held balance's roots -6.049229556e-4 and -6.049236793e-4 are 1.2e-6 apart
    relative; the inversion lands on the smaller |q0| and meets its C2 target."""
    params, c2 = bare_params(STEEP_HELD_PAIR), 778.7992174772619
    drives, wp = wpmod.invert_cooperativity(params, None, c2, "bare", p_c1=1e-12)
    assert wp.q0 == pytest.approx(-6.049229556101775e-04, rel=1e-12, abs=0.0)
    assert brackets_a_root(params, drives, wp.q0)
    achieved = om.cooperativity(params.g2, wp.n2, params.kappa2, params.gamma_m)
    assert abs(achieved - c2) <= 1e-12 * c2


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="known bare-solve fault: a root pair closer than about 1e-7 "
                          "relative is missed, and the next root out is returned")
def test_bare_solve_resolves_a_close_root_pair_at_a_lorentzian_center():
    """The operating point is the pair's smaller root 9999.999999998618, flagged as one of
    several; the exact balance changes sign across it within 1e-15 relative, a window that
    leaves out the pair's other root, 2.8e-13 relative away."""
    params, drives = bare_params(CLOSE_PAIR), om.DriveConfig(0.16096495547884337, 1e3)
    wp = om.solve_working_point(params, drives, "bare")
    assert wp.q0 == pytest.approx(9999.999999998618, rel=1e-15, abs=0.0)
    assert wp.multiple_roots
    assert brackets_a_root(params, drives, wp.q0, rel=1e-15)
    assert brackets_a_root(params, drives, 10000.00000000138, rel=1e-15)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="known bare-solve fault: a float balance that reads exactly 0 "
                          "off every root is taken for a root")
def test_bare_solve_takes_no_zero_reading_for_a_root():
    """The only real root is 1.923e10; q0 = -1e-12, where the float balance reads 0, is no
    root: the exact balance keeps its sign across it."""
    params, drives = bare_params(ZERO_READING), om.DriveConfig(1e3, 1e-12)
    assert not brackets_a_root(params, drives, -1.0000000000000002e-12)
    wp = om.solve_working_point(params, drives, "bare")
    assert wp.q0 == pytest.approx(1.9230174401882e10, rel=1e-12, abs=0.0)
    assert not wp.multiple_roots
    assert brackets_a_root(params, drives, wp.q0)
