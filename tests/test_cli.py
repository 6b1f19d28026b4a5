import inspect
import json
import math
import warnings

import numpy as np
import pytest

import oemsim as om
from oemsim import cli, linear_response


def run_main(args):
    return cli.main([str(a) for a in args])


def test_parse_power_forms():
    assert cli.parse_power(1.3e-3) == 1.3e-3
    assert cli.parse_power("1.3mW") == pytest.approx(1.3e-3)
    assert cli.parse_power("3.3uW") == pytest.approx(3.3e-6)
    assert cli.parse_power("3.3µW") == pytest.approx(3.3e-6)
    assert cli.parse_power("2W") == 2.0
    assert cli.parse_power("5nW") == pytest.approx(5e-9)
    with pytest.raises(om.ScenarioError):
        cli.parse_power("five watts")
    with pytest.raises(om.ScenarioError):
        cli.parse_power("1.3mJ")


def test_invert_cooperativity_trivial_and_reference(params):
    assert cli.invert_cooperativity(params, 0.0, 0.0)[0] == om.DriveConfig(0.0, 0.0)
    p1 = cli.invert_cooperativity(params, 40.0, 0.0)[0].p_c1
    assert p1 == pytest.approx(1.3e-3, rel=0.05)
    p2 = cli.invert_cooperativity(params, 0.0, 40.0)[0].p_c2
    assert p2 == pytest.approx(3.3e-6, rel=0.05)
    p2_half = cli.invert_cooperativity(params, 0.0, 20.0)[0].p_c2
    assert p2_half == pytest.approx(1.6e-6, rel=0.05)
    # round trip through the working point
    wp = om.solve_working_point(params, om.DriveConfig(p_c1=p1, p_c2=p2))
    assert om.cooperativity(params.g1, wp.n1, params.kappa1, params.gamma_m) == pytest.approx(
        40.0, rel=1e-3
    )


def test_invert_cooperativity_unreachable():
    p = om.SystemParams.from_hz(
        omega_c1=4e14, omega_c2=1e10, omega_m=1e7, gamma_m=1e3,
        kappa1=1e6, kappa2=1e2, g1=0.0, g2=5.0,
    )
    with pytest.raises(om.ConvergenceError):
        cli.invert_cooperativity(p, 10.0, 0.0)


def test_inverted_power_is_not_bounded_by_the_power_row(params):
    """The envelope bounds the targets a caller sets, not the powers they need: C1 = 1e9
    needs n1 hbar omega_c1 (kappa1^2 + Delta1^2) / (2 kappa1) = 3.4e4 W at the reference
    rates, past the 1 kW that a caller may give, and the forward solve meets it.  A target
    past 1e9 is refused, naming it."""
    drives, wp = cli.invert_cooperativity(params, 1e9, 0.0)
    assert drives.p_c1 == pytest.approx(33639.32388, rel=1e-9)
    assert om.cooperativity(params.g1, wp.n1, params.kappa1, params.gamma_m) == pytest.approx(
        1e9, rel=1e-12)
    with pytest.raises(om.InvalidParameterError, match=r"^p_c1 = 33639\.3238\d* W is outside"):
        om.DriveConfig(*drives)
    refusal = r"^target cooperativity C1 = 2000000000 is outside the supported range 0 to 1e\+09$"
    with pytest.raises(om.InvalidParameterError, match=refusal):
        cli.invert_cooperativity(params, 2e9, 0.0)


def test_nan_during_inversion_exits_3(params, monkeypatch, capsys):
    real_cooperativity = cli.cooperativity
    n_target = 40.0 * params.kappa1 * params.gamma_m / params.g1**2

    def nan_inside_bracket(g, n, kappa, gamma_m):
        # the bracket ends (n = 0 and n = 2 n_target) stay finite
        if 0.0 < n < 1.5 * n_target:
            return math.nan
        return real_cooperativity(g, n, kappa, gamma_m)

    monkeypatch.setattr(om.working_point, "cooperativity", nan_inside_bracket)
    with pytest.raises(om.ConvergenceError, match="off target: nan vs 40.0"):
        cli.invert_cooperativity(params, 40.0, 0.0)
    assert cli.main(["invert", "--target", "40", "--cavity", "1"]) == 3
    assert "solver error" in capsys.readouterr().err


def test_inversion_landing_on_another_branch_exits_3(params, tmp_path, capsys, monkeypatch):
    # a forward solve that returns another working point than the closed form's
    real_solve = om.solve_working_point

    def other_branch(params, drives, detuning_mode="effective"):
        return real_solve(params, om.DriveConfig(drives.p_c1 / 2, drives.p_c2), detuning_mode)

    monkeypatch.setattr(om.working_point, "solve_working_point", other_branch)
    with pytest.raises(om.ConvergenceError, match="another branch"):
        cli.invert_cooperativity(params, 40.0, 0.0)
    assert cli.main(["invert", "--target", "40", "--cavity", "1"]) == 3
    assert "another branch" in capsys.readouterr().err
    monkeypatch.undo()
    # bare mode, C1 = 1e5 alone: the held photon number puts q0 on the upper branch of the
    # bistable force balance, but the forward solve takes the smallest-|q0| (lower) branch
    with pytest.raises(om.ConvergenceError, match="another branch"):
        cli.invert_cooperativity(params, 1e5, 0.0, "bare")
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({"detuning_mode": "bare"}))
    assert run_main(["invert", "--target", "1e5", "--cavity", "1", "--scenario", bare]) == 3
    assert "another branch" in capsys.readouterr().err


def test_scenario_validation_errors():
    with pytest.raises(om.ScenarioError):
        cli.Scenario.from_dict({"nonsense": 1})
    with pytest.raises(om.ScenarioError):
        cli.Scenario.from_dict({"model": "exact"})
    with pytest.raises(om.ScenarioError):
        cli.Scenario.from_dict({"sweep": {"kind": "probe"}})
    with pytest.raises(om.ScenarioError):
        cli.Scenario.from_dict({"sweep": {"kind": "probe_x", "n_points": 1}})
    with pytest.raises(om.ScenarioError):
        cli.Scenario.from_dict({"params": {"kappa1_hz": -1.0}})


RK4_SWEEP = {"kind": "time_domain", "t_final": 1e-6, "method": "rk4", "dt": 1e-9}
RATIO_SWEEP = {"kind": "cooperativity_ratio", "n_points": 3}


@pytest.mark.parametrize("command, sweep", [
    ("sweep", {**RATIO_SWEEP, "x_gamma_m": "abc"}),
    ("integrate", {**RK4_SWEEP, "dt": "abc"}),
    ("integrate", {**RK4_SWEEP, "n_samples": -5}),
    ("integrate", {**RK4_SWEEP, "n_samples": 0}),
    ("integrate", {**RK4_SWEEP, "n_samples": 2.5}),
    ("integrate", {"kind": "time_domain", "t_final": 1e-6, "x_gamma_m": "inf"}),
], ids=["x_gamma_m_text", "dt_text", "n_samples_negative", "n_samples_zero",
        "n_samples_fraction", "x_gamma_m_inf"])
def test_invalid_sweep_numbers_exit_2(tmp_path, capsys, command, sweep):
    out = tmp_path / "t.csv"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"sweep": sweep, "output": {"path": str(out)}}))
    assert run_main([command, "--scenario", path]) == 2
    assert "error: sweep." in capsys.readouterr().err
    assert not out.exists()


PROBE_5 = {"kind": "probe_x", "n_points": 5}
MALFORMED = {  # case: (command, scenario keys over a valid probe sweep, start of the error)
    "params_text": ("sweep", {"params": {"g1_hz": "abc"}}, "params.g1_hz must be a number"),
    "params_null": ("sweep", {"params": {"g1_hz": None}}, "params.g1_hz must be a number"),
    "target_text": ("sweep", {"drives": {"c1": "abc"}}, "drives.c1 must be a number"),
    "target_list": ("sweep", {"drives": {"c1": [1]}}, "drives.c1 must be a number"),
    "target_nan": ("sweep", {"drives": {"c1": "nan"}}, "drives.c1 must be finite"),
    "power_bool": ("sweep", {"drives": {"p_c1": True}}, "drives.p_c1 must be a number"),
    "sweep_text": ("sweep", {"sweep": "probe"}, "sweep must be an object"),
    "output_text": ("sweep", {"output": "e.csv"}, "output must be an object"),
    "variant_number": ("sweep", {"variants": [3]}, "a variant is an object"),
    "variant_ratio_text": ("sweep", {"variants": [{"label": "a", "c2_over_c1": "x"}]},
                           "variant c2_over_c1 must be a number"),
    "variant_ratio_negative": ("sweep", {"variants": [{"label": "a", "c2_over_c1": -2}]},
                               "variant c2_over_c1 must be >= 0"),
    "variant_label_path": ("sweep", {"variants": [{"label": "a/b"}]}, "variant label"),
    "variant_unknown_key": ("sweep", {"variants": [{"label": "a", "ratio": 0.5}]},
                            "a variant is an object"),
    "sweep_unknown_key": ("sweep", {"sweep": {"kind": "probe_x", "n_point": 5}},
                          "unknown sweep keys for kind probe_x: ['n_point']"),
    "derive_sweep_unknown_key": ("derive", {"sweep": {"kind": "probe_x", "n_point": 5}},
                                 "unknown sweep keys"),
    "x_bounds_not_increasing": ("sweep", {"sweep": {**PROBE_5, "x_min_gamma_m": 2,
                                                    "x_max_gamma_m": 2}},
                                "probe sweep needs x_min_gamma_m < x_max_gamma_m"),
    "ratio_min_negative": ("sweep", {"sweep": {**RATIO_SWEEP, "ratio_min": -1}},
                           "ratio sweep needs 0 <= ratio_min"),
    "roots_model_full": ("roots", {"model": "full", "sweep": {"kind": "roots_vs_ratio"}},
                         "the roots_vs_ratio table tracks the RWA poles"),
    "roots_bare": ("roots", {"detuning_mode": "bare", "drives": {"c1": 40},
                             "sweep": {"kind": "roots_vs_ratio", "n_points": 3}},
                   "the roots_vs_ratio table assumes two-photon resonance"),
    "roots_ratio_min_negative": ("roots", {"sweep": {"kind": "roots_vs_ratio", "ratio_min": -1}},
                                 "ratio sweep needs 0 <= ratio_min"),
    "ratio_bounds_not_increasing": ("sweep", {"sweep": {**RATIO_SWEEP, "ratio_min": 0.5,
                                                        "ratio_max": 0.5}},
                                    "ratio sweep needs 0 <= ratio_min < ratio_max"),
    "t_final_missing": ("integrate", {"sweep": {"kind": "time_domain", "n_samples": 5}},
                        "time_domain sweep needs t_final"),
    "t_final_zero": ("integrate", {"sweep": {"kind": "time_domain", "t_final": 0}},
                     "sweep.t_final must be > 0, got 0.0"),
    "method_unknown": ("integrate", {"sweep": {"kind": "time_domain", "t_final": 1e-6,
                                               "method": "euler"}},
                       "sweep.method must be one of ('exact_propagator', 'rk4'), got 'euler'"),
    "rk4_dt_missing": ("integrate", {"sweep": {**RK4_SWEEP, "dt": None}},
                       "sweep.dt must be > 0 for method rk4, got None"),
    "derive_t_final_negative": ("derive", {"sweep": {"kind": "time_domain", "t_final": -1e-6}},
                                "sweep.t_final must be > 0"),
    "detuning_mode_unknown": ("sweep", {"detuning_mode": "dressed"},
                              "detuning_mode must be 'effective' or 'bare'"),
    "output_path_number": ("sweep", {"output": {"path": 3}}, "output.path must be a string"),
    "output_format_unknown": ("sweep", {"output": {"format": "xml"}},
                              "output.format must be csv or json"),
    "params_list": ("sweep", {"params": [1e7]}, "params must be an object"),
    "params_unknown_key": ("sweep", {"params": {"g3_hz": 5.0}}, "unknown params keys: ['g3_hz']"),
    "drives_number": ("sweep", {"drives": 40}, "drives must be an object"),
    "variants_empty": ("sweep", {"variants": []}, "variants must be a non-empty list"),
    "variant_model_unknown": ("sweep", {"variants": [{"label": "a", "model": "exact"}]},
                              "variant model invalid"),
    "variant_label_repeated": ("sweep", {"variants": [{"label": "a"}, {"label": "a",
                                                                       "model": "full"}]},
                               "variant labels must be unique: 'a' repeats"),
    # a power whose drive amplitude sqrt(2 kappa P / (hbar omega_c)) overflowed (above about
    # 4e282 W) lies far outside the envelope's 1 kW
    **{f"{command}_{mode}_{key}_amplitude_overflows": (
        command, {"detuning_mode": mode, "drives": drives},
        f"drives.{key} = 1e+300 W is outside the supported range 0 to 1000 W")
       for command in ("derive", "sweep") for mode in ("effective", "bare")
       for key, drives in (("p_c1", {"p_c1": 1e300}),
                           ("p_c2", {"p_c1": "1mW", "p_c2": 1e300}))},
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_scenario_exits_2(tmp_path, capsys, case):
    command, keys, message = MALFORMED[case]
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"drives": {"c1": 30.0, "c2": 20.0}, "sweep": PROBE_5, **keys}))
    out = tmp_path / "out"
    out.mkdir()
    assert run_main([command, "--scenario", path, "--out", out / "t.csv"]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("case", ["json_list", "no_such_scenario"])
def test_unloadable_scenario_exits_2(tmp_path, capsys, case):
    path = tmp_path / "s.json"
    path.write_text(json.dumps([{"sweep": PROBE_5}]))
    ref, message = {
        "json_list": (path, "scenario document must be a JSON object"),
        "no_such_scenario": (tmp_path / "none.json", "is neither a file nor a preset"),
    }[case]
    out = tmp_path / "out"
    out.mkdir()
    assert run_main(["sweep", "--scenario", ref, "--out", out / "t.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: scenario") and message in err
    assert list(out.iterdir()) == []


# finite params whose squares or photon energies left the float range: outside the envelope,
# each is refused at load with one line naming it
EXTREME_PARAMS = {
    "g1_huge": ("g1_hz", 1e300, 2, "error: params.g1_hz = 1e+300 Hz is outside the supported "
                "range 1e-06 to 1e+09 Hz, or 0"),
    "g2_huge": ("g2_hz", 1e300, 2, "error: params.g2_hz = 1e+300 Hz is outside"),
    "g1_tiny": ("g1_hz", 1e-300, 2, "error: params.g1_hz = 1e-300 Hz is outside"),
    "g2_tiny": ("g2_hz", 1e-300, 2, "error: params.g2_hz = 1e-300 Hz is outside"),
    "omega_c1_tiny": ("omega_c1_hz", 1e-300, 2, "error: params.omega_c1_hz = 1e-300 Hz is "
                      "outside the supported range 1e+06 to 1e+16 Hz"),
    "omega_c2_tiny": ("omega_c2_hz", 1e-300, 2, "error: params.omega_c2_hz = 1e-300 Hz is outside"),
}


@pytest.mark.parametrize("command", ["derive", "invert"])
@pytest.mark.parametrize("case", sorted(EXTREME_PARAMS))
def test_extreme_finite_params_exit_without_traceback(tmp_path, capsys, case, command):
    key, value, code, message = EXTREME_PARAMS[case]
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"params": {key: value}}))
    out = tmp_path / "out"
    out.mkdir()
    invert = ["--target", 40, "--cavity", 2 if "2" in key else 1] if command == "invert" else []
    assert run_main([command, *invert, "--scenario", path, "--out", out / "r.json"]) == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert list(out.iterdir()) == []


# power drives at couplings, mechanical rates and detunings near the ends of the float range:
# (detuning_mode, params, exit code, the one stderr line or "" for none).  An uncoupled cavity
# (g1 = 0) lies inside the envelope; every other case lies outside it and is refused at load.
EXTREME_POWER_DRIVEN = {
    **{case: (mode, {key: value}, 2, f"error: params.{key} = {value:g} Hz is outside the "
                                     "supported range ")
       for case, mode, key, value in (
           ("g1_huge", "effective", "g1_hz", 1e300), ("g2_huge", "effective", "g2_hz", 1e300),
           ("omega_m_huge", "effective", "omega_m_hz", 1e300),
           ("delta2_huge", "effective", "delta2_hz", 1e300),
           ("delta1_huge", "effective", "delta1_hz", 1e300),
           ("g1_underflow", "effective", "g1_hz", 1e-170),
           ("bare_g1_underflow", "bare", "g1_hz", 1e-170))},
    "g1_zero": ("effective", {"g1_hz": 0.0}, 0, ""),
    "bare_g1_zero": ("bare", {"g1_hz": 0.0}, 0, ""),
    **{f"bare_{key}_{value:.0e}": ("bare", {key: value}, 2,
                                   f"error: params.{key} = {value:g} Hz is outside the "
                                   "supported range ")
       for key, value in (("g1_hz", 1e-150), ("g1_hz", 1e-300), ("g2_hz", 1e-150),
                          ("g2_hz", 1e-300), ("omega_m_hz", 1e-300), ("kappa1_hz", 1e-170),
                          ("kappa1_hz", 1e-300), ("kappa2_hz", 1e-170), ("kappa2_hz", 1e-300),
                          ("omega_m_hz", 1e-170))},
}


@pytest.mark.parametrize("command", ["derive", "sweep"])
@pytest.mark.parametrize("case", sorted(EXTREME_POWER_DRIVEN))
def test_extreme_power_driven_params_exit_without_traceback(tmp_path, capsys, case, command):
    """Every outcome is exit 0 with nothing on stderr, or one line and no table; a
    RuntimeWarning fails the run."""
    mode, params, code, message = EXTREME_POWER_DRIVEN[case]
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"params": params, "detuning_mode": mode,
                                "drives": {"p_c1": "1mW", "p_c2": "1uW"}, "sweep": RATIO_SWEEP}))
    out = tmp_path / "out"
    out.mkdir()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_main([command, "--scenario", path, "--out", out / "r.csv"]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.err.startswith(message) and captured.err.count("\n") == 1, captured.err
        assert list(out.iterdir()) == []
    else:
        assert captured.err == ""
        summary = json.loads(captured.out)
        if params.get("g1_hz", 1.0) == 0.0:  # the 1/g1^2 limit
            assert summary["critical_power_w"] == "inf"


# cooperativity targets at a cavity rate so small that n_i hbar underflowed on the way to the
# power n_i hbar omega_ci (kappa_i^2 + Delta_i^2) / (2 kappa_i)
TINY_KAPPA_TARGETS = {
    "bare_kappa1_hz_1e-300": {"params": {"kappa1_hz": 1e-300}, "detuning_mode": "bare",
                              "drives": {"c1": 30}},
    "kappa2_hz_1e-300": {"params": {"kappa2_hz": 1e-300}, "drives": {"c1": 30, "c2": 15}},
}


@pytest.mark.parametrize("case", sorted(TINY_KAPPA_TARGETS))
def test_tiny_cavity_rate_targets_invert_to_their_powers(tmp_path, capsys, case):
    """A rate of 1e-300 Hz is refused at load, naming its key; at the envelope's smallest
    cavity rate, 1e-3 Hz, the targets invert to their powers."""
    doc = TINY_KAPPA_TARGETS[case]
    (key, _), = doc["params"].items()
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert run_main(["derive", "--scenario", path]) == 2
    assert capsys.readouterr().err.startswith(f"error: params.{key} = 1e-300 Hz is outside")
    path.write_text(json.dumps({**doc, "params": {key: 1e-3}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_main(["derive", "--scenario", path]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    summary = json.loads(captured.out)
    assert (summary["c1"], summary["c2"]) == (30.0, doc["drives"].get("c2", 0.0))
    assert summary["p_c1_w"] > 0.0


@pytest.mark.parametrize("command", ["derive", "roots"])
def test_non_finite_observable_exits_3_without_warnings(tmp_path, capsys, monkeypatch, command):
    """An |a2+|^2 that overflows at line center (as cavity rates of 1e-200 Hz, outside the
    envelope, made it; here a cavity-2 amplitude of 1e300 stands in): a solver error naming
    the row and the observable, no RuntimeWarning, no table."""
    real = linear_response.probe_outputs
    monkeypatch.setattr(linear_response, "probe_outputs", lambda sol, params: real(
        sol._replace(a2_plus=sol.a2_plus * 1e300), params))
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"sweep": {"kind": "roots_vs_ratio", "n_points": 3}}))
    out = tmp_path / "out"
    out.mkdir()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_main([command, "--scenario", path, "--out", out / "r.csv"])
    err = capsys.readouterr().err
    assert code == 3
    assert "solver error: row 0 (x = 0.000000e+00 rad/s): rwa response gives a non-finite " \
           "transmit_flux" in err
    assert "Traceback" not in err and "Warning" not in err
    assert list(out.iterdir()) == []


HUGE_RATIO = {  # case: (params, ratio_max, the start of the one stderr line)
    # y**3 of the pair poles in the Newton step and |x|^2 in the trajectory matching
    # overflowed at these ratios, the cubic's coefficients at kappa1 = 1e13 Hz
    "pair_cube_overflows": ({}, 1e250, "error: sweep.ratio_max = 1e+250 is outside the "
                            "supported range 0 to 1e+06"),
    "pair_distance_overflows": ({}, 1e300, "error: sweep.ratio_max = 1e+300 is outside"),
    "coefficient_overflows": ({"kappa1_hz": 1e13}, 1e300, "error: params.kappa1_hz = 1e+13 Hz "
                              "is outside the supported range 0.001 to 1e+12 Hz"),
}


@pytest.mark.parametrize("case", sorted(HUGE_RATIO))
def test_roots_at_huge_c2_over_c1(tmp_path, capsys, case):
    """C2/C1 past 1e6, or a cavity rate past 1e12 Hz, is refused at load with one line
    naming it: no table, no RuntimeWarning."""
    extra, ratio_max, message = HUGE_RATIO[case]
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"params": extra, "sweep": {
        "kind": "roots_vs_ratio", "ratio_max": ratio_max, "n_points": 3}}))
    out = tmp_path / "out"
    out.mkdir()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_main(["roots", "--scenario", path, "--out", out / "r.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert list(out.iterdir()) == []


def test_roots_approach_the_large_c2_limit(tmp_path):
    """At large C2/C1 the pair widths tend to (gamma_m/2 + kappa2)/2 and the third width to
    kappa1, with a correction that falls as 1/C2: at kappa1 = 10 gamma_m (C2 = 2e7 and 4e7)
    it is under 0.4 % and halves from one row to the next."""
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"params": {"kappa1_hz": 1e4}, "sweep": {
        "kind": "roots_vs_ratio", "ratio_max": 1e6, "n_points": 3}}))
    assert run_main(["roots", "--scenario", path, "--out", tmp_path / "r.csv"]) == 0
    params = cli.load_scenario(str(path)).params
    gm = params.gamma_m
    limit = np.array([(gm / 2 + params.kappa2) / 2 / gm] * 2 + [params.kappa1 / gm])
    widths = np.loadtxt(tmp_path / "r.csv", delimiter=",", skiprows=1)[1:, 1:4]
    excess = np.sort(widths, axis=1) / limit - 1.0
    assert np.abs(excess).max() < 4e-3
    assert excess[1] == pytest.approx(excess[0] / 2, rel=0.01)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind, ratio_max", [
    ("roots_vs_ratio", 1e302), ("roots_vs_ratio", 1e307), ("cooperativity_ratio", 1e307)])
def test_overflowing_ratio_max_exits_2(tmp_path, capsys, kind, ratio_max):
    """A ratio whose C2 = ratio * C1 target, or a roots row's drive weight C2 kappa2
    gamma_m / 2, overflowed lies outside the envelope: an input error naming
    sweep.ratio_max (these used to print numpy's RuntimeWarning and then name c2, s2 or the
    target cooperativity)."""
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"sweep": {"kind": kind, "ratio_max": ratio_max, "n_points": 3}}))
    out = tmp_path / "out"
    out.mkdir()
    command = "roots" if kind == "roots_vs_ratio" else "sweep"
    assert run_main([command, "--scenario", path, "--out", out / "t.csv"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: sweep.ratio_max = {ratio_max:g} is outside the "
                                   "supported range 0 to 1e+06")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert list(out.iterdir()) == []


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, doc, start", [
    ("sweep", {"sweep": {"kind": "probe_x", "n_points": 3, "x_min_gamma_m": -1e308,
                         "x_max_gamma_m": 1e308}},
     "sweep.x_min_gamma_m = -1e+308 gamma_m is outside the supported range -1e+09 to 1e+09"),
    ("sweep", {"sweep": {"kind": "probe_x", "n_points": 3, "x_min_gamma_m": -1.5e304,
                         "x_max_gamma_m": 1.5e304}},
     "sweep.x_min_gamma_m = -1.5e+304 gamma_m is outside"),
    ("sweep", {"sweep": {**RATIO_SWEEP, "x_gamma_m": 1e305}},
     "sweep.x_gamma_m = 1e+305 gamma_m is outside"),
    ("integrate", {"sweep": {"kind": "time_domain", "t_final": 1e-3, "x_gamma_m": 1e306}},
     "sweep.x_gamma_m = 1e+306 gamma_m is outside"),
    ("sweep", {"sweep": {"kind": "probe_x", "n_points": 3},
               "variants": [{"label": "a", "c2_over_c1": 1e308}]},
     "variant 'a': c2_over_c1 = 1e+308 is outside the supported range 0 to 1e+06"),
], ids=["probe_x", "probe_x_span", "cooperativity_ratio", "time_domain", "variant"])
def test_overflowing_probe_input_exits_2(tmp_path, capsys, command, doc, start):
    """A probe detuning omega_m + x gamma_m or a probe grid's span that left the float
    range, or a variant whose C2 overflowed, lies outside the envelope: an input error
    naming its key (these used to print numpy's RuntimeWarnings and a solver error at
    x = nan or inf, write a table of nan, or name the internal target cooperativity)."""
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    out.mkdir()
    assert run_main([command, "--scenario", path, "--out", out / "t.csv"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {start}")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert list(out.iterdir()) == []


@pytest.mark.filterwarnings("error")
def test_overflowing_time_trace_exits_3(tmp_path, capsys):
    """A probe detuning at the envelope's top, x = 1e9 gamma_m with gamma_m = 1e10 Hz, traced
    for 1 s: the rounding of the step's 57 squarings grows the orbit past the float range.
    The trace writes no table of nan (it used to exit 0)."""
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"params": {"gamma_m_hz": 1e10},
                                "drives": {"p_c1": "1mW", "p_c2": "1uW"},
                                "sweep": {"kind": "time_domain", "t_final": 1.0,
                                          "x_gamma_m": 1e9}}))
    out = tmp_path / "out"
    out.mkdir()
    assert run_main(["integrate", "--scenario", path, "--out", out / "t.csv"]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("solver error: sample 417 (t = 4.170000e-01 s) of the "
                                   "exact_propagator trace is not finite")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert list(out.iterdir()) == []


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("doc", [
    {"sweep": {**RATIO_SWEEP, "x_gamma_m": 1e9}},
    {"params": {"delta2_hz": 1e13}, "drives": {"p_c1": "1mW", "p_c2": "1uW"},
     "sweep": {"kind": "probe_x", "n_points": 3}},
], ids=["probe_far_detuned", "cavity2_far_detuned"])
def test_far_detuned_point_passes_the_residual_gate(tmp_path, capsys, doc):
    """At the envelope's farthest probe offset and cavity-2 detuning the rows are finite and
    almost nothing reaches cavity 2."""
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert run_main(["sweep", "--scenario", path, "--out", tmp_path / "t.csv"]) == 0
    assert capsys.readouterr().err == ""
    rows = np.loadtxt(tmp_path / "t.csv", delimiter=",", skiprows=1)
    assert rows.shape == (3, 8) and np.isfinite(rows).all()
    assert (rows[:, 5] < 1e-30).all()  # transmit_flux


SWEEP_DOC = {"drives": {"c1": 40.0, "c2": 20.0},
             "sweep": {"kind": "probe_x", "x_min_gamma_m": -2.0, "x_max_gamma_m": 2.0,
                       "n_points": 9},
             "variants": [{"label": "a"}, {"label": "b", "model": "full", "c2_over_c1": 1.0}]}
FLAGS_AS_FIELDS = {  # a sweep flag, and the keys of SWEEP_DOC that say the same
    "out": (["--out", "t.csv"], {"output": {"path": "t.csv"}}),
    "format": (["--format", "json"], {"output": {"format": "json"}}),
    "model": (["--model", "analytic"], {"model": "analytic", "variants": [
        {**v, "model": "analytic"} for v in SWEEP_DOC["variants"]]}),
    "points": (["--points", "5"], {"sweep": {**SWEEP_DOC["sweep"], "n_points": 5}}),
}


@pytest.mark.parametrize("flag", sorted(FLAGS_AS_FIELDS))
def test_sweep_flag_is_its_scenario_field(tmp_path, capsys, monkeypatch, flag):
    """A flag writes the same files, stdout and stderr as its value in the scenario."""
    args, fields = FLAGS_AS_FIELDS[flag]
    results = {}
    for side, doc, extra in (("flag", SWEEP_DOC, args), ("field", {**SWEEP_DOC, **fields}, []),
                             ("neither", SWEEP_DOC, [])):
        run_dir = tmp_path / side
        run_dir.mkdir()
        (tmp_path / f"{side}.json").write_text(json.dumps(doc))
        monkeypatch.chdir(run_dir)  # relative output paths, so stdout can be compared
        code = run_main(["sweep", "--scenario", tmp_path / f"{side}.json", *extra])
        files = {p.name: p.read_bytes() for p in sorted(run_dir.iterdir())}
        results[side] = (code, capsys.readouterr(), files)
    assert results["flag"] == results["field"] != results["neither"]
    assert results["flag"][0] == 0 and len(results["flag"][2]) == 2


def test_auto_probe_points_cap_a_window_near_the_float_range():
    """20 (x_max - x_min) / width overflows for this window; the count still caps at 20001
    (it used to end in an OverflowError traceback)."""
    run = cli.Run(cli.Scenario.from_dict({}))
    assert cli._auto_probe_points(run, -1e307, 1e307) == 20001
    assert cli._auto_probe_points(run, -1.0, 1.0) == 801


@pytest.mark.parametrize("command", [["derive"], ["invert", "--target", "40", "--cavity", "2"]])
def test_json_out_file_is_stdout(tmp_path, capsys, command):
    out = tmp_path / "r.json"
    assert run_main([*command, "--out", out]) == 0
    assert out.read_text(encoding="utf-8") == capsys.readouterr().out


BLUE_DETUNED = {"params": {"delta1_hz": -1e7}, "drives": {"p_c1": "1.3mW"}, "model": "full"}
TONE2_BLUE = {"params": {"delta2_hz": -1e7}, "drives": {"c1": 40.0, "c2": 0.0}}
UNSTABLE = {  # case: (command, scenario, the start of the error line)
    "derive": ("derive", BLUE_DETUNED, "derive [as driven, tone 2 off] row 0"),
    "probe_sweep": ("sweep", {**BLUE_DETUNED, "sweep": {"kind": "probe_x", "n_points": 3}},
                    "derive [as driven, tone 2 off] row 0"),
    "integrate": ("integrate", {**BLUE_DETUNED, "sweep": {"kind": "time_domain",
                                                          "t_final": 1e-6}},
                  "derive [as driven, tone 2 off] row 0"),
    "invert": ("invert", BLUE_DETUNED, "invert row 0"),
    # tone 2 blue-detuned amplifies once C2 > C1 + 1: the run's own point (C2 = 0) is
    # stable, the rows at C2/C1 = 1.5 and 2 are not
    "ratio_row": ("sweep", {**TONE2_BLUE, "sweep": {"kind": "cooperativity_ratio",
                                                    "ratio_max": 2.0, "n_points": 5}},
                  "cooperativity_ratio row 3"),
    "probe_variant": ("sweep", {**TONE2_BLUE, "sweep": {"kind": "probe_x", "n_points": 3},
                                "variants": [{"label": "a", "c2_over_c1": 0.5},
                                             {"label": "b", "c2_over_c1": 1.5}]},
                      "probe_x variant row 1"),
}


@pytest.mark.parametrize("case", sorted(UNSTABLE))
def test_unstable_working_point_exits_3(tmp_path, capsys, case):
    """A working point whose linearized dynamics grow writes no table (the blue-detuned
    case used to print reflect_flux 1.0103 at x = 0 and exit 0)."""
    command, doc, message = UNSTABLE[case]
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    out.mkdir()
    invert = ["--target", 40, "--cavity", 1] if command == "invert" else []
    assert run_main([command, *invert, "--scenario", path, "--out", out / "t.csv"]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith(f"solver error: {message}: unstable working point")
    assert "gamma_m" in captured.err and captured.out == ""
    assert list(out.iterdir()) == []


EIA_SPLITTING_FLOW = {  # case: (scenario keys, the error line)
    "overflow": ({"drives": {"c1": 1e200, "c2": 1e200}},
                 "error: drives.c1 = 1e+200 is outside the supported range 0 to 1e+09\n"),
    "underflow": ({"params": {"gamma_m_hz": 1e-200}}, "error: params.gamma_m_hz = 1e-200 Hz is "
                  "outside the supported range 0.001 to 1e+10 Hz\n"),
}


@pytest.mark.parametrize("command, case", [
    ("derive", "overflow"), ("sweep", "overflow"), ("derive", "underflow"), ("sweep", "underflow"),
], ids=["derive", "sweep", "derive-underflow", "sweep-underflow"])
def test_overflowing_eia_splitting_exits_3(tmp_path, capsys, command, case):
    """At C1 = C2 = 1e200 Gamma_EIT^2 overflowed, and at gamma_m = 1e-200 Hz it underflowed
    to 0, which exited 3 (and once ended in a ZeroDivisionError traceback).  Both inputs lie
    outside the envelope: one exit-2 line naming the key, no traceback, no warning (pytest
    turns warnings into errors), no table."""
    keys, message = EIA_SPLITTING_FLOW[case]
    path = tmp_path / "s.json"
    path.write_text(json.dumps({**keys, "sweep": {"kind": "cooperativity_ratio", "n_points": 3}}))
    out = tmp_path / "out"
    out.mkdir()
    assert run_main([command, "--scenario", path, "--out", out / "t.csv"]) == 2
    err = capsys.readouterr().err
    assert err == message
    assert list(out.iterdir()) == []


# 800 PB of float64, above the 2**57-byte (144 PB) virtual address space of any current
# 64-bit CPU, so the allocation fails at once and nothing is allocated
HUGE = 10**17
UNALLOCATABLE = {  # case: (command, scenario or preset, extra arguments)
    "ratio_points": ("sweep", "fig5", ["--points", HUGE]),
    "roots_points": ("roots", "fig3", ["--points", HUGE]),
    "probe_n_points": ("sweep", {"sweep": {"kind": "probe_x", "n_points": HUGE}}, []),
    "time_n_samples": ("integrate", {"sweep": {"kind": "time_domain", "t_final": 1e-6,
                                               "n_samples": HUGE}}, []),
}


@pytest.mark.parametrize("case", sorted(UNALLOCATABLE))
def test_unallocatable_grid_exits_2(tmp_path, capsys, case):
    """A grid or trace too large to allocate is an input error: one line, exit 2, no table."""
    command, scenario, extra = UNALLOCATABLE[case]
    if isinstance(scenario, dict):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scenario))
        scenario = path
    out = tmp_path / "out"
    out.mkdir()
    assert run_main([command, "--scenario", scenario, *extra, "--out", out / "t.csv"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: Unable to allocate") and captured.out == ""
    assert "Traceback" not in captured.err and captured.err.count("\n") == 1
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("target", ["nan", "inf"])
def test_invert_non_finite_target_exits_2(tmp_path, capsys, target):
    out = tmp_path / "r.json"
    assert run_main(["invert", "--target", target, "--cavity", 1, "--out", out]) == 2
    assert capsys.readouterr().err == f"error: drives.c1 must be finite, got {target}\n"
    assert not out.exists()


@pytest.mark.parametrize("mode", ["effective", "bare"])
@pytest.mark.parametrize("cavity", [1, 2])
def test_invert_prints_the_inverted_power(tmp_path, capsys, cavity, mode):
    """--target and --cavity are the scenario's drives; the power is the inversion's."""
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"detuning_mode": mode}))
    assert run_main(["invert", "--target", 40, "--cavity", cavity, "--scenario", path]) == 0
    targets = (40.0, 0.0) if cavity == 1 else (0.0, 40.0)
    drives = cli.invert_cooperativity(cli.load_scenario(str(path)).params, *targets, mode)[0]
    power = drives.p_c1 if cavity == 1 else drives.p_c2
    assert json.loads(capsys.readouterr().out) == {
        "target_c": 40.0, "cavity": cavity, "power_w": cli._round12(power)}


def test_every_sweep_kind_names_a_subcommand_and_a_producer():
    for kind, (command, producer, _) in cli.SWEEPS.items():
        assert cli.parse_args([command, "--scenario", "fig2"]) == (command, {"scenario": "fig2"})
        assert inspect.isgeneratorfunction(producer), kind


KIND_SWEEPS = {  # a valid sweep of each kind
    "probe_x": {"kind": "probe_x", "n_points": 3},
    "cooperativity_ratio": RATIO_SWEEP,
    "roots_vs_ratio": {"kind": "roots_vs_ratio", "n_points": 3},
    "time_domain": {"kind": "time_domain", "t_final": 1e-6},
}
KINDS_OF = {"sweep": "('probe_x', 'cooperativity_ratio')", "roots": "('roots_vs_ratio',)",
            "integrate": "('time_domain',)"}
REFUSED = [(command, kind) for command, kinds in KINDS_OF.items()
           for kind in KIND_SWEEPS if kind not in kinds]


@pytest.mark.parametrize("command, kind", REFUSED)
def test_subcommand_refuses_another_subcommands_kind(tmp_path, capsys, command, kind):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"sweep": KIND_SWEEPS[kind]}))
    out = tmp_path / "out"
    out.mkdir()
    assert run_main([command, "--scenario", path, "--out", out / "t.csv"]) == 2
    assert capsys.readouterr().err == (
        f"error: subcommand {command!r} needs a sweep of kind {KINDS_OF[command]}, got {kind!r}\n")
    assert list(out.iterdir()) == []


POINTS_RUNS = {
    "sweep_probe": ("sweep", {"kind": "probe_x", "n_points": 5}),
    "sweep_ratio": ("sweep", {"kind": "cooperativity_ratio", "n_points": 5}),
    "roots": ("roots", {"kind": "roots_vs_ratio", "n_points": 5}),
}


@pytest.mark.parametrize("points", [-5, 0, 1])
@pytest.mark.parametrize("run", sorted(POINTS_RUNS))
def test_points_override_below_2_exits_2(tmp_path, capsys, run, points):
    command, sweep = POINTS_RUNS[run]
    out = tmp_path / "t.csv"
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"sweep": sweep, "output": {"path": str(out)}}))
    assert run_main([command, "--scenario", path, "--points", points]) == 2
    assert "error: --points must be an integer >= 2" in capsys.readouterr().err
    assert not out.exists()


def test_presets_load():
    for name in cli.PRESETS:
        scenario = cli.load_scenario(name)
        assert scenario.sweep["kind"] in cli.SWEEPS


def test_probe_sweep_file_contract(tmp_path, params):
    doc = {
        "drives": {"c1": 40.0, "c2": 40.0},
        "sweep": {"kind": "probe_x", "x_min_gamma_m": -5.0, "x_max_gamma_m": 5.0, "n_points": 41},
        "model": "rwa",
        "output": {"path": str(tmp_path / "probe.csv"), "format": "csv"},
    }
    scenario = cli.Scenario.from_dict(doc)
    summary = cli.run_scenario(scenario)
    out = tmp_path / "probe.csv"
    assert summary["files"] == [str(out)]
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(cli.PROBE_COLUMNS)
    assert len(lines) == 1 + 41
    # byte-identical rerun
    first = out.read_bytes()
    cli.run_scenario(scenario)
    assert out.read_bytes() == first


def test_probe_sweep_json_format(tmp_path):
    doc = {
        "drives": {"c1": 40.0, "c2": 0.0},
        "sweep": {"kind": "probe_x", "x_min_gamma_m": -2.0, "x_max_gamma_m": 2.0, "n_points": 5},
        "model": "analytic",
        "output": {"path": str(tmp_path / "probe.json"), "format": "json"},
    }
    cli.run_scenario(cli.Scenario.from_dict(doc))
    payload = json.loads((tmp_path / "probe.json").read_text())
    assert payload["columns"] == cli.PROBE_COLUMNS
    assert len(payload["rows"]) == 5


def test_power_drives_accept_si_strings(tmp_path):
    doc = {
        "drives": {"p_c1": "1.3mW", "p_c2": "3.3uW"},
        "sweep": {"kind": "probe_x", "x_min_gamma_m": -1.0, "x_max_gamma_m": 1.0, "n_points": 3},
        "output": {"path": str(tmp_path / "p.csv"), "format": "csv"},
    }
    summary = cli.run_scenario(cli.Scenario.from_dict(doc))
    assert summary["p_c1_w"] == pytest.approx(1.3e-3)
    assert summary["c1"] == pytest.approx(38.6, rel=0.01)


def test_variant_files(tmp_path):
    doc = {
        "drives": {"c1": 40.0, "c2": 40.0},
        "sweep": {"kind": "probe_x", "x_min_gamma_m": -2.0, "x_max_gamma_m": 2.0, "n_points": 7},
        "model": "rwa",
        "variants": [
            {"label": "off", "c2_over_c1": 0.0},
            {"label": "on", "c2_over_c1": 1.0, "model": "full"},
        ],
        "output": {"path": str(tmp_path / "fig.csv"), "format": "csv"},
    }
    summary = cli.run_scenario(cli.Scenario.from_dict(doc))
    assert summary["files"] == [str(tmp_path / "fig_off.csv"), str(tmp_path / "fig_on.csv")]
    for f in summary["files"]:
        with open(f) as fh:
            assert len(fh.read().splitlines()) == 8


@pytest.mark.parametrize("command, sweep", [
    ("sweep", RATIO_SWEEP),
    ("roots", {"kind": "roots_vs_ratio", "n_points": 3}),
    ("integrate", RK4_SWEEP),
    ("derive", None),
], ids=["ratio", "roots", "time_domain", "no_sweep"])
def test_variants_need_a_probe_sweep(tmp_path, capsys, command, sweep):
    doc = {"variants": [{"label": "full", "model": "full"}, {"label": "rwa", "model": "rwa"}]}
    if sweep:
        doc["sweep"] = sweep
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    out.mkdir()
    assert run_main([command, "--scenario", path, "--out", out / "t.csv"]) == 2
    kind = sweep["kind"] if sweep else None
    assert f"error: variants need a probe_x sweep, got kind {kind!r}" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["sweep", "derive"])
def test_fig2_variants_run(tmp_path, capsys, command):
    out = tmp_path / "fig2.csv"
    assert run_main([command, "--scenario", "fig2", "--out", out]) == 0
    assert capsys.readouterr().err == ""
    written = sorted(p.name for p in tmp_path.iterdir())
    assert len(written) == (6 if command == "sweep" else 1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode", ["effective", "bare"])
@pytest.mark.parametrize("command", ["sweep", "invert"])
def test_overflowing_cooperativity_target_is_unreachable(tmp_path, capsys, mode, command):
    """A finite target whose coupling power (about 1e292 W) or drive amplitude overflowed
    lies outside the envelope: one exit-2 line naming the ratio or the drives key that
    --target sets."""
    sweep = {"kind": "cooperativity_ratio", "n_points": 3, "ratio_max": 1e300}
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"detuning_mode": mode,
                                **({} if command == "invert" else {"sweep": sweep})}))
    out = tmp_path / "out"
    out.mkdir()
    target = ["--target", 1e300, "--cavity", 2] if command == "invert" else []
    assert run_main([command, *target, "--scenario", path, "--out", out / "t.csv"]) == 2
    err = capsys.readouterr().err
    assert err == ("error: drives.c2 = 1e+300 is outside the supported range "
                   "0 to 1e+09\n" if command == "invert" else
                   "error: sweep.ratio_max = 1e+300 is outside the supported range 0 to 1e+06\n")
    assert list(out.iterdir()) == []


def sized(scenario, out, n_points):
    """``scenario`` writing to ``out`` on a grid of ``n_points``."""
    return scenario._replace(out_path=str(out), sweep={**scenario.sweep, "n_points": n_points})


def test_fig2_preset_variants(tmp_path):
    summary = cli.run_scenario(sized(cli.load_scenario("fig2"), tmp_path / "fig2.csv", 41))
    assert len(summary["files"]) == 6
    spectra = {}
    for f in summary["files"]:
        rows = np.loadtxt(f, delimiter=",", skiprows=1)
        assert rows.shape == (41, 8)
        spectra[f] = rows
    for f, rows in spectra.items():
        re_el = rows[:, 1]
        center = np.argmin(np.abs(rows[:, 0]))
        floor = np.argmin(np.abs(rows[:, 0] - 3.0))  # inside the window, off the peak
        if "_r000" in f:  # transparency window only
            assert re_el[center] < 0.1
        else:  # absorption peak rises from the window floor at line center
            assert re_el[center] > 0.5
            assert re_el[center] > re_el[floor] + 0.4


def test_model_override_applies_to_every_variant(tmp_path, capsys):
    args = ["sweep", "--scenario", "fig2", "--points", "5"]
    assert run_main([*args, "--model", "full", "--out", tmp_path / "f.csv"]) == 0
    assert len(json.loads(capsys.readouterr().out)["files"]) == 6
    assert run_main([*args, "--out", tmp_path / "g.csv"]) == 0
    for ratio in ("r000", "r050", "r100"):
        full = (tmp_path / f"g_full_{ratio}.csv").read_bytes()
        assert (tmp_path / f"f_rwa_{ratio}.csv").read_bytes() == full
        assert (tmp_path / f"f_full_{ratio}.csv").read_bytes() == full
        assert (tmp_path / f"g_rwa_{ratio}.csv").read_bytes() != full


def test_fig3_preset_trends(tmp_path):
    summary = cli.run_scenario(sized(cli.load_scenario("fig3"), tmp_path / "fig3.csv", 41))
    rows = np.loadtxt(summary["files"][0], delimiter=",", skiprows=1)
    assert rows.shape == (41, 7)
    narrow = rows[:, 1]
    assert narrow[0] == pytest.approx(0.1, rel=1e-6)  # kappa2 in gamma_m units
    assert np.all(np.diff(narrow) > 0)
    assert narrow[-1] == pytest.approx(0.1976, rel=0.01)
    assert np.abs(rows[:, 4:]).max() < 1e-6  # real parts stay ~0


def test_fig5_preset_routing_crossover(tmp_path):
    summary = cli.run_scenario(sized(cli.load_scenario("fig5"), tmp_path / "fig5.csv", 21))
    rows = np.loadtxt(summary["files"][0], delimiter=",", skiprows=1)
    reflect, transmit, mech = rows[:, 3], rows[:, 5], rows[:, 6]
    assert reflect[0] > 0.9 and transmit[0] == 0.0
    assert transmit[-1] > 0.97 and reflect[-1] < 1e-3
    assert np.all(np.diff(mech) < 0)  # mechanical mode goes dark


def test_fig4_peak_height_column(tmp_path):
    summary = cli.run_scenario(sized(cli.load_scenario("fig4"), tmp_path / "fig4.csv", 11))
    rows = np.loadtxt(summary["files"][0], delimiter=",", skiprows=1)
    ratios, re_el = rows[:, 0], rows[:, 1]
    for r, value in zip(ratios, re_el):
        assert value == pytest.approx(om.peak_height(40.0, 40.0 * r).exact, rel=1e-6)


def test_main_derive_stdout(capsys):
    assert run_main(["derive"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["gamma_eit_over_gamma_m"] == 20.5
    assert doc["c1"] == pytest.approx(40.0, rel=1e-6)
    assert doc["switch_ratio_transmit_over_reflect"] == pytest.approx(6400.0, rel=1e-6)


def test_main_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_main(["sweep", "--scenario", bad]) == 2

    assert run_main(["sweep", "--scenario", "fig3"]) == 2  # kind mismatch

    probe_power = tmp_path / "probe_power.json"  # the probe needs no power: no p_p key
    for drives, message in [({"p_c1": "1.3mW", "p_p": 1e-9}, "unknown drives keys"),
                            ({"c1": 40.0, "p_p": 1e-9}, "drives mixes cooperativity targets")]:
        probe_power.write_text(json.dumps({"drives": drives}))
        capsys.readouterr()
        assert run_main(["derive", "--scenario", probe_power]) == 2
        assert message in capsys.readouterr().err

    ok = tmp_path / "ok.json"
    ok.write_text(
        json.dumps(
            {
                "drives": {"c1": 1.0, "c2": 0.0},
                "sweep": {"kind": "probe_x", "x_min_gamma_m": -1.0,
                          "x_max_gamma_m": 1.0, "n_points": 3},
                "output": {"path": str(tmp_path / "missing-dir" / "t.csv"), "format": "csv"},
            }
        )
    )
    assert run_main(["sweep", "--scenario", ok]) == 4  # unwritable output

    rk = tmp_path / "rk.json"
    rk.write_text(
        json.dumps(
            {
                "drives": {"c1": 40.0, "c2": 40.0},
                "sweep": {"kind": "time_domain", "t_final": 1e-3, "method": "rk4", "dt": 1.0},
                "output": {"path": str(tmp_path / "rk.csv"), "format": "csv"},
            }
        )
    )
    assert run_main(["integrate", "--scenario", rk]) == 3  # stability guard
    capsys.readouterr()


def test_main_integrate_exact(tmp_path, capsys):
    doc = {
        "params": {
            "omega_c1_hz": 4e14, "omega_c2_hz": 1e10,
            "omega_m_hz": 1591.5494309189535, "gamma_m_hz": 1.5915494309189535,
            "kappa1_hz": 15.915494309189535, "kappa2_hz": 0.15915494309189535,
            "g1_hz": 50.0, "g2_hz": 5.0,
        },
        "drives": {"c1": 40.0, "c2": 40.0},
        "sweep": {"kind": "time_domain", "t_final": 10.0, "n_samples": 21},
        "output": {"path": str(tmp_path / "td.csv"), "format": "csv"},
    }
    ref = tmp_path / "td.json"
    ref.write_text(json.dumps(doc))
    assert run_main(["integrate", "--scenario", ref]) == 0
    capsys.readouterr()
    rows = np.loadtxt(tmp_path / "td.csv", delimiter=",", skiprows=1)
    assert rows.shape == (21, 7)
    assert rows[0, 0] == 0.0 and rows[-1, 0] == pytest.approx(10.0)


def test_summary_sidecar_determinism(tmp_path):
    scenario = cli.load_scenario("fig5")
    a = cli.run_scenario(sized(scenario, tmp_path / "a.csv", 5))
    b = cli.run_scenario(sized(scenario, tmp_path / "b.csv", 5))
    a.pop("files"), b.pop("files")
    assert a == b


@pytest.mark.parametrize("p_c2", [8.25e-9, 8.3e-9, 8.3265e-9])
def test_bare_derive_just_below_the_fold_exits_0(tmp_path, capsys, p_c2):
    """The band below the lower fold at C1 = 40 has one steady state; derive finds it."""
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"detuning_mode": "bare",
                                "drives": {"p_c1": 1.3445e-3, "p_c2": p_c2}}))
    assert run_main(["derive", "--scenario", path]) == 0
    assert json.loads(capsys.readouterr().out)["q0"] == pytest.approx(79.99936, abs=1e-5)


def test_bare_ratio_sweep_across_the_fold_band_exits_0(tmp_path, capsys):
    """The confirming solves of C2/C1 in [0.0024, 0.0026] at C1 = 40 land in the band."""
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"detuning_mode": "bare", "drives": {"c1": 40.0, "c2": 0.0},
                                "sweep": {"kind": "cooperativity_ratio", "ratio_min": 0.0024,
                                          "ratio_max": 0.0026, "n_points": 201}}))
    out = tmp_path / "t.csv"
    assert run_main(["sweep", "--scenario", path, "--out", out]) == 0
    assert len(out.read_text().splitlines()) == 202
