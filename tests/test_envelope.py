"""The supported-input envelope (``params.ENVELOPE``): every bounded key is refused just
outside either end, and runs drawn from the envelope's corners end in a table or in a
physics refusal, never in a float-range failure."""

import json
import math
import random
import re

import pytest

import oemsim as om
from oemsim import cli
from oemsim.params import ENVELOPE, PARAM_KINDS, TWO_PI, within


def just_outside(kind: str) -> dict:
    """A value just below and just above the envelope row ``kind``."""
    low, high, _ = ENVELOPE[kind]
    below = low * (1.0 - 1e-9) if low > 0.0 else low * (1.0 + 1e-9) if low < 0.0 else -1e-9
    return {"low": below, "high": high * (1.0 + 1e-9)}


PROBE = {"kind": "probe_x", "n_points": 3}
RATIO = {"kind": "cooperativity_ratio", "n_points": 3}
REFUSED = {}  # case: (command, scenario, the key the error line names)
for field, kind in PARAM_KINDS.items():
    key = {"delta_bare1": "delta1", "delta_bare2": "delta2"}.get(field, field) + "_hz"
    for end, value in just_outside(kind).items():
        REFUSED[f"params.{key}-{end}"] = ("derive", {"params": {key: value}}, f"params.{key}")
for end, value in just_outside("power").items():
    for key in ("p_c1", "p_c2"):
        REFUSED[f"drives.{key}-{end}"] = ("derive", {"drives": {key: value}}, f"drives.{key}")
for end, value in just_outside("c").items():
    for key in ("c1", "c2"):
        REFUSED[f"drives.{key}-{end}"] = ("derive", {"drives": {key: value}}, f"drives.{key}")
for end, value in just_outside("c2_over_c1").items():
    window = {"ratio_min": value, "ratio_max": 1.0} if end == "low" else {"ratio_max": value}
    REFUSED[f"sweep.ratio-{end}"] = ("sweep", {"sweep": {**RATIO, **window}},
                                     f"ratio_{'min' if end == 'low' else 'max'}")
    REFUSED[f"roots.ratio-{end}"] = (
        "roots", {"sweep": {"kind": "roots_vs_ratio", "n_points": 3, **window}},
        f"ratio_{'min' if end == 'low' else 'max'}")
    REFUSED[f"variant.c2_over_c1-{end}"] = (
        "sweep", {"sweep": PROBE, "variants": [{"label": "a", "c2_over_c1": value}]},
        "c2_over_c1")
for end, value in just_outside("x").items():
    # the other end of the window inside the envelope where it can be, else past this one
    REFUSED[f"sweep.x_min_gamma_m-{end}"] = (
        "sweep", {"sweep": {**PROBE, "x_min_gamma_m": value,
                            "x_max_gamma_m": 1e9 if end == "low" else 2e9}},
        "sweep.x_min_gamma_m")
    REFUSED[f"sweep.x_max_gamma_m-{end}"] = (
        "sweep", {"sweep": {**PROBE, "x_min_gamma_m": -1e9 if end == "high" else -1.0,
                            "x_max_gamma_m": value}}, "x_max_gamma_m")
    REFUSED[f"sweep.x_gamma_m-{end}"] = ("sweep", {"sweep": {**RATIO, "x_gamma_m": value}},
                                         "sweep.x_gamma_m")
    REFUSED[f"integrate.x_gamma_m-{end}"] = (
        "integrate", {"sweep": {"kind": "time_domain", "t_final": 1e-6, "x_gamma_m": value}},
        "sweep.x_gamma_m")


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_input_just_outside_the_envelope_exits_2(tmp_path, capsys, case):
    """One stderr line naming the key, nothing on stdout, no file written."""
    command, doc, key = REFUSED[case]
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    out.mkdir()
    assert cli.main([command, "--scenario", str(path), "--out", str(out / "t.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
    assert key in captured.err and captured.out == ""
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("end", ["low", "high"])
def test_invert_target_just_outside_the_envelope_exits_2(tmp_path, capsys, end):
    """--target sets drives.c<cavity>, and its refusal names that key."""
    target = just_outside("c")[end]
    out = tmp_path / "r.json"
    assert cli.main(["invert", f"--target={target!r}", "--cavity", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == {
        "low": "error: drives.c1 must be finite and >= 0, got -1e-09\n",
        "high": "error: drives.c1 = 1000000001 is outside the supported range 0 to 1e+09\n",
    }[end]
    assert not out.exists()


@pytest.mark.parametrize("command", [["derive"], ["invert", "--target", "40", "--cavity", "2"]])
def test_target_on_an_uncoupled_cavity_exits_2(tmp_path, capsys, command):
    """A C2 target above 0 at g2 = 0 is an input error naming drives.c2 and params.g2_hz
    (it used to be a solver error: inf photons at g = 0)."""
    path = tmp_path / "s.json"
    drives = {"c1": 40.0, "c2": 40.0} if command == ["derive"] else {"p_c1": "1mW"}
    path.write_text(json.dumps({"params": {"g2_hz": 0.0}, "drives": drives}))
    out = tmp_path / "r.json"
    assert cli.main([*command, "--scenario", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: drives.c2 = 40 needs a coupled cavity 2, but params.g2_hz is 0\n")
    assert not out.exists()


def test_derived_values_are_not_bounded(tmp_path, capsys):
    """The envelope bounds inputs, not what a run derives from them: C1 = 40 at g1 = 1e-6 Hz
    needs 3.4e12 W, past the 1 kW a scenario may give, and a ratio row at p_c1 = 1 kW asks
    for C2 = 3e9, past the 1e9 a target may be.  Both runs complete."""
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"params": {"g1_hz": 1e-6}, "drives": {"c1": 40.0}}))
    assert cli.main(["derive", "--scenario", str(path)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["p_c1_w"] == pytest.approx(3.36393238809e12, rel=1e-11)
    assert summary["c1"] == pytest.approx(40.0, rel=1e-9)
    path.write_text(json.dumps({
        "params": {"omega_c2_hz": 1e6, "gamma_m_hz": 1e-3, "kappa1_hz": 1e12, "g1_hz": 50.0,
                   "delta2_hz": -1e13},
        "drives": {"p_c1": 1000.0, "p_c2": 1e-12}, "model": "rwa",
        "sweep": {**RATIO, "ratio_max": 1e6, "x_gamma_m": -30.0}}))
    out = tmp_path / "r.csv"
    assert cli.main(["sweep", "--scenario", str(path), "--out", str(out)]) == 0
    err = capsys.readouterr().err  # the driven cavity 2 is off resonance: one note
    assert OFF_RESONANCE_NOTE.fullmatch(err)
    assert err.endswith("Delta2 - omega_m = -1e+11 kappa2\n")
    assert len(out.read_text().splitlines()) == 4


def test_raw_float_entry_points_refuse_out_of_range_values():
    """Library functions that take raw floats refuse, with a typed error, a value whose
    arithmetic would leave the float range: a carrier outside the envelope, and a Gamma_EIT
    whose square overflows or underflows."""
    with pytest.raises(om.InvalidParameterError, match="^carrier = .* is outside the supported"):
        om.drive_amplitude(1e-3, 1e-300, 1.0)
    for gamma_eit in (1e200, 1e-200):
        with pytest.raises(om.InvalidParameterError,
                           match="Gamma_EIT\\^2 leaves the float range"):
            om.eia_splitting(gamma_eit, 0.0, 1.0)


# Corner values of every params key (and the reference value), in plain Hz; None keeps the
# default detuning omega_m.
CORNERS = {
    "omega_c1_hz": (1e6, 1e16, 4e14), "omega_c2_hz": (1e6, 1e16, 1e10),
    "omega_m_hz": (1.0, 1e11, 1e7), "gamma_m_hz": (1e-3, 1e10, 1e3),
    "kappa1_hz": (1e-3, 1e12, 1e6), "kappa2_hz": (1e-3, 1e12, 1e2),
    "g1_hz": (0.0, 1e-6, 1e9, 50.0), "g2_hz": (0.0, 1e-6, 1e9, 5.0),
    "delta1_hz": (-1e13, 1e13, None), "delta2_hz": (-1e13, 1e13, None),
}
X_CORNERS = (-1e9, -30.0, 0.0, 30.0, 1e9)
# What a run at the corners may end in besides a table: a physics refusal (exit 3), a
# target above 0 on an uncoupled cavity (exit 2), or a pole table off two-photon resonance
# (exit 2).  A table may come with one note that a driven cavity is off that resonance.
PHYSICS_REFUSAL = re.compile(
    r"^solver error: .*(unstable working point|another branch|tied smallest-\|q0\| roots"
    r"|residual exceeds|has no real root|trace is not finite)")
INPUT_REFUSAL = re.compile(r"^error: (.* needs a coupled cavity [12], but params\.g[12]_hz is 0"
                           r"|params\.delta[12]_hz = \S+ Hz lies \S+ kappa[12] from omega_m; "
                           r"the roots_vs_ratio table assumes two-photon resonance "
                           r"\(within 0\.1 kappa[12]\))$")
OFF_RESONANCE_NOTE = re.compile(r"note: gamma_eit_\*, gamma_eia_\*, eia_narrow_coupling_valid, "
                                r"peak_height_exact and peak_height_large_c assume two-photon "
                                r"resonance, but Delta[12] - omega_m = \S+ kappa[12]"
                                r"( and Delta2 - omega_m = \S+ kappa2)?\n")
FLOAT_RANGE = re.compile(r"overflow|underflow|float range|out of range|\bnan\b|\binf\b"
                         r"|Warning|Traceback", re.IGNORECASE)


def corner_runs(seed: int, n: int):
    """``n`` scenarios drawn from the corners, each as (command, scenario, extra argv) runs:
    derive, a probe sweep and a ratio sweep (the models in turn, both detuning modes),
    roots, integrate and invert."""
    for i in range(n):
        rng = random.Random(f"{seed}/{i}")
        params = {}
        for key, values in CORNERS.items():
            value = rng.choice(values)
            if value is not None and rng.random() < 0.5:
                params[key] = value
        if rng.random() < 0.5:
            drives = {f"c{j}": rng.choice((0.0, 1e-6, 40.0, 1e9)) for j in (1, 2)}
        else:
            drives = {"p_c1": rng.choice((0.0, 1e-12, 1e-3, 1e3)),
                      "p_c2": rng.choice((0.0, 1e-12, 1e-6, 1e3))}
        base = {"params": params, "drives": drives,
                "detuning_mode": ("effective", "bare")[i % 2]}
        lo, hi = sorted(rng.sample((-1e9, -30.0, 30.0, 1e9), 2))
        ratio_max = rng.choice((1e-6, 1.0, 1e6))
        yield "derive", base, []
        yield "sweep", {**base, "model": cli.MODELS[i % 4], "sweep": {
            **PROBE, "x_min_gamma_m": lo, "x_max_gamma_m": hi}}, []
        yield "sweep", {**base, "model": cli.MODELS[(i + 1) % 4], "sweep": {
            **RATIO, "ratio_max": ratio_max, "x_gamma_m": rng.choice(X_CORNERS)}}, []
        yield "roots", {**base, "detuning_mode": "effective", "sweep": {
            "kind": "roots_vs_ratio", "ratio_max": ratio_max, "n_points": 3}}, []
        yield "integrate", {**base, "sweep": {
            "kind": "time_domain", "t_final": rng.choice((1e-6, 1e-3, 1.0)),
            "x_gamma_m": rng.choice(X_CORNERS), "n_samples": 5}}, []
        yield "invert", base, ["--target", repr(rng.choice((1e-6, 40.0, 1e9))),
                               "--cavity", str(1 + i % 2)]


def test_corner_runs_end_in_a_table_or_a_physics_refusal(tmp_path, capsys):
    """48 seeded corner scenarios, six runs each.  pytest turns a RuntimeWarning into an
    error, so a float operation that warns fails the test."""
    codes = []
    path, out = tmp_path / "s.json", tmp_path / "out"
    out.mkdir()
    for command, doc, extra in corner_runs(seed=27, n=48):
        path.write_text(json.dumps(doc))
        code = cli.main([command, "--scenario", str(path), *extra, "--out", str(out / "t.csv")])
        err = capsys.readouterr().err
        context = (command, doc, extra, err)
        if code == 0:
            assert err == "" or OFF_RESONANCE_NOTE.fullmatch(err), context
        else:
            assert err.count("\n") == 1 and not FLOAT_RANGE.search(err), context
            assert (PHYSICS_REFUSAL if code == 3 else INPUT_REFUSAL).match(err), context
            assert list(out.iterdir()) == [], context
        for written in out.iterdir():
            written.unlink()
        codes.append(code)
    assert codes.count(0) >= len(codes) // 4  # most corners give a table
    assert {0, 2, 3} <= set(codes)


def test_a_rate_in_rad_s_is_refused_in_hz():
    """``SystemParams`` holds rad/s, but its refusals give the value in Hz, the envelope row's
    unit, whether the value is negative or out of range."""
    fields = om.default_params()._asdict()
    with pytest.raises(om.InvalidParameterError,
                       match=r"^kappa1 must be finite and > 0, got -1\.0$"):
        om.SystemParams(**{**fields, "kappa1": -TWO_PI})
    with pytest.raises(om.InvalidParameterError, match=r"^kappa1 = 1e\+13 Hz is outside"):
        om.SystemParams(**{**fields, "kappa1": 1e13 * TWO_PI})


@pytest.mark.parametrize("scale", [1.0, TWO_PI], ids=["unscaled", "two_pi"])
@pytest.mark.parametrize("kind", sorted(k for k, (low, *_) in ENVELOPE.items() if low >= 0.0))
def test_a_value_just_above_0_is_never_refused_as_not_positive(kind, scale):
    """Sign is judged on the value itself, not on value / scale, which rounds to 0 here: the
    smallest float above 0 passes a row from 0 and is out of range in any other."""
    tiny = math.ulp(0.0)
    if ENVELOPE[kind][0] == 0.0:
        assert within(tiny, "v", kind, scale) == tiny
    else:
        with pytest.raises(om.InvalidParameterError, match="^v = .* is outside the supported"):
            within(tiny, "v", kind, scale)
