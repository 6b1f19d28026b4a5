"""CLI sweeps through the whole-grid kernel: table bytes, no per-point path, no repeated solves."""

import json
import math
import sys
from collections import Counter

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import oemsim as om
from oemsim import cli


def old_write_table(path, columns, rows, out_format):
    """The per-value table writer the chunked one replaced, kept as the byte oracle."""
    if out_format == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(cli._fmt(v) for v in row) + "\n")
    else:
        payload = {"columns": list(columns),
                   "rows": [[cli._round12(v) for v in row] for row in rows]}
        with open(path, "w", encoding="utf-8", newline="") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")


def table_cases():
    rng = np.random.default_rng(5)
    n = 2 * cli._CSV_CHUNK_ROWS + 17  # crosses two chunk boundaries
    rows = rng.standard_normal((n, 5)) * 10.0 ** rng.uniform(-300, 300, (n, 5))
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310, 2.2250738585072014e-308,
               1e300, -1e300, 1.7976931348623157e308, 0.1, 1 / 3, 123456789012.5, 1e-5, 1e16]
    rows[: len(special), 0] = special
    rows[: len(special), 3] = special[::-1]
    return [rows, rows[:1], rows[:0], np.array([special[:5]])]


@pytest.mark.parametrize("out_format", ["csv", "json"])
def test_table_writer_bytes_match_per_value_writer(tmp_path, out_format):
    columns = ["a", "b", "c", "d", "e"]
    for k, rows in enumerate(table_cases()):
        new, old = tmp_path / f"new{k}", tmp_path / f"old{k}"
        cli._write_table(new, columns[: rows.shape[1]], rows, out_format)
        old_write_table(old, columns[: rows.shape[1]], list(rows), out_format)
        assert new.read_bytes() == old.read_bytes()


def percent_g_table(columns, rows):
    """The CSV bytes ``"%.12g" % v`` gives for every value: the oracle of the vectorized writer."""
    lines = [",".join(columns)] + [",".join("%.12g" % v for v in row) for row in rows.tolist()]
    return ("\n".join(lines) + "\n").encode()


def assert_csv_matches_percent_g(path, rows):
    columns = [f"c{j}" for j in range(rows.shape[1])]
    cli._write_table(path, columns, rows, "csv")
    assert path.read_bytes() == percent_g_table(columns, rows)


EDGE_VALUES = [0.0, -0.0, 1e-4, -1e-4, 1e-5, 1e11, 1e12, 1e-12, 123456789012.5, 999999999999.5,
               -999999999999.5, 9.9999999999995e-5, 99999.99999995, 0.1, 1 / 3, 100.5, 5e-324,
               -5e-324, 2.2250738585072014e-308, 1.797e308, 1.7976931348623157e308, 1e100,
               1e-100, np.inf, -np.inf, np.nan]


@pytest.mark.parametrize("n_cols", [1, 2, 3, 13])
def test_csv_writer_matches_percent_g_on_edge_values(tmp_path, n_cols):
    rows = np.resize(np.array(EDGE_VALUES), (2 * len(EDGE_VALUES), n_cols))
    assert_csv_matches_percent_g(tmp_path / "t.csv", rows)


@pytest.mark.parametrize("n_cols", [1, 5, 8])
@pytest.mark.parametrize("n_rows", [0, 1, 1023, 1024, 1025, 2047, 2048, 2049])
def test_csv_writer_matches_percent_g_on_random_bits(tmp_path, n_rows, n_cols):
    """Random float64 bit patterns: every exponent, both signs, subnormals, NaN payloads, inf."""
    rng = np.random.default_rng(1000 * n_rows + n_cols)
    rows = rng.integers(0, 2**64, (n_rows, n_cols), dtype=np.uint64).view(np.float64)
    flat = rows.reshape(-1)  # a view
    flat[::97] = np.resize([np.nan, np.inf, -np.inf, 0.0, -0.0], flat[::97].size)
    assert_csv_matches_percent_g(tmp_path / "t.csv", rows)


def test_csv_writer_matches_percent_g_near_ties_and_powers_of_ten(tmp_path):
    """Doubles nearest to 13-digit decimal ties (the 13th digit a 5), whose scaled
    mantissa falls within rounding error of .5; powers of ten and their neighbours one ulp
    away, where the exponent estimate decides; mantissas at 999999999999.5, where the
    carry decides."""
    rng = np.random.default_rng(7)
    digits = rng.integers(10**11, 10**12, 3000)
    exps = rng.integers(-330, 296, 3000)
    ties = [float(f"{d}5e{k}") for d, k in zip(digits.tolist(), exps.tolist())]
    powers = 10.0 ** np.arange(-300, 300)
    near_powers = [np.nextafter(p, p * s) for p in powers for s in (0.0, 2.0)] + list(powers)
    below_carry = [float(f"9999999999995e{k}") for k in range(-320, 296)]
    rows = np.array(ties + near_powers + below_carry)
    rows = np.concatenate([rows, -rows])
    assert_csv_matches_percent_g(tmp_path / "t.csv", rows[: len(rows) // 4 * 4].reshape(-1, 4))


@pytest.mark.parametrize("miss", [-1.0, 1.0])
def test_csv_writer_matches_percent_g_when_the_exponent_estimate_misses(
        tmp_path, monkeypatch, miss):
    """An exponent estimate off by one puts the scaled mantissa outside [1e11, 1e12], and
    "%" must print those values; here log10 misses on every other value."""
    log10 = np.log10

    def missing_log10(x):
        out = log10(x)
        out[::2] += miss
        return out

    monkeypatch.setattr(np, "log10", missing_log10)
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((300, 3)) * 10.0 ** rng.integers(-30, 30, (300, 3))
    assert_csv_matches_percent_g(tmp_path / "t.csv", rows)


@settings(max_examples=300, deadline=None)
@given(rows=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=40),
                       elements=st.floats(allow_nan=True, allow_infinity=True,
                                          allow_subnormal=True)))
def test_csv_writer_matches_percent_g_on_any_floats(tmp_path_factory, rows):
    assert_csv_matches_percent_g(tmp_path_factory.mktemp("csv") / "t.csv", rows)


PROBE = {"kind": "probe_x", "x_min_gamma_m": -4.0, "x_max_gamma_m": 4.0, "n_points": 33}
RATIO = {"kind": "cooperativity_ratio", "ratio_min": 0.0, "ratio_max": 1.0, "n_points": 5,
         "x_gamma_m": 0.5}


def write_scenario(tmp_path, name, sweep, **extra):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"drives": {"c1": 30.0, "c2": 20.0}, "sweep": sweep, **extra}))
    return path


def test_cli_sweeps_never_call_the_scalar_solvers(tmp_path, monkeypatch):
    def scalar_route(*args, **kwargs):
        raise AssertionError("a CLI sweep used a per-point scalar solver")

    for module in [m for name, m in sys.modules.items() if name.startswith("oemsim")]:
        for name in ("solve_sidebands", "solve_sidebands_closed_form", "harmonic_steady_state"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, scalar_route)

    probe = write_scenario(tmp_path, "probe", PROBE)
    variants = write_scenario(tmp_path, "variants", PROBE, variants=[
        {"label": "off", "c2_over_c1": 0.0}, {"label": "osc", "model": "oscillator"},
        {"label": "half", "model": "full", "c2_over_c1": 0.5}])
    ratio = write_scenario(tmp_path, "ratio", RATIO)
    runs = [(probe, ["--model", m], f"probe_{m}.csv", [f"probe_{m}.csv"]) for m in cli.MODELS]
    runs += [(variants, [], "v.csv", ["v_off.csv", "v_osc.csv", "v_half.csv"])]
    runs += [(ratio, ["--model", m], f"ratio_{m}.csv", [f"ratio_{m}.csv"]) for m in cli.MODELS]
    for scenario, model_args, out, written in runs:
        args = ["sweep", "--scenario", scenario, *model_args, "--out", tmp_path / out]
        assert cli.main([str(a) for a in args]) == 0
        n_points = (RATIO if scenario == ratio else PROBE)["n_points"]
        for name in written:
            assert len((tmp_path / name).read_text().splitlines()) == 1 + n_points


def counted(monkeypatch, name):
    calls = []
    real = getattr(cli, name)

    def wrapper(*args, **kwargs):
        calls.append((args, tuple(sorted(kwargs.items()))))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, wrapper)
    return calls


def test_invert_cooperativity_solves_each_power_once(params, monkeypatch):
    solves = counted(monkeypatch, "solve_working_point")
    for mode in ("effective", "bare"):
        solves.clear()
        power = cli.invert_cooperativity(35.0, 1, params, detuning_mode=mode)
        assert power > 0
        drives = [args[1] for args, _ in solves]
        assert len(drives) == len(set(drives)), Counter(drives).most_common(1)


def test_run_reuses_resolved_drives(tmp_path, monkeypatch):
    doc = {"detuning_mode": "bare", "drives": {"c1": 40.0},
           "sweep": {**RATIO, "n_points": 3}, "output": {"path": str(tmp_path / "r.csv")}}
    scenario = cli.Scenario.from_dict(doc)
    solves = counted(monkeypatch, "solve_working_point")
    solves_per_inversion = []
    real_invert = cli.invert_cooperativity

    def invert(*args, **kwargs):
        before = len(solves)
        try:
            return real_invert(*args, **kwargs)
        finally:
            solves_per_inversion.append(len(solves) - before)

    monkeypatch.setattr(cli, "invert_cooperativity", invert)
    cli.run_scenario(scenario)
    # an inversion is a closed form plus one confirming solve, shared through the run's memo
    assert solves_per_inversion and max(solves_per_inversion) <= 1, solves_per_inversion
    drives = Counter(args[1] for args, _ in solves)
    assert drives.most_common(1)[0][1] == 1, drives.most_common(1)

    run = cli.Run(scenario)
    monkeypatch.setattr(cli, "solve_working_point", None)  # anything left to solve fails
    summary = cli.derive_summary(run)
    assert cli._auto_probe_points(run, -1.0, 1.0) >= 801
    monkeypatch.undo()
    assert cli.derive_summary(cli.Run(scenario)) == summary


def test_bare_mode_hits_both_targets(tmp_path, monkeypatch):
    """Both targets in bare mode: resolve_drives inverts C1, then C2 at that power, then C1
    again at the final C2 power; derive and a ratio sweep both land on the two targets."""
    doc = {"detuning_mode": "bare", "drives": {"c1": 40.0, "c2": 40.0},
           "sweep": {**RATIO, "n_points": 3}, "output": {"path": str(tmp_path / "r.csv")}}
    scenario = cli.Scenario.from_dict(doc)
    inversions = counted(monkeypatch, "invert_cooperativity")
    solves = counted(monkeypatch, "solve_working_point")
    run = cli.Run(scenario)
    assert [args[1] for args, _ in inversions] == [1, 2, 1]
    assert run.c1 == pytest.approx(40.0, rel=1e-9)
    assert run.c2 == pytest.approx(40.0, rel=1e-9)
    derived = cli.derive_summary(run)
    solves.clear()
    swept = cli.run_scenario(scenario)
    for summary in (derived, swept):
        assert summary["c1"] == pytest.approx(40.0, rel=1e-9)
        assert summary["c2"] == pytest.approx(40.0, rel=1e-9)
    drives = Counter(args[1] for args, _ in solves)
    assert drives.most_common(1)[0][1] == 1, drives.most_common(1)
    assert len((tmp_path / "r.csv").read_text().splitlines()) == 1 + 3


def test_auto_probe_grid_follows_the_absorption_peak_width(tmp_path):
    """No n_points with both tones on: 20 points per kappa2 + s2/Gamma_EIT, with
    s2/Gamma_EIT = kappa2 C2/(1 + C1) (s2 = C2 kappa2 gamma_m/2, Gamma_EIT = (1 + C1) gamma_m/2)."""
    sweep = {"kind": "probe_x", "x_min_gamma_m": -10.0, "x_max_gamma_m": 10.0}
    scenario = write_scenario(tmp_path, "auto", sweep, drives={"c1": 40.0, "c2": 40.0})
    out = tmp_path / "auto.csv"
    assert cli.main(["sweep", "--scenario", str(scenario), "--out", str(out)]) == 0
    params = om.default_params()
    width = params.kappa2 * (1.0 + 40.0 / 41.0) / params.gamma_m  # in gamma_m units
    expected = math.ceil(20.0 * 20.0 / width) + 1
    assert 801 < expected < 20001
    assert len(out.read_text().splitlines()) == 1 + expected


def test_resolved_drives_match_working_point(params):
    scenario = cli.Scenario.from_dict({"drives": {"c1": 25.0, "c2": 10.0}})
    solve = cli._memo_solver(scenario.params, scenario.detuning_mode)
    drives, c1, c2, wp = cli.resolve_drives(scenario, solve)
    assert wp == om.solve_working_point(params, drives)
    assert c1 == pytest.approx(25.0, rel=1e-9) and c2 == pytest.approx(10.0, rel=1e-9)
