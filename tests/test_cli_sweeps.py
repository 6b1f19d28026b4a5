"""CLI sweeps through the whole-grid kernel: table bytes, no per-point path, no repeated solves."""

import json
import math

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import oemsim as om
from oemsim import cli, oscillators
from oemsim import working_point as wpmod


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


def test_cli_oscillator_tables_solve_one_stacked_steady_state(tmp_path, monkeypatch):
    """Every oscillator table, of a probe, variant or ratio sweep, is one
    ``harmonic_steady_state`` call over its whole grid; no other model makes one."""
    shapes = []
    real = oscillators.harmonic_steady_state

    def stacked(*args, **kwargs):
        z = real(*args, **kwargs)
        shapes.append(z.shape)
        return z

    monkeypatch.setattr(oscillators, "harmonic_steady_state", stacked)
    probe = write_scenario(tmp_path, "probe", PROBE)
    variants = write_scenario(tmp_path, "variants", PROBE, variants=[
        {"label": "off", "c2_over_c1": 0.0}, {"label": "osc", "model": "oscillator"},
        {"label": "half", "model": "full", "c2_over_c1": 0.5}])
    ratio = write_scenario(tmp_path, "ratio", RATIO)
    # (scenario, model arguments, --out, written tables, how many of them are oscillator tables)
    oscillator_tables = {m: int(m == "oscillator") for m in cli.MODELS}
    runs = [(probe, ["--model", m], f"probe_{m}.csv", [f"probe_{m}.csv"], oscillator_tables[m])
            for m in cli.MODELS]
    runs += [(variants, [], "v.csv", ["v_off.csv", "v_osc.csv", "v_half.csv"], 1)]
    runs += [(ratio, ["--model", m], f"ratio_{m}.csv", [f"ratio_{m}.csv"], oscillator_tables[m])
             for m in cli.MODELS]
    for scenario, model_args, out, written, n_oscillator in runs:
        shapes.clear()
        args = ["sweep", "--scenario", scenario, *model_args, "--out", tmp_path / out]
        assert cli.main([str(a) for a in args]) == 0
        n_points = (RATIO if scenario == ratio else PROBE)["n_points"]
        assert shapes == [(n_points, 3)] * n_oscillator, (out, shapes)
        for name in written:
            assert len((tmp_path / name).read_text().splitlines()) == 1 + n_points


def counted(monkeypatch, name):
    """Record every call of ``working_point.<name>``, made from cli or from working_point."""
    calls = []
    real = getattr(wpmod, name)

    def wrapper(*args, **kwargs):
        calls.append((args, tuple(sorted(kwargs.items()))))
        return real(*args, **kwargs)

    for module in (cli, wpmod):
        monkeypatch.setattr(module, name, wrapper)
    return calls


def test_invert_cooperativity_solves_each_power_once(params, monkeypatch):
    solves = counted(monkeypatch, "solve_working_point")
    for mode in ("effective", "bare"):
        p1 = cli.invert_cooperativity(params, 35.0, 0.0, mode)[0].p_c1
        for c1, c2, p_c1 in ((35.0, 0.0, 0.0), (0.0, 35.0, 0.0), (35.0, 20.0, 0.0),
                             (None, 20.0, p1)):
            solves.clear()
            drives = cli.invert_cooperativity(params, c1, c2, mode, p_c1=p_c1)[0]
            assert drives.p_c1 > 0 or drives.p_c2 > 0
            assert [args[1] for args, _ in solves] == [drives]  # the one confirming solve


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
    # an inversion is a closed form plus at most one confirming solve
    assert solves_per_inversion and max(solves_per_inversion) <= 1, solves_per_inversion

    run = cli.Run(scenario)
    for module in (cli, wpmod):  # anything left to solve fails
        monkeypatch.setattr(module, "solve_working_point", None)
    summary = cli.derive_summary(run)
    assert cli._auto_probe_points(run, -1.0, 1.0) >= 801
    monkeypatch.undo()
    assert cli.derive_summary(cli.Run(scenario)) == summary


def test_bare_mode_hits_both_targets(tmp_path, monkeypatch, capsys):
    """Both targets in bare mode: resolve_drives holds both photon numbers in one inversion,
    whose one forward solve lands on C1 = C2 = 40; derive and a ratio sweep both report them."""
    doc = {"detuning_mode": "bare", "drives": {"c1": 40.0, "c2": 40.0},
           "sweep": {**RATIO, "n_points": 3}, "output": {"path": str(tmp_path / "r.csv")}}
    scenario = cli.Scenario.from_dict(doc)
    inversions = counted(monkeypatch, "invert_cooperativity")
    solves = counted(monkeypatch, "solve_working_point")
    run = cli.Run(scenario)
    assert len(inversions) == 1
    assert [args[1] for args, _ in solves] == [run.drives]
    assert abs(run.c1 - 40.0) <= 1e-12 and abs(run.c2 - 40.0) <= 1e-12, (run.c1, run.c2)
    derived = cli.derive_summary(run)
    solves.clear()
    swept = cli.run_scenario(scenario)
    # rows drive cavity 1 at the run's own power, so the C2/C1 = 1 row is the run's own point
    assert solves[-1][0][1] == run.drives, (solves[-1][0][1], run.drives)
    path = tmp_path / "bare.json"
    path.write_text(json.dumps({"detuning_mode": "bare", "drives": {"c1": 40.0, "c2": 40.0}}))
    capsys.readouterr()
    assert cli.main(["derive", "--scenario", str(path)]) == 0
    printed = json.loads(capsys.readouterr().out)
    for summary in (derived, swept, printed):
        assert abs(summary["c1"] - 40.0) <= 1e-12 and abs(summary["c2"] - 40.0) <= 1e-12
    assert len((tmp_path / "r.csv").read_text().splitlines()) == 1 + 3


def test_bare_ratio_rows_drive_cavity_1_at_the_given_power(tmp_path, monkeypatch):
    """Power drives in bare mode with tone 2 on: every row, and the tone-2-off point, is
    solved at the scenario's p_c1 itself."""
    doc = {"detuning_mode": "bare", "drives": {"p_c1": "1.3mW", "p_c2": "3.3uW"},
           "sweep": {**RATIO, "n_points": 3}, "output": {"path": str(tmp_path / "r.csv")}}
    scenario = cli.Scenario.from_dict(doc)
    solves = counted(monkeypatch, "solve_working_point")
    cli.run_scenario(scenario)
    assert len(solves) == 1 + 1 + 3  # as driven, tone 2 off, and one per row
    assert {args[1].p_c1 for args, _ in solves} == {cli.parse_power("1.3mW")}


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
    drives, c1, c2, wp = cli.resolve_drives(scenario)
    assert wp == om.solve_working_point(params, drives)
    assert c1 == pytest.approx(25.0, rel=1e-9) and c2 == pytest.approx(10.0, rel=1e-9)
