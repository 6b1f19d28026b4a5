"""CLI sweeps through the whole-grid kernel: table bytes, no per-point path, no repeated solves."""

import json
import sys
from collections import Counter

import numpy as np
import pytest

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
    n = 2 * cli._CHUNK_ROWS + 17  # crosses two chunk boundaries
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


def test_resolved_drives_match_working_point(params):
    scenario = cli.Scenario.from_dict({"drives": {"c1": 25.0, "c2": 10.0}})
    solve = cli._memo_solver(scenario.params, scenario.detuning_mode)
    drives, c1, c2, wp = cli.resolve_drives(scenario, solve)
    assert wp == om.solve_working_point(params, drives)
    assert c1 == pytest.approx(25.0, rel=1e-9) and c2 == pytest.approx(10.0, rel=1e-9)
