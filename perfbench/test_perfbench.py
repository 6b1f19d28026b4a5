"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import oemsim.cli  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_same_seed_gives_identical_scenario_files(workload, tmp_path):
    def files(directory, seed):
        workloads.build(workload, seed, directory)
        return {p.name: p.read_bytes() for p in directory.iterdir()}

    first = files(tmp_path / "a", 7)
    assert first
    assert files(tmp_path / "b", 7) == first
    assert files(tmp_path / "c", 8) != first


def _write_perturbed(path: Path, column: int, out: Path) -> bool:
    """Copy a table with the largest value of one column scaled by 1 + 1e-9."""
    columns, data = checks.read_table(path)
    row = int(np.argmax(np.abs(data[:, column])))
    if data[row, column] == 0.0:
        return False
    data[row, column] *= 1.0 + 1e-9
    if path.suffix == ".json":
        out.write_text(json.dumps({"columns": columns, "rows": data.tolist()}), "utf-8")
    else:
        with open(out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows([[repr(v) for v in r] for r in data.tolist()])
    return True


@pytest.mark.parametrize("name,columns", [
    ("probe_seeded", range(8)),   # every column of a probe table
    ("roots_seeded", range(4)),   # ratio and the three decay rates
])
def test_table_perturbed_by_1e9_fails_the_check(name, columns, tmp_path):
    inv = next(i for i in workloads.build("cold_presets", 3, tmp_path / "scenarios")
               if i.name == name)
    assert oemsim.cli.main(inv.argv(tmp_path)) == 0
    (out_name, specs), = inv.outputs.items()
    good = tmp_path / out_name
    checks.Checker().run(good, specs, tmp_path, run.REFERENCE)

    bad_dir = tmp_path / "bad"
    bad_dir.mkdir()
    for column in columns:
        assert _write_perturbed(good, column, bad_dir / out_name)
        with pytest.raises(checks.CheckError):
            checks.Checker().run(bad_dir / out_name, specs, bad_dir, run.REFERENCE)


def test_traced_run_restores_every_wrapped_name(tmp_path):
    modules = [m for n, m in sys.modules.items() if n == "oemsim" or n.startswith("oemsim.")]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    invocations = workloads.build("cold_presets", 1, tmp_path / "scenarios")
    outputs, metrics, _ = run.traced_run(invocations, tmp_path, 0.0, perf_counter(),
                                         "cold_presets")

    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert outputs.failed == 0
    assert metrics["analytic.root_trajectories.busy_s"][0] > 0
    assert metrics["cli.invert_cooperativity.calls"][0] > 0


def test_self_time_subtracts_direct_children():
    spans = [
        ["invocation", "", 0.0, 10.0, -1, 0, True, 0],
        ["cli.run_scenario", "", 1.0, 9.0, 0, 0, True, 0],
        ["working_point.solve_working_point", "effective", 2.0, 5.0, 1, 0, True, 0],
        ["cli._write_table", "", 6.0, 8.0, 1, 0, True, 0],
    ]
    assert tracing.self_times(spans) == [2.0, 3.0, 3.0, 2.0]
