"""The benchmark's stored reference tables, checked in the tier-1 suite.

Two benchmark workloads run in-process through ``cli.main``: the seed-1 ``ratio_bare``
round (the fig5 preset in bare mode and six seeded bare ratio windows) and the
``dense_grids`` fig2 invocation (six probe spectra).  Their outputs pass every check
``perfbench/checks.py`` attaches to them, including the 1e-12 comparison with
``perfbench/reference/``, which this module only reads.  The ``cold_presets``
references are covered by the traced run in ``perfbench/test_perfbench.py``.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import checks  # noqa: E402
import workloads  # noqa: E402

from oemsim import cli  # noqa: E402

REFERENCE = PERFBENCH / "reference"


def references(invocations) -> set[str]:
    return {spec["file"] for inv in invocations for specs in inv.outputs.values()
            for spec in specs if spec["kind"] == "reference"}


@pytest.mark.parametrize("workload, names, expected", [
    ("ratio_bare", None, {"fig5_bare.csv.gz"}),
    ("dense_grids", {"fig2"}, {f"fig2_{label}.csv.gz" for label, _, _ in workloads.FIG2_VARIANTS}),
], ids=["ratio_bare", "dense_grids_fig2"])
def test_workload_outputs_match_the_references(tmp_path, capsys, workload, names, expected):
    invocations = [inv for inv in workloads.build(workload, 1, tmp_path / "scenarios")
                   if names is None or inv.name in names]
    assert references(invocations) == expected
    round_dir = tmp_path / "round"
    round_dir.mkdir()
    for inv in invocations:
        assert cli.main(inv.argv(round_dir)) == 0, (inv.name, capsys.readouterr().err)
    checker = checks.Checker()
    for inv in invocations:
        for name, specs in inv.outputs.items():
            checker.run(round_dir / name, specs, round_dir, REFERENCE)
