"""The process entry: ``python -m oemsim.cli`` and the ``oemsim`` script run ``cli.entry``,
which exits through ``gc.freeze()``; ``cli.main`` itself leaves the process as it was."""

import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import oemsim
from oemsim import cli

SRC = Path(oemsim.__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}

RUNS = {  # case: (command line before --out, output file name)
    "derive": (["derive", "--scenario", "fig5"], "summary.json"),
    "sweep": (["sweep", "--scenario", "fig4", "--points", "7"], "fig4.csv"),
    "malformed": (["sweep", "--scenario", "bad.json"], "t.csv"),
}


def outputs(directory: Path, stdout: str) -> tuple[str, dict]:
    """stdout with the run directory taken out, and every file written but the scenario."""
    files = {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.name != "bad.json"}
    return stdout.replace(str(directory), "<dir>"), files


@pytest.mark.parametrize("case", sorted(RUNS))
def test_module_entry_matches_in_process_main(tmp_path, capsys, monkeypatch, case):
    args, name = RUNS[case]
    results = []
    for side in ("child", "in_process"):
        run_dir = tmp_path / side
        run_dir.mkdir()
        (run_dir / "bad.json").write_text(json.dumps({"sweep": {"kind": "probe_x",
                                                                 "n_points": 1}}))
        argv = [*args, "--out", str(run_dir / name)]
        if side == "child":
            proc = subprocess.run([sys.executable, "-m", "oemsim.cli", *argv], cwd=run_dir,
                                  env=ENV, capture_output=True, text=True, timeout=120)
            code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
        else:
            monkeypatch.chdir(run_dir)
            code = cli.main(argv)
            stdout, stderr = capsys.readouterr()
        results.append((code, stderr, *outputs(run_dir, stdout)))
    assert results[0] == results[1]
    assert results[0][0] == (2 if case == "malformed" else 0)


def test_module_entry_freezes_gc_before_exit(tmp_path):
    """``python -m oemsim.cli`` (run here through runpy, with sys.exit patched to report)
    freezes the heap after main returns and exits with main's code."""
    code = (
        "import gc, runpy, sys\n"
        "assert gc.get_freeze_count() == 0\n"
        "sys.exit = lambda code: print('exit', code, gc.get_freeze_count() > 0)\n"
        "sys.argv = ['oemsim', 'invert', '--target', '40', '--cavity', '1']\n"
        "runpy.run_module('oemsim.cli', run_name='__main__')\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=ENV,
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.splitlines()[-1] == "exit 0 True"
    assert json.loads(proc.stdout.rsplit("exit", 1)[0])["cavity"] == 1


def test_in_process_main_leaves_gc_unfrozen(capsys):
    assert gc.get_freeze_count() == 0
    assert cli.main(["derive"]) == 0
    assert cli.main(["invert", "--target", "40", "--cavity", "2"]) == 0
    capsys.readouterr()
    assert gc.get_freeze_count() == 0


def test_console_script_is_the_entry():
    pyproject = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    scripts = re.search(r"^\[project\.scripts\]\n((?:.+\n)*)", pyproject, re.M).group(1)
    assert scripts == 'oemsim = "oemsim.cli:entry"\n'
    assert callable(cli.entry)
