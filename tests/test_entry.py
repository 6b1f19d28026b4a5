"""The process entry: ``python -m oemsim.cli`` and the ``oemsim`` script run ``cli.entry``,
which flushes the streams and exits through ``os._exit`` (``sys.exit`` under a profiler);
``cli.main`` itself leaves the process as it was."""

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
# Buffered stdout, as on a terminal-less run without PYTHONUNBUFFERED, so that a missing
# flush before the exit shows as missing output.
ENV = {**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
       "PYTHONPATH": os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}

SCENARIOS = {  # written into every run directory
    "bad.json": {"sweep": {"kind": "probe_x", "n_points": 1}},
    "blue.json": {"params": {"delta1_hz": -1e7}, "drives": {"p_c1": "1.3mW"}},  # unstable
}
RUNS = {  # case: (command line before --out, output file name, exit code)
    "derive": (["derive", "--scenario", "fig5"], "summary.json", 0),
    "sweep": (["sweep", "--scenario", "fig4", "--points", "7"], "fig4.csv", 0),
    "malformed": (["sweep", "--scenario", "bad.json"], "t.csv", 2),
    "unstable": (["derive", "--scenario", "blue.json"], "summary.json", 3),
}


def outputs(directory: Path, stdout: str) -> tuple[str, dict]:
    """stdout with the run directory taken out, and every file written but the scenarios."""
    files = {p.name: p.read_bytes() for p in sorted(directory.iterdir())
             if p.name not in SCENARIOS}
    return stdout.replace(str(directory), "<dir>"), files


@pytest.mark.parametrize("case", sorted(RUNS))
def test_module_entry_matches_in_process_main(tmp_path, capsys, monkeypatch, case):
    args, name, expected = RUNS[case]
    results = []
    for side in ("child", "in_process"):
        run_dir = tmp_path / side
        run_dir.mkdir()
        for file_name, doc in SCENARIOS.items():
            (run_dir / file_name).write_text(json.dumps(doc))
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
    assert results[0][0] == expected


def test_module_entry_flushes_then_skips_teardown(tmp_path):
    """``python -m oemsim.cli`` (run here through runpy) writes its buffered stdout and
    exits with main's code through ``os._exit``: an atexit handler does not run."""
    code = (
        "import atexit, os, runpy, sys\n"
        "atexit.register(os.write, 2, b'atexit ran')\n"
        "sys.argv = ['oemsim', 'invert', '--target', '40', '--cavity', '1']\n"
        "runpy.run_module('oemsim.cli', run_name='__main__')\n"
        "os.write(2, b'entry returned')\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=ENV,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["cavity"] == 1


CLOSED_PIPE = {  # case: (command line, unbuffered stdout)
    "buffered": (["derive"], False),
    "unbuffered": (["derive"], True),
    "help_buffered": (["--help"], False),  # argparse's exit returns through main
    "help_unbuffered": (["--help"], True),  # argparse's failed write is not swallowed
}


@pytest.mark.parametrize("case", sorted(CLOSED_PIPE))
def test_closed_stdout_pipe_exits_4(tmp_path, case):
    """A stdout pipe whose reader has gone fails the final flush (buffered) or the write
    inside main (unbuffered); both exit 4 with one line and no traceback."""
    args, unbuffered = CLOSED_PIPE[case]
    env = {**ENV, "PYTHONUNBUFFERED": "1"} if unbuffered else ENV
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "oemsim.cli", *args], cwd=tmp_path,
                              env=env, stdout=write_end, stderr=subprocess.PIPE, text=True,
                              timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (4, "i/o error: [Errno 32] Broken pipe\n")


def test_argparse_exits_return_through_main(capsys):
    """--help and a usage error return their codes instead of raising SystemExit."""
    assert cli.main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: oemsim")
    assert cli.main(["sweep"]) == 2
    assert "error: the following arguments are required: --scenario" in capsys.readouterr().err


def test_profiled_module_entry_prints_its_statistics(tmp_path):
    """Under cProfile the entry exits through ``sys.exit``, so the profiler still prints."""
    proc = subprocess.run([sys.executable, "-m", "cProfile", "-m", "oemsim.cli", "invert",
                           "--target", "40", "--cavity", "1"], cwd=tmp_path, env=ENV,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    summary, stats = proc.stdout.split("}\n", 1)
    assert json.loads(summary + "}")["cavity"] == 1
    assert "function calls" in stats and "Ordered by" in stats


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
