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
    "help_buffered": (["--help"], False),  # --help returns 0 through main
    "help_unbuffered": (["--help"], True),  # the failed help write raises its OSError
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


def usage_error(capsys, argv) -> tuple[str, str]:
    """The first and last stderr lines of a refused command line, after checking that main
    returns 2 and prints nothing to stdout."""
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    usage, *_, error = err.splitlines()
    assert usage.startswith("usage: oemsim")
    return usage, error


USAGE_ERRORS = {  # case: (command line, the error line)
    "unknown_flag": (["sweep", "--scenario", "fig4", "--bogus", "1"],
                     "oemsim sweep: error: unrecognized arguments: --bogus"),
    "stray_word": (["derive", "fig4"], "oemsim derive: error: unrecognized arguments: fig4"),
    "no_command": ([], "oemsim: error: the following arguments are required: command"),
    "unknown_command": (["plot"], "oemsim: error: argument command: invalid choice: 'plot' "
                        "(choose from 'derive', 'sweep', 'roots', 'integrate', 'invert')"),
    "cavity_3": (["invert", "--target", "40", "--cavity", "3"],
                 "oemsim invert: error: argument --cavity: invalid choice: 3 (choose from 1, 2)"),
    "model_bogus": (["sweep", "--scenario", "fig2", "--model", "bogus"],
                    "oemsim sweep: error: argument --model: invalid choice: 'bogus' "
                    "(choose from 'full', 'rwa', 'analytic', 'oscillator')"),
    "points_x": (["roots", "--scenario", "fig3", "--points", "x"],
                 "oemsim roots: error: argument --points: invalid int value: 'x'"),
    "target_x": (["invert", "--target", "x", "--cavity", "1"],
                 "oemsim invert: error: argument --target: invalid float value: 'x'"),
    "value_missing": (["sweep", "--scenario", "fig4", "--out"],
                      "oemsim sweep: error: argument --out: expected one argument"),
    "value_is_a_flag": (["sweep", "--scenario", "--out", "t.csv"],
                        "oemsim sweep: error: argument --scenario: expected one argument"),
    "required_missing": (["invert"], "oemsim invert: error: the following arguments are "
                         "required: --target, --cavity"),
    "help_with_value": (["derive", "--help=yes"],
                        "oemsim derive: error: argument -h/--help: ignored explicit argument "
                        "'yes'"),
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_usage_errors_print_usage_then_the_error_and_return_2(capsys, case):
    argv, expected = USAGE_ERRORS[case]
    usage, error = usage_error(capsys, argv)
    assert error == expected
    assert usage.startswith(f"usage: oemsim {argv[0]} [-h]" if argv and argv[0] in cli.COMMANDS
                            else "usage: oemsim [-h] {derive,sweep,roots,integrate,invert}")


def test_an_ambiguous_prefix_is_a_usage_error(capsys, monkeypatch):
    """No two flags of today's table share a prefix, so the test adds one that does."""
    text, flags = cli.COMMANDS["derive"]
    monkeypatch.setitem(cli.COMMANDS, "derive",
                        (text, {**flags, "--scale": (float, False, "a second --s flag")}))
    assert usage_error(capsys, ["derive", "--s", "fig2"])[1] == (
        "oemsim derive: error: ambiguous option: --s could match --scenario, --scale")
    assert cli.parse_args(["derive", "--sce", "fig2", "--sca=2"]) == (
        "derive", {"scenario": "fig2", "scale": 2.0})


def test_equals_form_and_unique_prefixes_write_the_same_bytes(tmp_path, capsys):
    """--out=PATH and a unique prefix (--scen, --poi) set the same options as the full
    spelling, so the three runs print and write the same bytes."""
    runs = {"full": ["--scenario", "fig4", "--points", "9", "--out"],
            "equals": ["--scenario=fig4", "--points=9", "--out={}"],
            "prefix": ["--scen", "fig4", "--poi", "9", "--o"]}
    written = {}
    for name, flags in runs.items():
        out = tmp_path / f"{name}.csv"
        argv = ["sweep", *[f.format(out) for f in flags]] + ([] if name == "equals" else [out])
        assert cli.main([str(a) for a in argv]) == 0
        written[name] = (capsys.readouterr().out.replace(str(out), "<out>"), out.read_bytes())
    assert written["full"] == written["equals"] == written["prefix"]
    assert cli.parse_args(["sweep", "--scen", "fig4", "--po=9", "--f", "json"]) == (
        "sweep", {"scenario": "fig4", "points": 9, "format": "json"})


def test_a_negative_number_is_a_value_not_a_flag(capsys):
    """As with argparse, ``--target -1`` passes -1 on to the run, which refuses it."""
    assert cli.parse_args(["invert", "--target", "-1", "--cavity", "1"]) == (
        "invert", {"target": -1.0, "cavity": 1})
    assert cli.main(["invert", "--target", "-1", "--cavity", "1"]) == 2
    assert capsys.readouterr().err == "error: drives.c1 must be finite and >= 0, got -1.0\n"


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["--he"]]
                         + [[name, flag] for name in cli.COMMANDS for flag in ("-h", "--help")])
def test_help_prints_usage_and_every_flag_to_stdout(capsys, argv):
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    command = argv[0] if argv[0] in cli.COMMANDS else None
    assert cli.parse_args(argv) == (command, None)
    assert out.startswith(f"usage: oemsim {command} [-h]" if command else "usage: oemsim [-h]")
    for name in cli.COMMANDS[command][1] if command else cli.COMMANDS:
        assert f"\n  {name}" in out
