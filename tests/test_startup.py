"""Start-up cost guard: the CLI must not import scipy, ``dataclasses``, ``fractions``,
``decimal``, ``importlib.resources`` or argparse, and each subcommand loads only the
layers it runs.

numpy is the only runtime dependency; scipy serves the tests as an oracle.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oemsim

SRC = str(Path(oemsim.__file__).resolve().parents[1])
NUMPY_DIR = str(Path(np.__file__).resolve().parents[1])
LAYERS = ("oemsim.analytic", "oemsim.linear_response", "oemsim.oscillators")
CLI_IMPORT = {"oemsim", "oemsim.cli", "oemsim.errors", "oemsim.params", "oemsim.working_point"}


def run_python(code, *flags, path=(), cwd=None) -> str:
    """Run ``code`` in a fresh interpreter; its stdout, once it has exited 0."""
    path = os.pathsep.join(p for p in (SRC, *path, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *flags, "-c", code], cwd=cwd, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_modules(argv=None, cwd=None) -> set:
    """The package modules and argparse, if loaded, after ``import oemsim.cli`` and, given
    ``argv``, ``cli.main(argv)`` in a fresh ``-S`` interpreter (no site ``.pth`` hooks;
    numpy's directory goes on PYTHONPATH)."""
    run = "" if argv is None else ("with redirect_stdout(io.StringIO()):\n"
                                   f"    assert oemsim.cli.main({argv!r}) == 0\n")
    return set(json.loads(run_python(
        "import io, json, sys\n"
        "from contextlib import redirect_stdout\n"
        "import oemsim.cli\n"
        f"{run}"
        "print(json.dumps([m for m in sys.modules if m.startswith(('oemsim', 'argparse'))]))\n",
        "-S", path=(NUMPY_DIR,), cwd=cwd)))


def test_cli_import_loads_no_scipy():
    run_python("import oemsim.cli, sys; "
               "assert not any(m.startswith('scipy') for m in sys.modules)")


def test_cli_import_loads_no_dataclasses():
    run_python("import oemsim.cli, sys; assert 'dataclasses' not in sys.modules")


def test_cli_import_loads_no_fractions_or_decimal():
    """Exact arithmetic is for the rare point that needs it: ``import fractions`` alone
    costs 2-3 ms of start-up, so a function that uses it imports it itself."""
    run_python("import oemsim.cli, sys; "
               "assert not {'fractions', 'decimal'} & set(sys.modules)")


def test_cli_import_without_site_loads_no_importlib_resources():
    """``-S`` keeps out the site ``.pth`` hooks that may load ``importlib.resources``
    themselves; numpy's directory goes on PYTHONPATH instead."""
    run_python("import oemsim.cli, sys; assert 'importlib.resources' not in sys.modules",
               "-S", path=(NUMPY_DIR,))


def test_bare_cli_import_leaves_the_other_layers_and_argparse_unloaded():
    assert loaded_modules() == CLI_IMPORT


def test_invert_loads_none_of_the_response_pole_or_oscillator_layers(tmp_path):
    assert loaded_modules(["invert", "--target", "40", "--cavity", "2"], tmp_path) == CLI_IMPORT


@pytest.mark.parametrize("argv", [["derive"], ["sweep", "--scenario", "fig4", "--out", "t.csv"],
                                  ["roots", "--scenario", "fig3", "--out", "t.csv"]])
def test_derive_and_sweeps_load_no_oscillators(tmp_path, argv):
    loaded = loaded_modules(argv, tmp_path)
    assert {"oemsim.analytic", "oemsim.linear_response"} <= loaded
    assert "oemsim.oscillators" not in loaded and "argparse" not in loaded


def test_integrate_loads_oscillators(tmp_path):
    (tmp_path / "s.json").write_text(json.dumps(
        {"sweep": {"kind": "time_domain", "t_final": 1e-6, "n_samples": 5}}))
    loaded = loaded_modules(["integrate", "--scenario", "s.json", "--out", "t.csv"], tmp_path)
    assert set(LAYERS) <= loaded and "argparse" not in loaded


def test_every_public_name_resolves_on_first_access():
    """``oemsim`` imports a layer on the first access to one of its names; every name of
    ``__all__`` resolves, ``dir`` lists it, and an unknown name is an AttributeError."""
    run_python("import sys, oemsim\n"
               "assert not any(m in sys.modules for m in %r)\n"
               "assert set(oemsim.__all__) == set(oemsim._MODULE_OF)\n"
               "assert set(oemsim.__all__) <= set(dir(oemsim))\n"
               "for name in oemsim.__all__:\n"
               "    value = getattr(oemsim, name)\n"
               "    provider = sys.modules['oemsim.' + oemsim._MODULE_OF[name]]\n"
               "    assert value is getattr(provider, name), name\n"
               "try:\n"
               "    oemsim.no_such_name\n"
               "except AttributeError:\n"
               "    pass\n"
               "else:\n"
               "    raise AssertionError('no AttributeError')\n"
               "from oemsim import *\n" % (LAYERS,))


def test_exact_propagator_takes_one_expm_and_loads_no_scipy():
    """An exact_propagator run makes one ``_expm`` call, on the 4x4 generator, and
    loads no scipy module."""
    run_python(
        "import sys, oemsim as om\n"
        "from oemsim import oscillators\n"
        "calls = []\n"
        "real = oscillators._expm\n"
        "oscillators._expm = lambda a: calls.append(a.shape) or real(a)\n"
        "m = om.OscillatorModel(delta1=5.0, delta2=5.0, omega_m=5.0, kappa1=2.0,\n"
        "                       kappa2=3.0, gamma_m_half=1.0, g_eff1=0.5, g_eff2=0.0)\n"
        "om.propagate(m, 1.0, 4.0, 6.0, method='exact_propagator', n_samples=5)\n"
        "assert calls == [(4, 4)], calls\n"
        "assert not any(m.startswith('scipy') for m in sys.modules)\n"
    )


def test_no_record_is_built_through_typing_namedtuple():
    """Every record is a ``collections.namedtuple`` class: ``typing.NamedTuple`` compiles
    each field annotation when its module loads, in every process that loads it.  A class
    counts as built through it when ``typing.NamedTuple`` is among its original bases or
    when it carries the field annotations that ``typing.NamedTuple`` sets."""
    found = run_python(
        "import inspect, sys, typing\n"
        "import oemsim.cli, oemsim.analytic, oemsim.linear_response, oemsim.oscillators\n"
        "found = set()\n"
        "for name, module in list(sys.modules.items()):\n"
        "    if name.split('.')[0] != 'oemsim':\n"
        "        continue\n"
        "    for _, cls in inspect.getmembers(module, inspect.isclass):\n"
        "        for c in cls.__mro__:\n"
        "            if c.__module__.split('.')[0] == 'oemsim' and (\n"
        "                    typing.NamedTuple in vars(c).get('__orig_bases__', ())\n"
        "                    or hasattr(c, '_fields') and vars(c).get('__annotations__')):\n"
        "                found.add(f'{c.__module__}.{c.__qualname__}')\n"
        "print(sorted(found))\n")
    assert found == "[]\n", found
