"""Start-up cost guard: the CLI must not import scipy.

numpy is the only runtime dependency; scipy serves the tests as an oracle.
"""

import os
import subprocess
import sys
from pathlib import Path

import oemsim

SRC = str(Path(oemsim.__file__).resolve().parents[1])


def run_python(code):
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                   check=True, timeout=60)


def test_cli_import_loads_no_scipy():
    run_python("import oemsim.cli, sys; "
               "assert not any(m.startswith('scipy') for m in sys.modules)")


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
