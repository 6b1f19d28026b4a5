"""The benchmark's tracer wraps oemsim functions by (module, attribute) name; a name it
cannot find is only warned about and its per-layer metrics read 0.  This checks that
every traced name still resolves, so that a rename shows here and not as a silent 0."""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402

# the scalar sideband solvers that response_grid replaced; CLI runs never called them,
# so their metrics read 0 before and after
REMOVED = {("oemsim.linear_response", "solve_sidebands"),
           ("oemsim.linear_response", "solve_sidebands_closed_form")}


def test_every_trace_target_resolves():
    missing = {(module, attr) for module, attr, _, _ in tracing.TARGETS
               if not hasattr(importlib.import_module(module), attr)}
    assert missing == REMOVED
