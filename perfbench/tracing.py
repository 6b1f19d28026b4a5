"""In-process tracing of oemsim's layers, installed from the benchmark's side.

A span is recorded around every call to the public functions each layer
exposes (plus ``cli._write_table``, the table serializer).  Spans carry a
name, a tag (detuning mode or model where the call has one), start, end, the
index of the enclosing span, the invocation id, whether the call raised, and
a work count taken from the result.  They are kept in memory; ``write``
saves them as CSV when the run ends.  ``install`` replaces every module attribute
that refers to a traced function, so calls inside the package are seen too,
and returns what ``restore`` needs to put the originals back.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


def _arg(args, kwargs, index, name, default):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


# (module, attribute, tag(args, kwargs), count(args, kwargs, result))
TARGETS = [
    ("oemsim.working_point", "solve_working_point",
     lambda a, k: _arg(a, k, 2, "detuning_mode", "effective"),
     lambda a, k, r: int(r.multiple_roots)),
    ("oemsim.cli", "invert_cooperativity", None, None),
    ("oemsim.cli", "resolve_drives", None, None),
    ("oemsim.cli", "derive_summary", None, None),
    ("oemsim.cli", "run_scenario", None, None),
    ("oemsim.cli", "_write_table", None, lambda a, k, r: len(a[2]) * len(a[1])),
    ("oemsim.linear_response", "solve_sidebands",
     lambda a, k: "rwa" if _arg(a, k, 3, "rwa", False) else "full", None),
    ("oemsim.linear_response", "solve_sidebands_closed_form", None, None),
    ("oemsim.linear_response", "probe_outputs", None, None),
    ("oemsim.oscillators", "harmonic_steady_state", None, None),
    ("oemsim.oscillators", "propagate", None, lambda a, k, r: len(r.times)),
    ("oemsim.analytic", "root_trajectories", None, None),
    ("oemsim.analytic", "denominator_roots", None, None),
]

# span fields
NAME, TAG, START, END, PARENT, INVOCATION, OK, COUNT = range(8)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._invocation = -1

    def _open(self, name: str, tag: str) -> list:
        span = [name, tag, perf_counter(), 0.0, self._stack[-1] if self._stack else -1,
                self._invocation, True, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[END] = perf_counter()
        self._stack.pop()

    @contextmanager
    def invocation(self, invocation_id: int):
        """Root span of one CLI invocation."""
        self._invocation = invocation_id
        span = self._open("invocation", "")
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name, fn, tag_of=None, count_of=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name, tag_of(args, kwargs) if tag_of else "")
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[OK] = False
                raise
            finally:
                tracer._close(span)
            if count_of:
                span[COUNT] = count_of(args, kwargs, result)
            return result

        return traced

    def write(self, path: Path) -> None:
        """One CSV row per span; times in seconds from the first span's start."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,tag,start_s,end_s,parent,invocation,ok,count\n")
            for name, tag, start, end, parent, invocation, ok, count in self.spans:
                fh.write(f"{name},{tag},{start - t0:.7f},{end - t0:.7f},{parent},"
                         f"{invocation},{int(ok)},{count}\n")


def install(tracer: Tracer):
    """Wrap every TARGETS function; returns (patches, names not found)."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "oemsim" or n.startswith("oemsim."))]
    patches, missing = [], []
    for module_name, attr, tag_of, count_of in TARGETS:
        original = getattr(sys.modules.get(module_name), attr, None)
        if original is None:
            missing.append(f"{module_name}.{attr}")
            continue
        wrapper = tracer.wrap(f"{module_name.split('.', 1)[1]}.{attr}", original,
                              tag_of, count_of)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    patches.append((module, key, original))
    return patches, missing


def restore(patches) -> None:
    for module, key, original in reversed(patches):
        setattr(module, key, original)


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


# Layers that self time is charged to; the invocation root and any other
# span count as cli.
LAYERS = ("working_point", "invert_cooperativity", "linear_response", "oscillators",
          "analytic", "cli")


def _layer(name: str) -> str:
    if name == "cli.invert_cooperativity":
        return "invert_cooperativity"
    module = name.split(".", 1)[0]
    return module if module in LAYERS else "cli"


def layer_metrics(spans: list[list], rounds: int, invocations: int, rows: int) -> dict:
    """Per-layer metrics from the spans of ``rounds`` traced rounds.

    Counts and seconds are per round; per-call times are means.
    """
    own = self_times(spans)
    calls = defaultdict(int)
    busy = defaultdict(float)
    counts = defaultdict(int)
    failures = defaultdict(int)
    self_by_name = defaultdict(float)
    self_by_layer = defaultdict(float)
    wp_in_invert = 0
    for i, s in enumerate(spans):
        key = (s[NAME], s[TAG])
        duration = s[END] - s[START]
        for k in (s[NAME], key):
            calls[k] += 1
            busy[k] += duration
            counts[k] += s[COUNT]
        failures[s[NAME]] += not s[OK]
        self_by_name[s[NAME]] += own[i]
        self_by_layer[_layer(s[NAME])] += own[i]
        if (s[NAME] == "working_point.solve_working_point" and s[PARENT] >= 0
                and spans[s[PARENT]][NAME] == "cli.invert_cooperativity"):
            wp_in_invert += 1

    def per_call_us(k):
        return 1e6 * busy[k] / calls[k] if calls[k] else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    wp = "working_point.solve_working_point"
    inv = "cli.invert_cooperativity"
    ss = "linear_response.solve_sidebands"
    cf = "linear_response.solve_sidebands_closed_form"
    po = "linear_response.probe_outputs"
    prop = "oscillators.propagate"
    wt = "cli._write_table"
    total = busy["invocation"]
    m = {
        "working_point.calls": (calls[wp] / rounds, "count"),
        "working_point.us_per_call.bare": (per_call_us((wp, "bare")), "us"),
        "working_point.us_per_call.effective": (per_call_us((wp, "effective")), "us"),
        "working_point.solves_per_row": (ratio(calls[wp], rows * rounds), "solves/row"),
        "working_point.multiple_roots_share": (ratio(counts[wp], calls[wp]), "fraction"),
        "working_point.failures": (failures[wp] / rounds, "count"),
        "cli.invert_cooperativity.calls": (calls[inv] / rounds, "count"),
        "cli.invert_cooperativity.busy_s": (busy[inv] / rounds, "s"),
        "cli.invert_cooperativity.wp_solves_per_call": (ratio(wp_in_invert, calls[inv]),
                                                        "solves/call"),
        "cli.resolve_drives.calls_per_invocation": (
            ratio(calls["cli.resolve_drives"], invocations * rounds), "calls/inv"),
        "linear_response.solve_sidebands.us_per_point.rwa": (per_call_us((ss, "rwa")), "us"),
        "linear_response.solve_sidebands.us_per_point.full": (per_call_us((ss, "full")), "us"),
        "linear_response.closed_form.us_per_point": (per_call_us(cf), "us"),
        "linear_response.probe_outputs.busy_s": (busy[po] / rounds, "s"),
        "linear_response.points": ((calls[ss] + calls[cf]) / rounds, "count"),
        "linear_response.failures": ((failures[ss] + failures[cf] + failures[po]) / rounds,
                                     "count"),
        "oscillators.harmonic_steady_state.us_per_point": (
            per_call_us("oscillators.harmonic_steady_state"), "us"),
        "oscillators.propagate.busy_s": (busy[prop] / rounds, "s"),
        "oscillators.propagate.samples_per_s": (ratio(counts[prop], busy[prop]), "1/s"),
        "analytic.root_trajectories.busy_s": (busy["analytic.root_trajectories"] / rounds, "s"),
        "analytic.denominator_roots.us_per_call": (per_call_us("analytic.denominator_roots"),
                                                   "us"),
        "cli.write_table.busy_s": (busy[wt] / rounds, "s"),
        "cli.write_table.values_per_s": (ratio(counts[wt], busy[wt]), "1/s"),
        "cli.self_s": (self_by_name["cli.run_scenario"] / rounds, "s"),
        "trace.invocation_s": (total / rounds, "s"),
    }
    for layer in LAYERS:
        m[f"self_s.{layer}"] = (self_by_layer[layer] / rounds, "s")
    return m
