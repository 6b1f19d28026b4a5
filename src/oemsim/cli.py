"""Scenario-driven command line front end.

Subcommands map 1:1 onto library operations: ``derive`` prints the
derived-quantity summary, ``sweep`` runs probe-detuning or
cooperativity-ratio sweeps, ``roots`` tracks the response poles versus the
cooperativity ratio, ``integrate`` propagates the effective oscillator
triple in time, and ``invert`` finds the coupling power for a target
cooperativity.

Scenarios are single JSON documents.  All frequencies in them are plain Hz
(2*pi is applied internally); powers are watts, either numeric or strings
with an SI prefix ("1.3mW", "3.3uW").  Outputs are deterministic: fixed
column order, numbers serialized with 12 significant digits, no
environment- or time-dependent content, so repeated runs are byte-identical.

The whole scenario is checked when it is loaded: every object in it holds only its
known keys (``_object``), every input lies inside the supported-input envelope
(``params.ENVELOPE``, whose own ``InvalidParameterError`` names the key, the value and the
range), no cooperativity target above 0 falls on an uncoupled cavity, and a key that only
some runs read appears only where one reads it: ``model`` on a probe_x or
cooperativity_ratio sweep, ``variants`` on a probe_x sweep, ``sweep.dt`` with method rk4.

Exit codes: 0 success; 2 an input the run cannot serve (a config or parse error, an input
outside the envelope or off the two-photon resonance a table assumes, an rk4 ``dt`` past
the stability guard and a grid too large to allocate included); 3 a solver that failed on
a valid input (non-convergence, an unstable working point or a singular system); 4 I/O
failure.

Only the layers a subcommand runs are imported: ``invert`` needs the working point
alone, ``derive`` and the sweeps add the closed forms (``analytic``) and the response
kernel (``linear_response``), and only ``integrate`` and the "oscillator" response model
load ``oscillators``.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
from collections import namedtuple
from pathlib import Path

import numpy as np

from .errors import ConvergenceError, InvalidParameterError, ScenarioError, SingularResponseError
from .params import (
    PARAM_KINDS,
    REFERENCE_HZ,
    TWO_PI,
    DriveConfig,
    SystemParams,
    cooperativity,
    critical_power,
    eit_width,
    off_resonance,
    rate_hierarchy,
    within,
)
from .working_point import (
    WorkingPoint,
    _invert_cooperativity,
    invert_cooperativity,
    require_stable,
    solve_working_point,
)

MODELS = ("full", "rwa", "analytic", "oscillator")
PRESETS = ("fig2", "fig3", "fig4", "fig5")

PROBE_COLUMNS = [
    "x_over_gamma_m",
    "re_EL",
    "im_EL",
    "reflect_flux",
    "abs_ER_sq",
    "transmit_flux",
    "mech_intensity",
    "flux_budget",
]
RATIO_COLUMNS = ["c2_over_c1"] + PROBE_COLUMNS[1:]
ROOT_COLUMNS = [
    "c2_over_c1",
    "width_a_over_gamma_m",
    "width_b_over_gamma_m",
    "width_c_over_gamma_m",
    "re_a_over_gamma_m",
    "re_b_over_gamma_m",
    "re_c_over_gamma_m",
]
TIME_COLUMNS = ["t_seconds", "re_u", "im_u", "re_v", "im_v", "re_w", "im_w"]

# Tables of _csv_chunk.  _POW10[k + 160] is 10**k correctly rounded; _DIGITS[g] holds the
# four digits of g < 10**4 as bytes; _SLOT numbers the template rows.
_POW10 = np.array([float(f"1e{k}") for k in range(-160, 171)])
_DIGITS = (48 + np.indices((10,) * 4, np.uint8)).reshape(4, -1).T.copy().view(np.uint32).ravel()
_SLOT = np.arange(17, dtype=np.uint8)[:, None]
_CSV_CHUNK_ROWS = 1024  # rows formatted and written at a time

_SI_PREFIX = {"": 1.0, "k": 1e3, "m": 1e-3, "u": 1e-6, "µ": 1e-6, "n": 1e-9, "p": 1e-12}
_POWER_RE = re.compile("\\s*([0-9.eE+\\-]+)\\s*([kmunpµ]?)W\\s*")
_LABEL_RE = re.compile(r"[\w.+-]+")  # a variant label: a plain file-name part


def parse_power(value, name: str = "power") -> float:
    """Watts from a number or an SI-suffixed string like '1.3mW'."""
    if isinstance(value, str):
        match = _POWER_RE.fullmatch(value)
        if not match:
            raise ScenarioError(
                f"cannot parse {name} {value!r} (expected e.g. 1.3e-3 or '1.3mW')")
        value = _number(match.group(1), name) * _SI_PREFIX[match.group(2)]
    return _number(value, name)


def _fmt(value: float) -> str:
    return f"{float(value):.12g}"


def _round12(value: float) -> float:
    return float(_fmt(value))


class Scenario(namedtuple("Scenario", "params detuning_mode drives sweep variants out_path "
                                      "out_format")):
    """Validated scenario document driving one CLI run.

    ``params`` is a SystemParams, ``detuning_mode`` "effective" or "bare", ``drives`` a dict
    of both powers or both cooperativity targets, ``out_path`` a str or None and
    ``out_format`` "csv" or "json".
    ``sweep`` is empty or holds every key of its kind (``SWEEPS``), already typed;
    ``variants`` holds one dict per table a probe sweep writes, every variant key set, the
    response model included (a scenario without variants has the one unlabeled variant).
    """

    __slots__ = ()

    @classmethod
    def from_dict(cls, doc: dict) -> "Scenario":
        _object(doc, "scenario", ("params", "detuning_mode", "drives", "sweep", "model",
                                  "variants", "output", "description"))  # description: ignored
        params = _params_from_spec(doc.get("params", {}))
        mode = doc.get("detuning_mode", "effective")
        if mode not in ("effective", "bare"):
            raise ScenarioError(f"detuning_mode must be 'effective' or 'bare', got {mode!r}")

        model = doc.get("model", "rwa")
        if model not in MODELS:
            raise ScenarioError(f"model must be one of {MODELS}, got {model!r}")

        output = _object(doc.get("output", {}), "output", ("path", "format"))
        out_path = output.get("path")
        if out_path is not None and not isinstance(out_path, str):
            raise ScenarioError(f"output.path must be a string, got {out_path!r}")
        out_format = output.get("format", "csv")
        if out_format not in ("csv", "json"):
            raise ScenarioError(f"output.format must be csv or json, got {out_format!r}")

        sweep = _sweep_from_spec(doc.get("sweep", {}))
        # each top-level key that only some sweep kinds read -> those kinds; anywhere else
        # it would be ignored, so it is refused
        for key, verb, kinds in (("variants", "need", ("probe_x",)),
                                 ("model", "needs", ("probe_x", "cooperativity_ratio"))):
            if doc.get(key) is not None and sweep.get("kind") not in kinds:
                raise ScenarioError(f"{key} {verb} a {' or '.join(kinds)} sweep, "
                                    f"got kind {sweep.get('kind')!r}")
        if sweep.get("kind") == "roots_vs_ratio":
            if mode == "bare":
                raise ScenarioError("the roots_vs_ratio table assumes two-photon resonance "
                                    "(Delta1 = Delta2 = omega_m), which detuning_mode 'bare' "
                                    "does not hold")
            deltas = (params.delta_bare1, params.delta_bare2)
            off = off_resonance(params, *deltas)
            if off:
                i = min(off)
                raise ScenarioError(f"params.delta{i}_hz = {deltas[i - 1] / TWO_PI:.12g} Hz "
                                    f"lies {off[i]:.4g} kappa{i} from omega_m; the "
                                    f"roots_vs_ratio table assumes two-photon resonance "
                                    f"(within 0.1 kappa{i})")
        return cls(
            params=params,
            detuning_mode=mode,
            drives=_drives_from_spec(doc.get("drives", {"c1": 40.0, "c2": 40.0}), params),
            sweep=sweep,
            variants=_variants_from_spec(doc.get("variants"), model),
            out_path=out_path,
            out_format=out_format,
        )


def _number(value, name: str) -> float:
    """A finite float from a JSON number or numeric string; anything else is a ScenarioError."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = None
    if number is None or isinstance(value, bool):
        raise ScenarioError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(number):
        raise ScenarioError(f"{name} must be finite, got {value!r}")
    return number


def _object(value, name: str, keys) -> dict:
    """``value`` if it is a JSON object with no key outside ``keys``; else a ScenarioError
    naming the object ``name`` and its unknown keys."""
    if not isinstance(value, dict):
        raise ScenarioError(f"{name} must be an object, got {value!r:.60}")
    unknown = sorted(set(value) - set(keys))
    if unknown:
        raise ScenarioError(f"unknown {name} keys: {unknown}")
    return value


def _coupled(target: float, cavity: int, params: SystemParams, name: str) -> None:
    """A ScenarioError naming ``name`` if ``target`` is above 0 on an uncoupled cavity."""
    if target > 0.0 and (params.g1, params.g2)[cavity - 1] == 0.0:
        raise ScenarioError(f"{name} = {target:g} needs a coupled cavity {cavity}, "
                            f"but params.g{cavity}_hz is 0")


def _count(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 2:
        raise ScenarioError(f"{name} must be an integer >= 2, got {value!r}")
    return value


def _params_from_spec(spec) -> SystemParams:
    """SystemParams from a Hz-valued config object (missing keys -> REFERENCE_HZ)."""
    names = {f"{name}_hz": name for name in REFERENCE_HZ}
    names.update(delta1_hz="delta_bare1", delta2_hz="delta_bare2")
    hz = {names[key]: within(_number(value, f"params.{key}"), f"params.{key}",
                             PARAM_KINDS[names[key]])
          for key, value in _object(spec, "params", names).items()}
    return SystemParams.from_hz(**{**REFERENCE_HZ, **hz})


def _drives_from_spec(spec, params: SystemParams) -> dict:
    """Cooperativity targets {c1, c2} or powers {p_c1, p_c2} [W], missing ones 0, each
    inside the envelope; a target above 0 on a cavity that ``params`` leaves uncoupled is
    refused too."""
    powers = sorted(set(_object(spec, "drives", ("c1", "c2", "p_c1", "p_c2"))) - {"c1", "c2"})
    if "c1" not in spec and "c2" not in spec:
        return {key: within(parse_power(spec.get(key, 0.0), f"drives.{key}"), f"drives.{key}",
                            "power") for key in ("p_c1", "p_c2")}
    if powers:
        raise ScenarioError(f"drives mixes cooperativity targets with {powers}")
    targets = {key: within(_number(spec.get(key, 0.0), f"drives.{key}"), f"drives.{key}", "c")
               for key in ("c1", "c2")}
    for cavity, key in ((1, "c1"), (2, "c2")):
        _coupled(targets[key], cavity, params, f"drives.{key}")
    return targets


def _sweep_from_spec(spec) -> dict:
    """Every key of the sweep's kind, typed and checked against ``SWEEPS``; the ratio
    window and every probe offset inside the envelope."""
    # any kind's keys first: a sweep with a wrong kind is refused for its kind, not its keys
    if not _object(spec, "sweep", {"kind"}.union(*(keys for *_, keys in SWEEPS.values()))):
        return {}
    kind, kinds = spec.get("kind"), tuple(SWEEPS)
    if kind not in kinds:
        raise ScenarioError(f"sweep.kind must be one of {kinds}, got {kind!r}")
    defaults = SWEEPS[kind][2]
    _object(spec, f"{kind} sweep", ("kind", *defaults))
    sweep = {**defaults, **{k: v for k, v in spec.items() if v is not None}}
    for key, value in sweep.items():
        if value is ...:
            raise ScenarioError(f"{kind} sweep needs {key}")
        if value is not None and key not in ("kind", "method"):
            check = _count if key in ("n_points", "n_samples") else _number
            sweep[key] = check(value, f"sweep.{key}")
    if kind == "probe_x" and not sweep["x_min_gamma_m"] < sweep["x_max_gamma_m"]:
        raise ScenarioError("probe sweep needs x_min_gamma_m < x_max_gamma_m")
    if "ratio_min" in sweep:
        if not 0.0 <= sweep["ratio_min"] < sweep["ratio_max"]:
            raise ScenarioError("ratio sweep needs 0 <= ratio_min < ratio_max")
        within(sweep["ratio_max"], "sweep.ratio_max", "c2_over_c1")
    for key in ("x_gamma_m", "x_min_gamma_m", "x_max_gamma_m"):
        if key in sweep:
            within(sweep[key], f"sweep.{key}", "x")
    if kind == "time_domain":
        from .oscillators import METHODS

        if not sweep["t_final"] > 0:
            raise ScenarioError(f"sweep.t_final must be > 0, got {sweep['t_final']!r}")
        if sweep["method"] not in METHODS:
            raise ScenarioError(f"sweep.method must be one of {METHODS}, got {sweep['method']!r}")
        if sweep["method"] == "rk4" and (sweep["dt"] is None or sweep["dt"] <= 0):
            raise ScenarioError(f"sweep.dt must be > 0 for method rk4, got {sweep['dt']!r}")
        if sweep["method"] != "rk4" and sweep["dt"] is not None:
            raise ScenarioError(f"sweep.dt applies to method rk4 only, got {sweep['method']!r}")
    return sweep


def _variants_from_spec(spec, model: str) -> list[dict]:
    """Variant dicts with label, model and c2_over_c1 (None: the scenario's drives) all set."""
    if spec is None:
        return [{"label": None, "model": model, "c2_over_c1": None}]
    if not isinstance(spec, list) or not spec:
        raise ScenarioError("variants must be a non-empty list")
    variants = []
    for i, v in enumerate(spec):
        _object(v, f"variants[{i}]", ("label", "model", "c2_over_c1"))
        if not isinstance(v.get("label"), str) or not _LABEL_RE.fullmatch(v["label"]):
            raise ScenarioError(f"variant label must be a plain file-name part: {v.get('label')!r}")
        variant = {"label": v["label"], "model": v.get("model", model),
                   "c2_over_c1": v.get("c2_over_c1")}
        if variant["model"] not in MODELS:
            raise ScenarioError(f"variant model invalid: {variant['model']!r}")
        if variant["c2_over_c1"] is not None:
            ratio = variant["c2_over_c1"] = _number(variant["c2_over_c1"], "variant c2_over_c1")
            within(ratio, f"variant {v['label']!r}: c2_over_c1", "c2_over_c1")
        if any(v["label"] == variant["label"] for v in variants):
            raise ScenarioError(f"variant labels must be unique: {variant['label']!r} repeats")
        variants.append(variant)
    return variants


def resolve_drives(scenario: Scenario) -> tuple[DriveConfig, float, float, WorkingPoint]:
    """Resolve the drive spec to powers; returns (drives, c1, c2, wp).

    wp is the working point at ``drives`` and c1, c2 its cooperativities.
    Cooperativity targets take one ``invert_cooperativity`` call, powers one solve.
    """
    spec, params, mode = scenario.drives, scenario.params, scenario.detuning_mode
    if "c1" in spec:
        drives, wp = invert_cooperativity(params, spec["c1"], spec["c2"], mode)
    else:
        drives = DriveConfig(p_c1=spec["p_c1"], p_c2=spec["p_c2"])
        wp = solve_working_point(params, drives, mode)
    c1 = cooperativity(params.g1, wp.n1, params.kappa1, params.gamma_m)
    c2 = cooperativity(params.g2, wp.n2, params.kappa2, params.gamma_m)
    return drives, c1, c2, wp


class Run:
    """One CLI invocation: the scenario (its flags applied) and the resolved drives,
    cooperativities and working point.

    Ratio rows and probe variants set C2 = ratio * C1 with cavity 1 at the run's own power
    ``drives.p_c1``: the scenario's, or the one its C1 and C2 targets resolve to.  In bare
    mode tone 2 moves q0, so C1 drifts along a ratio sweep while the first column prints
    the target ratio: on bare fig5 it falls from 40 to 39.999968 at C2/C1 = 1.
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.drives, self.c1, self.c2, self.wp = resolve_drives(scenario)

    def scaled(self, targets, what: str) -> list[WorkingPoint]:
        """Working points at the C2 ``targets`` (None: the run's own), gated as batch ``what``:
        the CLI's one stability gate.  A ScenarioError if a target above 0 falls on an
        uncoupled cavity 2."""
        s = self.scenario
        _coupled(max((c2 for c2 in targets if c2 is not None), default=0.0), 2, s.params,
                 f"the {what} target C2")
        wps = [self.wp if c2 is None else _invert_cooperativity(
            s.params, None, c2, s.detuning_mode, p_c1=self.drives.p_c1)[1] for c2 in targets]
        require_stable(_stacked(wps), s.params, what)
        return wps


def _response_table(first, resp) -> np.ndarray:
    """Table rows: ``first`` (x/gamma_m or C2/C1), then PROBE_COLUMNS[1:] of a response
    grid's ``ProbeResponse``."""
    return np.column_stack(np.broadcast_arrays(
        first, resp.e_l.real, resp.e_l.imag, resp.reflect_flux, np.abs(resp.e_r) ** 2,
        resp.transmit_flux, resp.mech_intensity, resp.flux_budget,
    ))


def derive_summary(run: Run) -> dict:
    """Working point plus every derived quantity, as a flat JSON-able dict."""
    from .analytic import RwaCoefficients, eia_splitting, peak_height
    from .linear_response import response_grid

    params, drives, c1, c2, wp = run.scenario.params, run.drives, run.c1, run.c2, run.wp
    coeffs = RwaCoefficients.from_working_point(wp, params)
    gamma_eit = eit_width(c1, params.gamma_m)
    split = eia_splitting(gamma_eit, coeffs.s2, params.kappa2)
    peak = peak_height(c1, c2)

    # tone 2 off is the C2 = 0 ratio row, and the run's own point when tone 2 is already off
    wp_off = run.scaled([None, None if drives.p_c2 == 0.0 else 0.0],
                        "summary [as driven, tone 2 off]")[1]
    on = response_grid(wp, params, params.omega_m, "rwa")
    off = response_grid(wp_off, params, params.omega_m, "rwa")
    switch_t_over_r = on.transmit_flux / on.reflect_flux if on.reflect_flux > 0 else math.inf
    switch_off_over_on = off.reflect_flux / on.reflect_flux if on.reflect_flux > 0 else math.inf

    summary = {
        "c1": c1,
        "c2": c2,
        "p_c1_w": drives.p_c1,
        "p_c2_w": drives.p_c2,
        "critical_power_w": critical_power(params),
        "n1_photons": wp.n1,
        "n2_photons": wp.n2,
        "q0": wp.q0,
        "g1_q0_rad_s": params.g1 * wp.q0,
        "delta1_rad_s": wp.delta1,
        "delta2_rad_s": wp.delta2,
        "sideband_resolution": params.sideband_resolution,
        "gamma_eit_rad_s": gamma_eit,
        "gamma_eit_over_gamma_m": gamma_eit / params.gamma_m,
        "gamma_eia_rad_s": split.gamma_eia_approx,
        "gamma_eia_over_kappa2": split.gamma_eia_approx / params.kappa2,
        "gamma_eia_over_gamma_m": split.gamma_eia_approx / params.gamma_m,
        "eia_narrow_coupling_valid": split.narrow_coupling,
        "peak_height_exact": peak.exact,
        "peak_height_large_c": peak.large_c_approx,
        "reflect_flux_line_center": on.reflect_flux,
        "transmit_flux_line_center": on.transmit_flux,
        "mech_intensity_line_center": on.mech_intensity,
        "switch_ratio_transmit_over_reflect": switch_t_over_r,
        "switch_ratio_reflect_off_over_on": switch_off_over_on,
        "rate_hierarchy_satisfied": rate_hierarchy(
            params.kappa1, params.gamma_m, params.kappa2)["satisfied"],
    }
    def clean(v):
        if isinstance(v, float):
            return _round12(v) if math.isfinite(v) else str(v)
        return v

    return {k: clean(v) for k, v in summary.items()}


def _note_off_resonance(run: Run) -> None:
    """One stderr line when a driven cavity (n_i > 0) of the run's own working point is
    ``off_resonance``: the summary's closed-form keys assume two-photon resonance.  Printed
    with the summary, so derive and every sweep print it; keys and values stay as they are."""
    wp = run.wp
    offsets = [f"Delta{i} - omega_m = {offset:.4g} kappa{i}"
               for i, offset in off_resonance(run.scenario.params, wp.delta1, wp.delta2).items()
               if (wp.n1, wp.n2)[i - 1] > 0.0]
    if offsets:
        print("note: gamma_eit_*, gamma_eia_*, eia_narrow_coupling_valid, peak_height_exact "
              "and peak_height_large_c assume two-photon resonance, but "
              + " and ".join(offsets), file=sys.stderr)


def _auto_probe_points(run: Run, x_min: float, x_max: float) -> int:
    """Default grid density: at least 20 points per estimated peak width.

    Uses the absorption-peak half-width estimate kappa2 + s2/Gamma_EIT when
    the second drive is on, else the transparency half-width; floor 801,
    cap 20001.
    """
    from .analytic import RwaCoefficients, eia_splitting

    params = run.scenario.params
    coeffs = RwaCoefficients.from_working_point(run.wp, params)
    gamma_eit = eit_width(run.c1, params.gamma_m)
    if coeffs.s2 > 0:
        width = eia_splitting(gamma_eit, coeffs.s2, params.kappa2).gamma_eia_approx
    else:
        width = gamma_eit
    # capped before the int: no window inside the envelope overflows, but the cap stays
    return max(801, math.ceil(min(20.0 * (x_max - x_min) / width, 20000.0)) + 1)


def run_scenario(scenario: Scenario) -> dict:
    """Execute a scenario: write its table file(s), print ``_note_off_resonance``'s line if
    it applies, and return the summary dict.

    The summary, plus a "files" entry listing every table written, is also what the
    subcommands print; their flags are already applied to ``scenario``.  The sweep kind's
    producer (``SWEEPS``) makes the tables one at a time; this is the one place that
    names and writes them, at ``out_path`` (default ``sweep_output.<format>``).
    """
    out_path = Path(scenario.out_path or "sweep_output." + scenario.out_format)
    run = Run(scenario)
    summary = derive_summary(run)
    summary["files"] = []
    tables = SWEEPS[scenario.sweep["kind"]][1](run) if scenario.sweep else ()
    for label, columns, rows in tables:
        path = _variant_path(out_path, label)
        _write_table(path, columns, rows, scenario.out_format)
        summary["files"].append(str(path))
        del rows  # free this table before the producer makes the next
    _note_off_resonance(run)
    return summary


def _variant_path(base: Path, label: str | None) -> Path:
    if label is None:
        return base
    return base.with_name(f"{base.stem}_{label}{base.suffix}")


def _stacked(wps) -> WorkingPoint:
    """One WorkingPoint whose fields are arrays over ``wps``, for the kernel and the gate."""
    return WorkingPoint(*map(np.array, zip(*wps)))


def _c2_targets(run: Run) -> tuple[np.ndarray, np.ndarray]:
    """The sweep's C2/C1 grid and its C2 targets ratio * C1."""
    sweep = run.scenario.sweep
    ratios = np.linspace(sweep["ratio_min"], sweep["ratio_max"], sweep["n_points"])
    return ratios, ratios * run.c1


def _probe_tables(run: Run):
    from .linear_response import response_grid

    params, sweep = run.scenario.params, run.scenario.sweep
    gm = params.gamma_m
    x_min, x_max = sweep["x_min_gamma_m"] * gm, sweep["x_max_gamma_m"] * gm
    xs = np.linspace(x_min, x_max, sweep["n_points"] or _auto_probe_points(run, x_min, x_max))
    variants = run.scenario.variants
    targets = [None if v["c2_over_c1"] is None else v["c2_over_c1"] * run.c1 for v in variants]
    # every variant's point is solved and gated before any table is written
    wps = run.scaled(targets, "probe_x variant")
    for variant, wp in zip(variants, wps):
        resp = response_grid(wp, params, params.omega_m + xs, variant["model"])
        yield variant["label"], PROBE_COLUMNS, _response_table(xs / gm, resp)


def _ratio_tables(run: Run):
    from .linear_response import response_grid

    params, sweep = run.scenario.params, run.scenario.sweep
    ratios, c2 = _c2_targets(run)
    stacked = _stacked(run.scaled(c2, "cooperativity_ratio"))
    delta = params.omega_m + sweep["x_gamma_m"] * params.gamma_m
    resp = response_grid(stacked, params, delta, run.scenario.variants[0]["model"])
    yield None, RATIO_COLUMNS, _response_table(ratios, resp)


def _root_tables(run: Run):
    from .analytic import root_trajectories

    params = run.scenario.params
    k1, k2, gm = params.kappa1, params.kappa2, params.gamma_m
    ratios, c2 = _c2_targets(run)
    trajectories = root_trajectories(k1, k2, gm, run.c1 * k1 * gm / 2.0, c2 * k2 * gm / 2.0)
    yield None, ROOT_COLUMNS, np.column_stack(
        [ratios, -trajectories.imag / gm, trajectories.real / gm])


def _time_tables(run: Run):
    from .oscillators import from_working_point, propagate

    params, sweep = run.scenario.params, run.scenario.sweep
    traj = propagate(
        from_working_point(run.wp, params),
        delta=params.omega_m + sweep["x_gamma_m"] * params.gamma_m,
        t_final=sweep["t_final"],
        method=sweep["method"],
        dt=sweep["dt"],
        n_samples=sweep["n_samples"],
    )
    # (re, im) pairs of u, v, w: the complex states viewed as floats
    yield None, TIME_COLUMNS, np.column_stack(
        [traj.times, np.ascontiguousarray(traj.states).view(np.float64)])


# sweep kind -> (its subcommand, the generator of its tables one (variant label, columns,
# rows) at a time, every key of the kind with its default).  A null value also takes the
# default: ``...`` marks a required key and None one that may stay unset (probe_x then sizes
# n_points from the peak width).  n_points and n_samples are integers >= 2, method is one of
# ``METHODS``, and the rest are finite numbers.
SWEEPS = {
    "probe_x": ("sweep", _probe_tables,
                {"x_min_gamma_m": -30.0, "x_max_gamma_m": 30.0, "n_points": None}),
    "cooperativity_ratio": ("sweep", _ratio_tables, {"ratio_min": 0.0, "ratio_max": 1.0,
                                                     "n_points": 201, "x_gamma_m": 0.0}),
    "roots_vs_ratio": ("roots", _root_tables,
                       {"ratio_min": 0.0, "ratio_max": 1.0, "n_points": 201}),
    "time_domain": ("integrate", _time_tables, {"t_final": ..., "method": "exact_propagator",
                                                "dt": None, "n_samples": 1001,
                                                "x_gamma_m": 0.0}),
}


def _csv_chunk(v: np.ndarray, ncols: int) -> bytes:
    """The bytes ``"%.12g" % x`` prints for each x of ``v``, each followed by "," or, after
    every ``ncols``-th, by "\\n".

    The 12 digits are M = round(|x| 10**(11 - e)) with e estimated as floor(log10 |x|);
    the power is taken in two halves so that subnormals and 1e308 stay in range, and
    M = 10**12 carries into e.  Four roundings bound the scaling error by 4.5e-4 of the
    last digit, so an x that is not finite, lies within 2e-3 of a rounding tie or has M
    outside [1e11, 1e12] (a missed estimate) is printed by "%" itself.  Each x gets one
    column of a (24, n) byte template: sign, 17 body slots, 5 exponent slots and the
    separator.  The body is "0000" and the 12 digits, with the point moved in after slot
    ``pi``; a slot %g leaves out holds 0, so the transposed template without its zeros
    is the text.
    """
    n = v.size
    finite = np.isfinite(v)
    a = np.abs(v)
    a[~finite | (a == 0)] = 1.0
    e = np.floor(np.log10(a))
    k = (11 - e).astype(np.intp)
    half = k >> 1
    m = a * _POW10.take(half + 160) * _POW10.take(k - half + 160)
    mant = np.rint(m)
    exact = (np.abs(m - mant) < 0.498) & (m >= 1e11) & (mant <= 1e12) & finite
    carry = mant == 1e12
    mant -= 9e11 * carry
    e += carry
    groups = np.empty((3, n))  # mant as three groups of four digits
    np.floor(mant / 1e8, out=groups[0])
    rest = mant - groups[0] * 1e8
    np.floor(rest / 1e4, out=groups[1])
    np.subtract(rest, groups[1] * 1e4, out=groups[2])
    # clip: a mantissa above 1e12 is inexact, and "%" overwrites its digits below
    digits = _DIGITS.take(groups.astype(np.intp), mode="clip").view(np.uint8).reshape(3, n, 4)
    body = np.empty((16, n), np.uint8)
    body[4:] = digits.transpose(0, 2, 1).reshape(12, n)
    body[4] -= v == 0  # the "1" of a zero's 1e11 becomes "0"
    ei = e.astype(np.int16)
    fixed = (ei >= -4) & (ei < 12)
    pi = (4 + ei * fixed).astype(np.uint8)  # the point follows body slot pi
    last = ((body[4:] != 48) * _SLOT[1:13]).max(axis=0)  # count of digits up to the last nonzero
    end = (4 + np.maximum(last, (ei + 1) * fixed)).astype(np.uint8)
    body[:4] = (_SLOT[:4] >= pi) * np.uint8(48)  # "0.000" of fixed notation below 1
    body[4:] *= _SLOT[4:16] < end
    t = np.empty((24, n), np.uint8)
    t[0] = np.signbit(v) * np.uint8(45)
    t[1:17] = body * (_SLOT[:16] <= pi)  # the slots up to pi stay
    t[17] = 0
    t[2:18] += body - t[1:17]  # the slots after pi move on by one
    t[2:18] += (_SLOT[1:] == pi + 1) * (np.uint8(46) * (end > pi + 1))
    t[18] = 101
    t[19] = np.uint8(43) + np.uint8(2) * (ei < 0)  # "+" or "-"
    t[20:23] = _DIGITS.take(np.abs(ei)).view(np.uint8).reshape(n, 4)[:, 1:].T
    t[20] *= np.abs(ei) >= 100  # a hundreds digit only when there is one
    t[18:23] *= ~fixed
    t[23] = 44
    t[23, ncols - 1::ncols] = 10
    inexact = np.flatnonzero(~exact)
    if inexact.size:
        text = np.array([b"%.12g" % x for x in v[inexact].tolist()], "S23")
        t[:23, inexact] = text.view(np.uint8).reshape(-1, 23).T
    return t.T.tobytes().translate(None, b"\0")


def _write_table(path: Path, columns, rows: np.ndarray, out_format: str) -> None:
    """Write a 2-D float table as ``_fmt`` prints each number; CSV in chunks of rows."""
    if out_format == "csv":
        values = np.asarray(rows, dtype=np.float64)
        with open(Path(path), "wb") as fh:
            fh.write((",".join(columns) + "\n").encode())
            for start in range(0, len(values), _CSV_CHUNK_ROWS):
                chunk = values[start:start + _CSV_CHUNK_ROWS]
                fh.write(_csv_chunk(chunk.ravel(), len(columns)))
        return
    with open(Path(path), "w", encoding="utf-8", newline="") as fh:
        payload = {"columns": list(columns),
                   "rows": [[_round12(v) for v in row] for row in rows.tolist()]}
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_scenario(ref: str | None) -> Scenario:
    """Load a scenario from a JSON file path or a built-in preset name."""
    if ref is None:
        return Scenario.from_dict({})
    path = Path(ref)
    if path.is_file():
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"scenario file {ref} is not valid JSON: {exc}") from exc
        return Scenario.from_dict(doc)
    if ref in PRESETS:
        text = Path(__file__).with_name("scenarios").joinpath(f"{ref}.json").read_text("utf-8")
        return Scenario.from_dict(json.loads(text))
    raise ScenarioError(f"scenario {ref!r} is neither a file nor a preset {PRESETS}")


def _print_json(doc: dict, out: str | None = None) -> None:
    """Print ``doc`` as indented JSON, and write the same text to the file ``out`` if given."""
    text = json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n"
    sys.stdout.write(text)
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# subcommand -> (what it does, its flags).  A flag maps to (its type, or the tuple of the
# values it may take; whether it is required; its help) and sets the option named as the
# flag without its "--".
_TABLE_FLAGS = {
    "--scenario": (str, True, f"scenario JSON file or preset name {PRESETS}"),
    "--out": (str, False, "output file (overrides scenario output.path)"),
    "--format": (("csv", "json"), False, "table format override"),
}
_POINTS_FLAG = {"--points": (int, False, "grid size override")}
COMMANDS = {
    "derive": ("print the derived-quantity summary", {
        "--scenario": (str, False, "scenario JSON file or preset name"),
        "--out": (str, False, "also write the summary JSON here")}),
    "sweep": ("probe-detuning or cooperativity-ratio sweep", {
        **_TABLE_FLAGS, "--model": (MODELS, False, "response model override"), **_POINTS_FLAG}),
    "roots": ("track the response poles vs cooperativity ratio", {**_TABLE_FLAGS, **_POINTS_FLAG}),
    "integrate": ("time-domain propagation of the oscillator triple", _TABLE_FLAGS),
    "invert": ("coupling power for a target cooperativity", {
        "--target": (float, True, "target cooperativity"),
        "--cavity": ((1, 2), True, "the cavity whose coupling tone meets the target"),
        "--scenario": (str, False, "scenario supplying system parameters"),
        "--out": (str, False, "write the result JSON here")}),
}
_NEGATIVE_NUMBER = re.compile(r"-\d+|-\d*\.\d+")  # a value that may begin with "-"


class UsageError(Exception):
    """A command line ``parse_args`` refuses; its args are the subcommand (None before one
    is named) and the message."""


def _metavar(flag: str, kind) -> str:
    return "{" + ",".join(map(str, kind)) + "}" if isinstance(kind, tuple) else flag[2:].upper()


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: oemsim [-h] {" + ",".join(COMMANDS) + "} ...\n"
    lines = [f"usage: oemsim {command} [-h]"]
    for flag, (kind, required, _) in COMMANDS[command][1].items():
        word = f"{flag} {_metavar(flag, kind)}" if required else f"[{flag} {_metavar(flag, kind)}]"
        if len(lines[-1]) + len(word) >= 79:
            lines.append(" " * len(f"usage: oemsim {command}"))
        lines[-1] += " " + word
    return "\n".join(lines) + "\n"


def _help(command: str | None) -> str:
    """The --help text: the usage, what the program or subcommand does, then one line per
    subcommand or flag."""
    if command is None:
        about, heading = "Double-cavity electro-optomechanical linear-response toolkit", "commands"
        rows = [(name, text) for name, (text, _) in COMMANDS.items()]
    else:
        (about, flags), heading = COMMANDS[command], "options"
        rows = [("-h, --help", "show this help message and exit")] + [
            (f"{flag} {_metavar(flag, kind)}", text) for flag, (kind, _, text) in flags.items()]
    body = "".join(f"  {a:21} {b}\n" if len(a) < 22 else f"  {a}\n  {'':21} {b}\n"
                   for a, b in rows)
    return f"{_usage(command)}\n{about}\n\n{heading}:\n{body}"


def parse_args(argv: list[str]) -> tuple[str | None, dict | None]:
    """The subcommand and its options {flag without "--": value}; options None when
    --help asks for the subcommand's help text (subcommand None: the program's).
    UsageError for a command line that ``COMMANDS`` does not allow.

    As with argparse, a flag takes its value as ``--flag value`` or ``--flag=value`` and may
    be shortened to a unique prefix, a separate value that begins with "-" must be a
    negative number, and the last of a repeated flag wins.
    """
    command, flags, opts = None, {}, {}
    args = iter(argv)
    for arg in args:
        if command is None and not arg.startswith("-"):
            if arg not in COMMANDS:
                raise UsageError(None, f"argument command: invalid choice: {arg!r} "
                                       f"(choose from {', '.join(map(repr, COMMANDS))})")
            command, flags = arg, COMMANDS[arg][1]
            continue
        name, eq, value = ("--help", "", "") if arg == "-h" else arg.partition("=")
        candidates = (*flags, "--help") if name.startswith("--") and name != "--" else ()
        matches = [name] if name in flags else [f for f in candidates if f.startswith(name)]
        if len(matches) != 1:
            raise UsageError(command, f"ambiguous option: {name} could match {', '.join(matches)}"
                             if len(matches) > 1 else f"unrecognized arguments: {arg}")
        flag = matches[0]
        if flag == "--help":
            if eq:
                raise UsageError(command,
                                 f"argument -h/--help: ignored explicit argument {value!r}")
            return command, None
        if not eq:
            value = next(args, None)
            if value is None or value.startswith("-") and not _NEGATIVE_NUMBER.fullmatch(value):
                raise UsageError(command, f"argument {flag}: expected one argument")
        kind = flags[flag][0]
        convert = type(kind[0]) if isinstance(kind, tuple) else kind
        try:
            opts[flag[2:]] = convert(value)
        except ValueError:
            raise UsageError(command, f"argument {flag}: invalid {convert.__name__} value: "
                                      f"{value!r}") from None
        if isinstance(kind, tuple) and opts[flag[2:]] not in kind:
            raise UsageError(command, f"argument {flag}: invalid choice: {opts[flag[2:]]!r} "
                                      f"(choose from {', '.join(map(repr, kind))})")
    missing = ["command"] if command is None else [
        flag for flag, (_, required, _) in flags.items() if required and flag[2:] not in opts]
    if missing:
        raise UsageError(command, f"the following arguments are required: {', '.join(missing)}")
    return command, opts


def _dispatch(command: str, opts: dict) -> int:
    scenario = load_scenario(opts.get("scenario"))

    if command == "derive":
        run = Run(scenario)
        _print_json(derive_summary(run), opts.get("out"))
        _note_off_resonance(run)
        return 0
    if command == "invert":  # --target and --cavity are the scenario's drives
        target, cavity = opts["target"], opts["cavity"]
        run = Run(scenario._replace(drives=_drives_from_spec({f"c{cavity}": target},
                                                             scenario.params)))
        run.scaled([None], "invert")
        power = run.drives.p_c1 if cavity == 1 else run.drives.p_c2
        _print_json({"target_c": target, "cavity": cavity, "power_w": _round12(power)},
                    opts.get("out"))
        return 0

    kind = scenario.sweep.get("kind")
    allowed = tuple(k for k, (name, *_) in SWEEPS.items() if name == command)
    if kind not in allowed:
        raise ScenarioError(
            f"subcommand {command!r} needs a sweep of kind {allowed}, got {kind!r}"
        )
    # the flags are Scenario fields; --model sets every variant's model
    points, model = opts.get("points"), opts.get("model")
    if points is not None:
        scenario = scenario._replace(sweep={**scenario.sweep,
                                            "n_points": _count(points, "--points")})
    if model:
        scenario = scenario._replace(variants=[{**v, "model": model} for v in scenario.variants])
    scenario = scenario._replace(out_path=opts.get("out") or scenario.out_path,
                                 out_format=opts.get("format") or scenario.out_format)
    _print_json(run_scenario(scenario))
    return 0


def main(argv=None) -> int:
    try:
        command, opts = parse_args(sys.argv[1:] if argv is None else list(argv))
        if opts is None:
            sys.stdout.write(_help(command))
            return 0
        return _dispatch(command, opts)
    except UsageError as exc:  # the usage, then the message, as argparse prints them
        command, message = exc.args
        prog = "oemsim" if command is None else f"oemsim {command}"
        sys.stderr.write(f"{_usage(command)}{prog}: error: {message}\n")
        return 2
    except (ScenarioError, InvalidParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a grid or trace too large to allocate
        print(f"error: {exc or 'out of memory'}", file=sys.stderr)
        return 2
    except (ConvergenceError, SingularResponseError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


def _observed() -> bool:
    """Whether a profiler or tracer (cProfile, coverage, a debugger) watches this process."""
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12+: cProfile registers here
    return bool(sys.getprofile() or sys.gettrace()
                or (monitoring and any(map(monitoring.get_tool, range(6)))))  # ids 0-5


def entry() -> None:
    """Process entry of the ``oemsim`` command and of ``python -m oemsim.cli``.

    Runs ``main`` (``--help`` and usage errors too), flushes stdout and stderr, then leaves
    through ``os._exit`` with main's code.  That skips the interpreter's teardown (module
    clean-up and the shutdown collections); atexit handlers do not run.  A stdout that
    cannot be flushed (a pipe whose reader has gone) gives exit 4 with one ``i/o error``
    line, as a failed write inside ``main`` does.  Under a profiler or tracer the process
    exits through ``sys.exit`` instead, so that their exit handlers (cProfile's statistics,
    coverage's data file) still run.  ``main`` itself changes no process-wide state, so
    tests and tracers can call it in-process again and again.
    """
    code = main()
    try:
        sys.stdout.flush()
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        code = 4
    sys.stderr.flush()
    if _observed():
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    entry()
