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

Exit codes: 0 success, 2 config/parse error (a grid too large to allocate
included), 3 solver failure (non-convergence or singular system), 4 I/O failure.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import re
import sys
from importlib import resources
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .analytic import RwaCoefficients, eia_splitting, peak_height, root_trajectories
from .errors import (
    ConvergenceError,
    InvalidParameterError,
    ScenarioError,
    SingularResponseError,
    StepSizeError,
)
from .linear_response import ProbeResponse, response_grid
from .oscillators import METHODS, from_working_point, propagate
from .params import (
    REFERENCE_HZ,
    DriveConfig,
    SystemParams,
    cooperativity,
    critical_power,
    drive_amplitude,
    eit_width,
)
from .working_point import (
    WorkingPoint,
    invert_cooperativity,
    require_stable,
    solve_working_point,
)

MODELS = ("full", "rwa", "analytic", "oscillator")
# Every key of each sweep kind with its default (a null value also takes it): ``...`` marks
# a required key and None one that may stay unset (probe_x then sizes n_points from the peak
# width).  n_points and n_samples are integers >= 2, method is one of ``METHODS``, and the
# rest are finite numbers.
SWEEP_KEYS = {
    "probe_x": {"x_min_gamma_m": -30.0, "x_max_gamma_m": 30.0, "n_points": None},
    "cooperativity_ratio": {"ratio_min": 0.0, "ratio_max": 1.0, "n_points": 201,
                            "x_gamma_m": 0.0},
    "roots_vs_ratio": {"ratio_min": 0.0, "ratio_max": 1.0, "n_points": 201},
    "time_domain": {"t_final": ..., "method": "exact_propagator", "dt": None,
                    "n_samples": 1001, "x_gamma_m": 0.0},
}
SWEEP_KINDS = tuple(SWEEP_KEYS)
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


class Scenario(NamedTuple):
    """Validated scenario document driving one CLI run.

    ``sweep`` is empty or holds every key of its kind (``SWEEP_KEYS``), already
    typed; ``variants`` holds one dict per table a probe sweep writes, with every
    variant key set (a scenario without variants has the one unlabeled variant).
    """

    params: SystemParams
    detuning_mode: str
    drives: dict
    sweep: dict
    model: str
    variants: list
    out_path: str | None
    out_format: str

    @classmethod
    def from_dict(cls, doc: dict) -> "Scenario":
        if not isinstance(doc, dict):
            raise ScenarioError("scenario document must be a JSON object")
        allowed = {
            "params",
            "detuning_mode",
            "drives",
            "sweep",
            "model",
            "variants",
            "output",
            "description",  # accepted and ignored
        }
        unknown = set(doc) - allowed
        if unknown:
            raise ScenarioError(f"unknown scenario keys: {sorted(unknown)}")

        params = _params_from_spec(doc.get("params", {}))
        mode = doc.get("detuning_mode", "effective")
        if mode not in ("effective", "bare"):
            raise ScenarioError(f"detuning_mode must be 'effective' or 'bare', got {mode!r}")

        model = doc.get("model", "rwa")
        if model not in MODELS:
            raise ScenarioError(f"model must be one of {MODELS}, got {model!r}")

        output = doc.get("output", {})
        if not isinstance(output, dict) or set(output) - {"path", "format"}:
            raise ScenarioError(f"output must be an object with path and format, got {output!r}")
        out_path = output.get("path")
        if out_path is not None and not isinstance(out_path, str):
            raise ScenarioError(f"output.path must be a string, got {out_path!r}")
        out_format = output.get("format", "csv")
        if out_format not in ("csv", "json"):
            raise ScenarioError(f"output.format must be csv or json, got {out_format!r}")

        sweep = _sweep_from_spec(doc.get("sweep", {}), params)
        if doc.get("variants") is not None and sweep.get("kind") != "probe_x":
            raise ScenarioError(f"variants need a probe_x sweep, got kind {sweep.get('kind')!r}")
        if model == "full" and sweep.get("kind") == "roots_vs_ratio":
            raise ScenarioError("the roots_vs_ratio table tracks the RWA poles; "
                                "model 'full' has no such table")
        if mode == "bare" and sweep.get("kind") == "roots_vs_ratio":
            raise ScenarioError("the roots_vs_ratio table assumes two-photon resonance "
                                "(Delta1 = Delta2 = omega_m), which detuning_mode 'bare' "
                                "does not hold")
        return cls(
            params=params,
            detuning_mode=mode,
            drives=_drives_from_spec(doc.get("drives", {"c1": 40.0, "c2": 40.0}), params),
            sweep=sweep,
            model=model,
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


def _count(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 2:
        raise ScenarioError(f"{name} must be an integer >= 2, got {value!r}")
    return value


def _params_from_spec(spec: dict) -> SystemParams:
    """SystemParams from a Hz-valued config object (missing keys -> REFERENCE_HZ)."""
    if not isinstance(spec, dict):
        raise ScenarioError("params must be an object of plain-Hz values")
    names = {f"{name}_hz": name for name in REFERENCE_HZ}
    names.update(delta1_hz="delta_bare1", delta2_hz="delta_bare2")
    unknown = set(spec) - set(names)
    if unknown:
        raise ScenarioError(f"unknown params keys: {sorted(unknown)}")
    hz = {names[key]: _number(value, f"params.{key}") for key, value in spec.items()}
    try:
        return SystemParams.from_hz(**{**REFERENCE_HZ, **hz})
    except InvalidParameterError as exc:
        raise ScenarioError(f"invalid params: {exc}") from exc


def _drives_from_spec(spec: dict, params: SystemParams) -> dict:
    """Cooperativity targets {c1, c2} or powers {p_c1, p_c2} [W], missing ones 0; a power
    whose drive amplitude sqrt(2 kappa P / (hbar omega_c)) overflows is a ScenarioError."""
    if not isinstance(spec, dict):
        raise ScenarioError("drives must be an object")
    if "c1" in spec or "c2" in spec:
        extra = set(spec) - {"c1", "c2"}
        if extra:
            raise ScenarioError(f"drives mixes cooperativity targets with {sorted(extra)}")
        return {key: _number(spec.get(key, 0.0), f"drives.{key}") for key in ("c1", "c2")}
    extra = set(spec) - {"p_c1", "p_c2"}
    if extra:
        raise ScenarioError(f"unknown drives keys: {sorted(extra)}")
    powers = {key: parse_power(spec.get(key, 0.0), f"drives.{key}") for key in ("p_c1", "p_c2")}
    for (key, power), carrier, kappa in zip(powers.items(), (params.omega_c1, params.omega_c2),
                                            (params.kappa1, params.kappa2)):
        if power > 0.0 and not math.isfinite(drive_amplitude(power, carrier, kappa)):
            raise ScenarioError(f"drives.{key} = {power!r} W is too large: its drive amplitude "
                                "sqrt(2 kappa P / (hbar omega_c)) overflows")
    return powers


def _sweep_from_spec(spec: dict, params: SystemParams) -> dict:
    """Every key of the sweep's kind, typed and checked against ``SWEEP_KEYS``; every probe
    detuning omega_m + x gamma_m, and a probe grid's span, finite in rad/s."""
    if not isinstance(spec, dict):
        raise ScenarioError("sweep must be an object")
    if not spec:
        return {}
    kind = spec.get("kind")
    if kind not in SWEEP_KINDS:
        raise ScenarioError(f"sweep.kind must be one of {SWEEP_KINDS}, got {kind!r}")
    unknown = set(spec) - {"kind", *SWEEP_KEYS[kind]}
    if unknown:
        raise ScenarioError(f"unknown sweep keys for kind {kind}: {sorted(unknown)}")
    sweep = {**SWEEP_KEYS[kind], **{k: v for k, v in spec.items() if v is not None}}
    for key, value in sweep.items():
        if value is ...:
            raise ScenarioError(f"{kind} sweep needs {key}")
        if value is not None and key not in ("kind", "method"):
            check = _count if key in ("n_points", "n_samples") else _number
            sweep[key] = check(value, f"sweep.{key}")
    if kind == "probe_x" and not sweep["x_min_gamma_m"] < sweep["x_max_gamma_m"]:
        raise ScenarioError("probe sweep needs x_min_gamma_m < x_max_gamma_m")
    if "ratio_min" in sweep and not 0.0 <= sweep["ratio_min"] < sweep["ratio_max"]:
        raise ScenarioError("ratio sweep needs 0 <= ratio_min < ratio_max")
    if kind == "time_domain":
        if not sweep["t_final"] > 0:
            raise ScenarioError(f"sweep.t_final must be > 0, got {sweep['t_final']!r}")
        if sweep["method"] not in METHODS:
            raise ScenarioError(f"sweep.method must be one of {METHODS}, got {sweep['method']!r}")
        if sweep["method"] == "rk4" and (sweep["dt"] is None or sweep["dt"] <= 0):
            raise ScenarioError(f"sweep.dt must be > 0 for method rk4, got {sweep['dt']!r}")
    gm = params.gamma_m
    for key in ("x_gamma_m", "x_min_gamma_m", "x_max_gamma_m"):
        if key in sweep and not math.isfinite(params.omega_m + sweep[key] * gm):
            raise ScenarioError(f"sweep.{key} = {sweep[key]!r} puts the probe detuning "
                                "omega_m + x gamma_m past the float range")
    if kind == "probe_x" and not math.isfinite(sweep["x_max_gamma_m"] * gm
                                               - sweep["x_min_gamma_m"] * gm):
        raise ScenarioError("sweep.x_max_gamma_m - sweep.x_min_gamma_m puts the probe grid's "
                            "span (x_max - x_min) gamma_m past the float range")
    return sweep


def _variants_from_spec(spec, model: str) -> list[dict]:
    """Variant dicts with label, model and c2_over_c1 (None: the scenario's drives) all set."""
    if spec is None:
        return [{"label": None, "model": model, "c2_over_c1": None}]
    if not isinstance(spec, list) or not spec:
        raise ScenarioError("variants must be a non-empty list")
    variants = []
    for v in spec:
        if not isinstance(v, dict) or set(v) - {"label", "model", "c2_over_c1"}:
            raise ScenarioError(f"a variant is an object of label, model, c2_over_c1; got {v!r}")
        if not isinstance(v.get("label"), str) or not _LABEL_RE.fullmatch(v["label"]):
            raise ScenarioError(f"variant label must be a plain file-name part: {v.get('label')!r}")
        variant = {"label": v["label"], "model": v.get("model", model),
                   "c2_over_c1": v.get("c2_over_c1")}
        if variant["model"] not in MODELS:
            raise ScenarioError(f"variant model invalid: {variant['model']!r}")
        if variant["c2_over_c1"] is not None:
            ratio = variant["c2_over_c1"] = _number(variant["c2_over_c1"], "variant c2_over_c1")
            if ratio < 0:
                raise ScenarioError(f"variant c2_over_c1 must be >= 0, got {ratio!r}")
        if any(v["label"] == variant["label"] for v in variants):
            raise ScenarioError(f"variant labels must be unique: {variant['label']!r} repeats")
        variants.append(variant)
    return variants


def resolve_drives(scenario: Scenario) -> tuple[DriveConfig, float, float, WorkingPoint]:
    """Resolve the drive spec to powers; returns (drives, c1, c2, wp).

    wp is the working point at ``drives`` and c1, c2 its cooperativities.
    Cooperativity targets take one ``invert_cooperativity`` call, powers one solve;
    a cooperativity the powers give that leaves the float range is a ConvergenceError.
    """
    spec, params, mode = scenario.drives, scenario.params, scenario.detuning_mode
    if "c1" in spec:
        drives, wp = invert_cooperativity(params, spec["c1"], spec["c2"], mode)
    else:
        drives = DriveConfig(p_c1=spec["p_c1"], p_c2=spec["p_c2"])
        wp = solve_working_point(params, drives, mode)
    c1 = cooperativity(params.g1, wp.n1, params.kappa1, params.gamma_m)
    c2 = cooperativity(params.g2, wp.n2, params.kappa2, params.gamma_m)
    for name, c in (("C1", c1), ("C2", c2)):
        if not math.isfinite(c):
            raise ConvergenceError(f"cooperativity {name} = g^2 n / (kappa gamma_m) at the "
                                   f"given powers leaves the float range ({c!r})")
    return drives, c1, c2, wp


class Run:
    """One CLI invocation: the scenario with its overrides applied and the resolved
    drives, cooperativities and working point.

    Ratio rows and probe variants set C2 = ratio * C1 with cavity 1 at the run's own power
    ``drives.p_c1``: the scenario's, or the one its C1 and C2 targets resolve to.  In bare
    mode tone 2 moves q0, so C1 drifts along a ratio sweep while the first column prints
    the target ratio: on bare fig5 it falls from 40 to 39.999968 at C2/C1 = 1.
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.drives, self.c1, self.c2, self.wp = resolve_drives(scenario)

    def scaled(self, targets, what: str) -> list[WorkingPoint]:
        """Working points at the C2 ``targets`` (None: the run's own), gated as batch ``what``."""
        s = self.scenario
        wps = [self.wp if c2 is None else invert_cooperativity(
            s.params, None, c2, s.detuning_mode, p_c1=self.drives.p_c1)[1] for c2 in targets]
        require_stable(_stacked(wps), s.params, what)
        return wps


def _response_table(first, resp: ProbeResponse) -> np.ndarray:
    """Table rows: ``first`` (x/gamma_m or C2/C1), then PROBE_COLUMNS[1:] of a response grid."""
    return np.column_stack(np.broadcast_arrays(
        first, resp.e_l.real, resp.e_l.imag, resp.reflect_flux, np.abs(resp.e_r) ** 2,
        resp.transmit_flux, resp.mech_intensity, resp.flux_budget,
    ))


def derive_summary(run: Run) -> dict:
    """Working point plus every derived quantity, as a flat JSON-able dict."""
    params, drives, c1, c2, wp = run.scenario.params, run.drives, run.c1, run.c2, run.wp
    coeffs = RwaCoefficients.from_working_point(wp, params)
    gamma_eit = eit_width(c1, params.gamma_m)
    split = eia_splitting(gamma_eit, coeffs.s2, params.kappa2)
    peak = peak_height(c1, c2)
    model = from_working_point(wp, params)
    hierarchy = model.hierarchy_report()

    wp_off = wp if drives.p_c2 == 0.0 else solve_working_point(
        params, DriveConfig(drives.p_c1, 0.0), run.scenario.detuning_mode)
    require_stable(_stacked([wp, wp_off]), params, "derive [as driven, tone 2 off]")
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
        "rate_hierarchy_satisfied": hierarchy["satisfied"],
    }
    def clean(v):
        if isinstance(v, float):
            return _round12(v) if math.isfinite(v) else str(v)
        return v

    return {k: clean(v) for k, v in summary.items()}


def _auto_probe_points(run: Run, x_min: float, x_max: float) -> int:
    """Default grid density: at least 20 points per estimated peak width.

    Uses the absorption-peak half-width estimate kappa2 + s2/Gamma_EIT when
    the second drive is on, else the transparency half-width; floor 801,
    cap 20001.
    """
    params = run.scenario.params
    coeffs = RwaCoefficients.from_working_point(run.wp, params)
    gamma_eit = eit_width(run.c1, params.gamma_m)
    if coeffs.s2 > 0:
        width = eia_splitting(gamma_eit, coeffs.s2, params.kappa2).gamma_eia_approx
    else:
        width = gamma_eit
    # capped before the int: 20 (x_max - x_min) of a window near the float range overflows
    return max(801, math.ceil(min(20.0 * (x_max - x_min) / width, 20000.0)) + 1)


def run_scenario(
    scenario: Scenario,
    out_override: str | None = None,
    format_override: str | None = None,
    model_override: str | None = None,
    points_override: int | None = None,
) -> dict:
    """Execute a scenario: write its table file(s) and return the summary dict.

    The summary, plus a "files" entry listing every table written, is also
    what the subcommands print.  ``model_override`` replaces the model of
    every variant too.  The sweep kind's producer (``_PRODUCERS``) makes the
    tables one at a time; this is the one place that names and writes them.
    """
    sweep, variants = scenario.sweep, scenario.variants
    if points_override is not None:
        sweep = {**sweep, "n_points": _count(points_override, "--points")}
    if model_override:
        variants = [{**v, "model": model_override} for v in variants]
    scenario = scenario._replace(sweep=sweep, variants=variants,
                                 model=model_override or scenario.model,
                                 out_format=format_override or scenario.out_format)
    out_path = Path(out_override or scenario.out_path or "sweep_output." + scenario.out_format)
    run = Run(scenario)
    summary = derive_summary(run)
    summary["files"] = []
    tables = _PRODUCERS[sweep["kind"]](run) if sweep else ()
    for label, columns, rows in tables:
        path = _variant_path(out_path, label)
        _write_table(path, columns, rows, scenario.out_format)
        summary["files"].append(str(path))
        del rows  # free this table before the producer makes the next
    return summary


def _variant_path(base: Path, label: str | None) -> Path:
    if label is None:
        return base
    return base.with_name(f"{base.stem}_{label}{base.suffix}")


def _stacked(wps) -> WorkingPoint:
    """One WorkingPoint whose fields are arrays over ``wps``, for the kernel and the gate."""
    return WorkingPoint(*map(np.array, zip(*wps)))


def _c2_of(ratio, c1: float, name: str):
    """The C2 target(s) ratio * C1; a ScenarioError naming the input ``name`` if one overflows."""
    with np.errstate(over="ignore"):  # checked below
        c2 = ratio * c1
    if not np.isfinite(c2).all():
        raise ScenarioError(f"{name} is too large: C2 = ratio * C1 overflows at C1 = {c1:g}")
    return c2


def _c2_targets(run: Run) -> tuple[np.ndarray, np.ndarray]:
    """The sweep's C2/C1 grid and its C2 targets ratio * C1; ScenarioError if one overflows."""
    sweep = run.scenario.sweep
    ratios = np.linspace(sweep["ratio_min"], sweep["ratio_max"], sweep["n_points"])
    return ratios, _c2_of(ratios, run.c1, f"sweep.ratio_max = {sweep['ratio_max']!r}")


def _probe_tables(run: Run):
    params, sweep = run.scenario.params, run.scenario.sweep
    gm = params.gamma_m
    x_min, x_max = sweep["x_min_gamma_m"] * gm, sweep["x_max_gamma_m"] * gm
    xs = np.linspace(x_min, x_max, sweep["n_points"] or _auto_probe_points(run, x_min, x_max))
    variants = run.scenario.variants
    targets = [None if v["c2_over_c1"] is None
               else _c2_of(v["c2_over_c1"], run.c1,
                           f"variant {v['label']!r}: c2_over_c1 = {v['c2_over_c1']!r}")
               for v in variants]
    # every variant's point is solved and gated before any table is written
    wps = run.scaled(targets, "probe_x variant")
    for variant, wp in zip(variants, wps):
        resp = response_grid(wp, params, params.omega_m + xs, variant["model"])
        yield variant["label"], PROBE_COLUMNS, _response_table(xs / gm, resp)


def _ratio_tables(run: Run):
    params, sweep = run.scenario.params, run.scenario.sweep
    ratios, c2 = _c2_targets(run)
    stacked = _stacked(run.scaled(c2, "cooperativity_ratio"))
    delta = params.omega_m + sweep["x_gamma_m"] * params.gamma_m
    resp = response_grid(stacked, params, delta, run.scenario.model)
    yield None, RATIO_COLUMNS, _response_table(ratios, resp)


def _root_tables(run: Run):
    params = run.scenario.params
    k1, k2, gm = params.kappa1, params.kappa2, params.gamma_m
    ratios, c2 = _c2_targets(run)
    with np.errstate(over="ignore"):  # checked below
        s2 = c2 * k2 * gm / 2.0
    if not np.isfinite(s2).all():
        raise ScenarioError(f"sweep.ratio_max = {run.scenario.sweep['ratio_max']!r} is too "
                            f"large: the drive weight C2 kappa2 gamma_m / 2 overflows")
    trajectories = root_trajectories(k1, k2, gm, run.c1 * k1 * gm / 2.0, s2)
    yield None, ROOT_COLUMNS, np.column_stack(
        [ratios, -trajectories.imag / gm, trajectories.real / gm])


def _time_tables(run: Run):
    params, sweep = run.scenario.params, run.scenario.sweep
    traj = propagate(
        from_working_point(run.wp, params),
        probe_amp=1.0,
        delta=params.omega_m + sweep["x_gamma_m"] * params.gamma_m,
        t_final=sweep["t_final"],
        method=sweep["method"],
        dt=sweep["dt"],
        n_samples=sweep["n_samples"],
    )
    # (re, im) pairs of u, v, w: the complex states viewed as floats
    yield None, TIME_COLUMNS, np.column_stack(
        [traj.times, np.ascontiguousarray(traj.states).view(np.float64)])


# sweep kind -> generator of its tables, one (variant label, columns, rows) at a time
_PRODUCERS = {
    "probe_x": _probe_tables,
    "cooperativity_ratio": _ratio_tables,
    "roots_vs_ratio": _root_tables,
    "time_domain": _time_tables,
}


def _csv_chunk(v: np.ndarray, ncols: int) -> np.ndarray:
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
    flat = t.T.ravel()
    return flat[flat != 0]


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
        text = resources.files("oemsim").joinpath(f"scenarios/{ref}.json").read_text("utf-8")
        return Scenario.from_dict(json.loads(text))
    raise ScenarioError(f"scenario {ref!r} is neither a file nor a preset {PRESETS}")


def _print_json(doc: dict, out: str | None = None) -> None:
    """Print ``doc`` as indented JSON, and write the same text to the file ``out`` if given."""
    text = json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n"
    sys.stdout.write(text)
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oemsim",
        description="Double-cavity electro-optomechanical linear-response toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--scenario", required=True,
                       help=f"scenario JSON file or preset name {PRESETS}")
        p.add_argument("--out", help="output file (overrides scenario output.path)")
        p.add_argument("--format", choices=("csv", "json"), help="table format override")

    p = sub.add_parser("derive", help="print the derived-quantity summary")
    p.add_argument("--scenario", help="scenario JSON file or preset name")
    p.add_argument("--out", help="also write the summary JSON here")

    p = sub.add_parser("sweep", help="probe-detuning or cooperativity-ratio sweep")
    add_common(p)
    p.add_argument("--model", choices=MODELS, help="response model override")
    p.add_argument("--points", type=int, help="grid size override")

    p = sub.add_parser("roots", help="track the response poles vs cooperativity ratio")
    add_common(p)
    p.add_argument("--points", type=int, help="grid size override")

    p = sub.add_parser("integrate", help="time-domain propagation of the oscillator triple")
    add_common(p)

    p = sub.add_parser("invert", help="coupling power for a target cooperativity")
    p.add_argument("--target", type=float, required=True, help="target cooperativity")
    p.add_argument("--cavity", type=int, choices=(1, 2), required=True)
    p.add_argument("--scenario", help="scenario supplying system parameters")
    p.add_argument("--out", help="write the result JSON here")
    return parser


_KIND_BY_COMMAND = {
    "sweep": ("probe_x", "cooperativity_ratio"),
    "roots": ("roots_vs_ratio",),
    "integrate": ("time_domain",),
}


def _dispatch(args) -> int:
    scenario = load_scenario(args.scenario)

    if args.command in ("derive", "invert"):
        if args.command == "derive":
            result = derive_summary(Run(scenario))
        else:
            targets = (args.target, 0.0) if args.cavity == 1 else (0.0, args.target)
            drives, wp = invert_cooperativity(scenario.params, *targets, scenario.detuning_mode)
            require_stable(wp, scenario.params, "invert")  # the confirming solve
            power = drives.p_c1 if args.cavity == 1 else drives.p_c2
            result = {"target_c": args.target, "cavity": args.cavity, "power_w": _round12(power)}
        _print_json(result, args.out)
        return 0

    kind = scenario.sweep.get("kind")
    allowed = _KIND_BY_COMMAND[args.command]
    if kind not in allowed:
        raise ScenarioError(
            f"subcommand {args.command!r} needs a sweep of kind {allowed}, got {kind!r}"
        )
    summary = run_scenario(
        scenario,
        out_override=args.out,
        format_override=getattr(args, "format", None),
        model_override=getattr(args, "model", None),
        points_override=getattr(args, "points", None),
    )
    _print_json(summary)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ScenarioError, InvalidParameterError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a grid or trace too large to allocate
        print(f"error: {exc or 'out of memory'}", file=sys.stderr)
        return 2
    except (ConvergenceError, SingularResponseError, StepSizeError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    """Process entry of the ``oemsim`` command and of ``python -m oemsim.cli``.

    Runs ``main``, then ``gc.freeze()``, then exits with main's code.  Freezing moves
    every object numpy and oemsim made at import into the permanent generation, which
    the interpreter's shutdown collections skip (about 20 ms of a 200 ms process).
    Streams are still flushed, atexit handlers still run and the exit code is main's;
    cyclic garbage still alive at exit is left to the OS.  ``main`` itself changes no
    process-wide state, so tests and tracers can call it in-process again and again.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
