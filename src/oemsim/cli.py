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

Exit codes: 0 success, 2 config/parse error, 3 solver failure
(non-convergence or singular system), 4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import astuple, dataclass, field
from importlib import resources
from pathlib import Path

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
from .oscillators import from_working_point, propagate
from .params import (
    DriveConfig,
    SystemParams,
    cooperativity,
    critical_power,
    default_params,
    eit_width,
)
from .working_point import WorkingPoint, coupling_power, solve_working_point

MODELS = ("full", "rwa", "analytic", "oscillator")
SWEEP_KINDS = ("probe_x", "cooperativity_ratio", "roots_vs_ratio", "time_domain")
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

_CHUNK_ROWS = 4096  # rows per write in _write_table

_SI_PREFIX = {"": 1.0, "k": 1e3, "m": 1e-3, "u": 1e-6, "µ": 1e-6, "n": 1e-9, "p": 1e-12}
_POWER_RE = re.compile("\\s*([0-9.eE+\\-]+)\\s*([kmunpµ]?)W\\s*")


def parse_power(value) -> float:
    """Watts from a number or an SI-suffixed string like '1.3mW'."""
    if isinstance(value, (int, float)):
        return float(value)
    match = _POWER_RE.fullmatch(str(value))
    if not match:
        raise ScenarioError(f"cannot parse power {value!r} (expected e.g. 1.3e-3 or '1.3mW')")
    return float(match.group(1)) * _SI_PREFIX[match.group(2)]


def _fmt(value: float) -> str:
    return f"{float(value):.12g}"


def _round12(value: float) -> float:
    return float(_fmt(value))


def _memo_solver(params: SystemParams, detuning_mode: str):
    """``solve_working_point`` at fixed params and mode that solves each DriveConfig once."""
    solved: dict[DriveConfig, WorkingPoint] = {}

    def solve(drives: DriveConfig) -> WorkingPoint:
        if drives not in solved:
            solved[drives] = solve_working_point(params, drives, detuning_mode=detuning_mode)
        return solved[drives]

    return solve


def invert_cooperativity(
    target_c: float,
    cavity_index: int,
    params: SystemParams,
    detuning_mode: str = "effective",
    other_power: float = 0.0,
    rtol: float = 1e-3,
    *,
    solve=None,
) -> float:
    """Coupling power [W] whose self-consistent working point gives the target cooperativity.

    The target fixes the photon number, n = C kappa gamma_m / g^2, and
    ``working_point.coupling_power`` turns n into a power in closed form; in
    bare mode it holds n in the force balance, with the other cavity driven
    at ``other_power``.  One forward solve at that power confirms the branch:
    its cooperativity must match the target within ``rtol`` (0.1% by
    default), else ConvergenceError.  ``solve`` maps a DriveConfig to its
    working point at the same params and mode; a scenario run passes its
    ``_memo_solver``, so the confirming solve is the one a table row reuses.
    """
    if cavity_index not in (1, 2):
        raise InvalidParameterError(f"cavity_index must be 1 or 2, got {cavity_index!r}")
    if target_c < 0:
        raise InvalidParameterError("target cooperativity must be >= 0")
    if target_c == 0.0:
        return 0.0
    g, kappa = (params.g1, params.kappa1) if cavity_index == 1 else (params.g2, params.kappa2)
    if g == 0.0:
        raise ConvergenceError("target cooperativity unreachable: zero coupling rate")
    photons = target_c * kappa * params.gamma_m / g**2
    power = coupling_power(params, cavity_index, photons, other_power, detuning_mode)
    drives = DriveConfig(*((power, other_power) if cavity_index == 1 else (other_power, power)))
    wp = solve(drives) if solve else solve_working_point(params, drives, detuning_mode)
    achieved = cooperativity(g, wp.n1 if cavity_index == 1 else wp.n2, kappa, params.gamma_m)
    if not abs(achieved - target_c) <= rtol * target_c:
        got = "NaN" if math.isnan(achieved) else repr(achieved)
        raise ConvergenceError(
            f"cooperativity inversion off target: {got} vs {target_c} "
            "(the forward solve found another branch)",
            residual=abs(achieved - target_c) / target_c,
        )
    return power


@dataclass
class Scenario:
    """Validated scenario document driving one CLI run."""

    params: SystemParams = field(default_factory=default_params)
    detuning_mode: str = "effective"
    drives: dict = field(default_factory=lambda: {"c1": 40.0, "c2": 40.0})
    sweep: dict = field(default_factory=dict)
    model: str = "rwa"
    variants: list | None = None
    out_path: str | None = None
    out_format: str = "csv"
    description: str = ""

    @classmethod
    def from_dict(cls, doc: dict) -> "Scenario":
        if not isinstance(doc, dict):
            raise ScenarioError("scenario document must be a JSON object")
        known = {
            "params",
            "detuning_mode",
            "drives",
            "sweep",
            "model",
            "variants",
            "output",
            "description",
        }
        unknown = set(doc) - known
        if unknown:
            raise ScenarioError(f"unknown scenario keys: {sorted(unknown)}")

        params = _params_from_spec(doc.get("params", {}))
        mode = doc.get("detuning_mode", "effective")
        if mode not in ("effective", "bare"):
            raise ScenarioError(f"detuning_mode must be 'effective' or 'bare', got {mode!r}")

        drives = doc.get("drives", {"c1": 40.0, "c2": 40.0})
        if not isinstance(drives, dict):
            raise ScenarioError("drives must be an object")

        sweep = doc.get("sweep", {})
        if sweep:
            kind = sweep.get("kind")
            if kind not in SWEEP_KINDS:
                raise ScenarioError(f"sweep.kind must be one of {SWEEP_KINDS}, got {kind!r}")
            for key in ("n_points", "n_samples"):
                count = sweep.get(key)
                if count is not None and (not isinstance(count, int) or count < 2):
                    raise ScenarioError(f"sweep.{key} must be an integer >= 2")
            for key in ("x_min_gamma_m", "x_max_gamma_m", "x_gamma_m", "ratio_min", "ratio_max",
                        "t_final", "dt"):
                if key in sweep:
                    try:
                        bound = float(sweep[key])
                    except (TypeError, ValueError) as exc:
                        raise ScenarioError(f"sweep.{key} must be a number") from exc
                    if not math.isfinite(bound):
                        raise ScenarioError(f"sweep.{key} must be finite")

        model = doc.get("model", "rwa")
        if model not in MODELS:
            raise ScenarioError(f"model must be one of {MODELS}, got {model!r}")

        variants = doc.get("variants")
        if variants is not None:
            if not isinstance(variants, list) or not variants:
                raise ScenarioError("variants must be a non-empty list")
            for v in variants:
                if "label" not in v:
                    raise ScenarioError("every variant needs a label")
                if v.get("model", model) not in MODELS:
                    raise ScenarioError(f"variant model invalid: {v.get('model')!r}")

        output = doc.get("output", {})
        out_format = output.get("format", "csv")
        if out_format not in ("csv", "json"):
            raise ScenarioError(f"output.format must be csv or json, got {out_format!r}")

        return cls(
            params=params,
            detuning_mode=mode,
            drives=drives,
            sweep=sweep,
            model=model,
            variants=variants,
            out_path=output.get("path"),
            out_format=out_format,
            description=doc.get("description", ""),
        )


def _params_from_spec(spec: dict) -> SystemParams:
    """SystemParams from a Hz-valued config object (missing keys -> defaults)."""
    if not isinstance(spec, dict):
        raise ScenarioError("params must be an object of plain-Hz values")
    defaults = {
        "omega_c1_hz": 4e14,
        "omega_c2_hz": 1e10,
        "omega_m_hz": 1e7,
        "gamma_m_hz": 1e3,
        "kappa1_hz": 1e6,
        "kappa2_hz": 1e2,
        "g1_hz": 50.0,
        "g2_hz": 5.0,
        "delta1_hz": None,
        "delta2_hz": None,
    }
    unknown = set(spec) - set(defaults)
    if unknown:
        raise ScenarioError(f"unknown params keys: {sorted(unknown)}")
    merged = {**defaults, **spec}
    try:
        return SystemParams.from_hz(
            omega_c1=merged["omega_c1_hz"],
            omega_c2=merged["omega_c2_hz"],
            omega_m=merged["omega_m_hz"],
            gamma_m=merged["gamma_m_hz"],
            kappa1=merged["kappa1_hz"],
            kappa2=merged["kappa2_hz"],
            g1=merged["g1_hz"],
            g2=merged["g2_hz"],
            delta_bare1=merged["delta1_hz"],
            delta_bare2=merged["delta2_hz"],
        )
    except InvalidParameterError as exc:
        raise ScenarioError(f"invalid params: {exc}") from exc


def resolve_drives(scenario: Scenario, solve=None) -> tuple[DriveConfig, float, float, WorkingPoint]:
    """Resolve the drive spec to powers; returns (drives, c1, c2, wp).

    wp is the working point at ``drives`` and c1, c2 its cooperativities.
    ``solve`` is the run's ``_memo_solver``, if the caller has one.
    """
    spec = scenario.drives
    params = scenario.params
    mode = scenario.detuning_mode
    solve = solve or _memo_solver(params, mode)
    if "c1" in spec or "c2" in spec:
        extra = set(spec) - {"c1", "c2"}
        if extra:
            raise ScenarioError(f"drives mixes cooperativity targets with {sorted(extra)}")
        target_c1 = float(spec.get("c1", 0.0))
        target_c2 = float(spec.get("c2", 0.0))
        p1 = invert_cooperativity(target_c1, 1, params, detuning_mode=mode, solve=solve)
        p2 = invert_cooperativity(target_c2, 2, params, detuning_mode=mode, other_power=p1,
                                  solve=solve)
        if mode == "bare" and target_c1 > 0 and p2 > 0:  # p2 = 0 would repeat the first call
            p1 = invert_cooperativity(target_c1, 1, params, detuning_mode=mode, other_power=p2,
                                      solve=solve)
        drives = DriveConfig(p_c1=p1, p_c2=p2)
    else:
        extra = set(spec) - {"p_c1", "p_c2"}
        if extra:
            raise ScenarioError(f"unknown drives keys: {sorted(extra)}")
        drives = DriveConfig(
            p_c1=parse_power(spec.get("p_c1", 0.0)),
            p_c2=parse_power(spec.get("p_c2", 0.0)),
        )
    wp = solve(drives)
    c1 = cooperativity(params.g1, wp.n1, params.kappa1, params.gamma_m)
    c2 = cooperativity(params.g2, wp.n2, params.kappa2, params.gamma_m)
    return drives, c1, c2, wp


def _response_table(first, resp: ProbeResponse) -> np.ndarray:
    """Table rows: ``first`` (x/gamma_m or C2/C1), then PROBE_COLUMNS[1:] of a response grid."""
    return np.column_stack(np.broadcast_arrays(
        first, resp.e_l.real, resp.e_l.imag, resp.reflect_flux, np.abs(resp.e_r) ** 2,
        resp.transmit_flux, resp.mech_intensity, resp.flux_budget,
    ))


def derive_summary(scenario: Scenario, resolved=None, solve=None) -> dict:
    """Working point plus every derived quantity, as a flat JSON-able dict.

    ``resolved`` is the result of ``resolve_drives(scenario)`` and ``solve``
    the run's ``_memo_solver`` when the caller already has them.
    """
    params = scenario.params
    solve = solve or _memo_solver(params, scenario.detuning_mode)
    drives, c1, c2, wp = resolved or resolve_drives(scenario, solve)
    coeffs = RwaCoefficients.from_working_point(wp, params)
    gamma_eit = eit_width(c1, params.gamma_m)
    split = eia_splitting(gamma_eit, coeffs.s2, params.kappa2)
    peak = peak_height(c1, c2)
    model = from_working_point(wp, params)
    hierarchy = model.hierarchy_report()

    on = response_grid(wp, params, params.omega_m, "rwa")
    drives_off = DriveConfig(p_c1=drives.p_c1, p_c2=0.0)
    wp_off = wp if drives_off == drives else solve(drives_off)
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


def _auto_probe_points(scenario: Scenario, resolved, x_min: float, x_max: float) -> int:
    """Default grid density: at least 20 points per estimated peak width.

    Uses the absorption-peak half-width estimate kappa2 + s2/Gamma_EIT when
    the second drive is on, else the transparency half-width; floor 801,
    cap 20001.
    """
    params = scenario.params
    _, c1, _, wp = resolved
    coeffs = RwaCoefficients.from_working_point(wp, params)
    gamma_eit = eit_width(c1, params.gamma_m)
    if coeffs.s2 > 0:
        width = params.kappa2 + coeffs.s2 / gamma_eit
    else:
        width = gamma_eit
    n = int(math.ceil(20.0 * (x_max - x_min) / width)) + 1
    return max(801, min(n, 20001))


def _scaled_drives(scenario: Scenario, c1: float, p1: float, ratio: float, solve) -> DriveConfig:
    """Drives for C2 = ratio * C1 at the cavity-1 power p1 (it does not depend on the ratio)."""
    p2 = (
        invert_cooperativity(
            ratio * c1, 2, scenario.params,
            detuning_mode=scenario.detuning_mode, other_power=p1, solve=solve,
        )
        if ratio > 0
        else 0.0
    )
    return DriveConfig(p_c1=p1, p_c2=p2)


def run_scenario(
    scenario: Scenario,
    out_override: str | None = None,
    format_override: str | None = None,
    model_override: str | None = None,
    points_override: int | None = None,
) -> dict:
    """Execute a scenario: write its table file(s) and return the summary dict.

    The summary, plus a "files" entry listing every table written, is also
    what the subcommands print.
    """
    out_format = format_override or scenario.out_format
    out_path = Path(out_override or scenario.out_path or "sweep_output." + out_format)
    kind = scenario.sweep.get("kind", "probe_x") if scenario.sweep else None

    if points_override is not None and points_override < 2:
        raise ScenarioError(f"--points must be an integer >= 2, got {points_override}")
    files: list[str] = []
    solve = _memo_solver(scenario.params, scenario.detuning_mode)  # no drives solved twice
    resolved = resolve_drives(scenario, solve)
    summary = derive_summary(scenario, resolved, solve)

    if kind is None:
        pass
    elif kind == "probe_x":
        files += _run_probe_sweep(scenario, resolved, solve, out_path, out_format,
                                  model_override, points_override)
    elif kind == "cooperativity_ratio":
        files += _run_ratio_sweep(scenario, resolved, solve, out_path, out_format,
                                  model_override, points_override)
    elif kind == "roots_vs_ratio":
        files += _run_root_sweep(scenario, resolved, out_path, out_format, points_override)
    elif kind == "time_domain":
        files += _run_time_domain(scenario, resolved, out_path, out_format)
    summary["files"] = files
    return summary


def _variant_list(scenario: Scenario, model_override):
    if scenario.variants:
        return [
            (
                v["label"],
                model_override or v.get("model", scenario.model),
                v.get("c2_over_c1"),
            )
            for v in scenario.variants
        ]
    return [(None, model_override or scenario.model, None)]


def _variant_path(base: Path, label: str | None) -> Path:
    if label is None:
        return base
    return base.with_name(f"{base.stem}_{label}{base.suffix}")


def _run_probe_sweep(scenario, resolved, solve, out_path, out_format, model_override,
                     points_override):
    params = scenario.params
    gm = params.gamma_m
    sweep = scenario.sweep
    x_min = float(sweep.get("x_min_gamma_m", -30.0)) * gm
    x_max = float(sweep.get("x_max_gamma_m", 30.0)) * gm
    if not x_min < x_max:
        raise ScenarioError("probe sweep needs x_min_gamma_m < x_max_gamma_m")
    n_points = points_override if points_override is not None else (
        sweep.get("n_points") or _auto_probe_points(scenario, resolved, x_min, x_max))
    xs = np.linspace(x_min, x_max, n_points)

    variants = _variant_list(scenario, model_override)
    _, c1, _, base_wp = resolved
    if any(ratio is not None for _, _, ratio in variants):
        p1 = invert_cooperativity(c1, 1, params, detuning_mode=scenario.detuning_mode,
                                  solve=solve)
    written = []
    for label, model, ratio in variants:
        wp = base_wp
        if ratio is not None:
            wp = solve(_scaled_drives(scenario, c1, p1, ratio, solve))
        resp = response_grid(wp, params, params.omega_m + xs, model)
        path = _variant_path(out_path, label)
        _write_table(path, PROBE_COLUMNS, _response_table(xs / gm, resp), out_format)
        written.append(str(path))
    return written


def _run_ratio_sweep(scenario, resolved, solve, out_path, out_format, model_override,
                     points_override):
    params = scenario.params
    sweep = scenario.sweep
    model = model_override or scenario.model
    _, c1, _, _ = resolved
    lo = float(sweep.get("ratio_min", 0.0))
    hi = float(sweep.get("ratio_max", 1.0))
    if not lo < hi:
        raise ScenarioError("ratio sweep needs ratio_min < ratio_max")
    n_points = points_override if points_override is not None else sweep.get("n_points", 201)
    x = float(sweep.get("x_gamma_m", 0.0)) * params.gamma_m
    ratios = np.linspace(lo, hi, n_points)
    p1 = invert_cooperativity(c1, 1, params, detuning_mode=scenario.detuning_mode, solve=solve)
    wps = [solve(_scaled_drives(scenario, c1, p1, ratio, solve)) for ratio in ratios]
    # one working point per row, its fields stacked into arrays for the kernel
    stacked = WorkingPoint(*map(np.array, zip(*map(astuple, wps))))
    resp = response_grid(stacked, params, params.omega_m + x, model)
    _write_table(out_path, RATIO_COLUMNS, _response_table(ratios, resp), out_format)
    return [str(out_path)]


def _run_root_sweep(scenario, resolved, out_path, out_format, points_override):
    params = scenario.params
    sweep = scenario.sweep
    _, c1, _, _ = resolved
    lo = float(sweep.get("ratio_min", 0.0))
    hi = float(sweep.get("ratio_max", 1.0))
    if not lo < hi:
        raise ScenarioError("ratio sweep needs ratio_min < ratio_max")
    n_points = points_override if points_override is not None else sweep.get("n_points", 201)
    ratios = np.linspace(lo, hi, n_points)
    coeff_sets = [
        RwaCoefficients.from_cooperativities(
            c1, ratio * c1, params.kappa1, params.kappa2, params.gamma_m
        )
        for ratio in ratios
    ]
    trajectories = root_trajectories(coeff_sets)
    gm = params.gamma_m
    rows = np.column_stack([ratios, -trajectories.imag / gm, trajectories.real / gm])
    _write_table(out_path, ROOT_COLUMNS, rows, out_format)
    return [str(out_path)]


def _run_time_domain(scenario, resolved, out_path, out_format):
    params = scenario.params
    sweep = scenario.sweep
    _, _, _, wp = resolved
    model = from_working_point(wp, params)
    if "t_final" not in sweep:
        raise ScenarioError("time_domain sweep needs t_final")
    delta = params.omega_m + float(sweep.get("x_gamma_m", 0.0)) * params.gamma_m
    traj = propagate(
        model,
        probe_amp=1.0,
        delta=delta,
        t_final=float(sweep["t_final"]),
        method=sweep.get("method", "exact_propagator"),
        dt=float(sweep["dt"]) if "dt" in sweep else None,
        n_samples=sweep.get("n_samples", 1001),
    )
    # (re, im) pairs of u, v, w: the complex states viewed as floats
    rows = np.column_stack([traj.times, np.ascontiguousarray(traj.states).view(np.float64)])
    _write_table(out_path, TIME_COLUMNS, rows, out_format)
    return [str(out_path)]


def _write_table(path: Path, columns, rows: np.ndarray, out_format: str) -> None:
    """Write a 2-D float table as ``_fmt`` prints each number; CSV in chunks of rows."""
    with open(Path(path), "w", encoding="utf-8", newline="") as fh:
        if out_format == "csv":
            fh.write(",".join(columns) + "\n")
            line = ",".join(["%.12g"] * len(columns)) + "\n"  # "%.12g" % v == _fmt(v)
            for start in range(0, len(rows), _CHUNK_ROWS):
                chunk = rows[start:start + _CHUNK_ROWS]
                fh.write((line * len(chunk)) % tuple(chunk.ravel().tolist()))
        else:
            payload = {"columns": list(columns),
                       "rows": [[_round12(v) for v in row] for row in rows.tolist()]}
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")


def load_scenario(ref: str | None) -> Scenario:
    """Load a scenario from a JSON file path or a built-in preset name."""
    if ref is None:
        return Scenario()
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


def _print_json(doc: dict) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True, default=str))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oemsim",
        description="Double-cavity electro-optomechanical linear-response toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_scenario=True):
        p.add_argument(
            "--scenario",
            required=needs_scenario,
            help=f"scenario JSON file or preset name {PRESETS}",
        )
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

    if args.command == "derive":
        summary = derive_summary(scenario)
        _print_json(summary)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                json.dump(summary, fh, indent=2, sort_keys=True, default=str)
                fh.write("\n")
        return 0

    if args.command == "invert":
        power = invert_cooperativity(args.target, args.cavity, scenario.params,
                                     detuning_mode=scenario.detuning_mode)
        result = {"target_c": args.target, "cavity": args.cavity, "power_w": _round12(power)}
        _print_json(result)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                json.dump(result, fh, indent=2, sort_keys=True)
                fh.write("\n")
        return 0

    kind = scenario.sweep.get("kind") if scenario.sweep else None
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
    except (ConvergenceError, SingularResponseError, StepSizeError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
