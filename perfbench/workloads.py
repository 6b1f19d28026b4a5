"""Seeded workloads: the CLI invocations one round of a benchmark run makes.

Every workload is a fixed list of invocations (a "round").  The seed changes
the physics of the seeded invocations (C1, the cooperativity ratio, the probe
window, the ratio window, the time span) but never their count, model or
grid size, so the work per round, and with it every timing, stays comparable
across seeds.  All inputs stay in the paper's regime: red-detuned tones
(Delta_i = omega_m), kappa1 >> gamma_m >> kappa2, and C1 between 10 and 60.

Each invocation lists the files it writes and the checks each file must pass
(see ``checks.py``).  Invocations that take no seeded input are compared with
tables stored in ``reference/``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

WHY = {
    "dense_grids": (
        "few invocations with 1k-22k point grids and long time traces: "
        "per-point response, oscillator and table-writing cost dominate"
    ),
    "ratio_bare": (
        "bare-detuning ratio sweeps, one response point per working point: "
        "working-point solves and power inversion dominate"
    ),
    "cold_presets": (
        "many short preset-style invocations: interpreter start-up, imports "
        "and pole tracking dominate"
    ),
}

# Reference hardware (plain Hz), written explicitly into every generated file.
HARDWARE_HZ = {
    "omega_c1_hz": 4e14,
    "omega_c2_hz": 1e10,
    "omega_m_hz": 1e7,
    "gamma_m_hz": 1e3,
    "kappa1_hz": 1e6,
    "kappa2_hz": 1e2,
    "g1_hz": 50.0,
    "g2_hz": 5.0,
}

FIG2_VARIANTS = [
    (f"{model}_r{int(ratio * 100):03d}", model, ratio)
    for model in ("rwa", "full")
    for ratio in (0.0, 0.5, 1.0)
]


@dataclass
class Invocation:
    """One CLI call: ``oemsim <args> --out <round dir>/<out>``.

    ``outputs`` maps every file the call writes (relative to the round
    directory) to the checks that file must pass; ``rows`` is filled in from
    the first round's files.
    """

    name: str
    args: list[str]
    out: str
    outputs: dict[str, list[dict]]
    rows: int = 0

    def argv(self, round_dir: Path) -> list[str]:
        return [*self.args, "--out", str(round_dir / self.out)]


def _write_scenario(scenario_dir: Path, name: str, doc: dict) -> str:
    path = scenario_dir / f"{name}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


def _scenario(description: str, drives: dict, sweep: dict, mode: str = "effective") -> dict:
    return {
        "description": description,
        "params": dict(HARDWARE_HZ),
        "detuning_mode": mode,
        "drives": drives,
        "sweep": sweep,
        "output": {"format": "csv"},
    }


def _ref(name: str) -> dict:
    return {"kind": "reference", "file": name + ".gz"}


def _dense_grids(rng: random.Random, scenario_dir: Path) -> list[Invocation]:
    invs = [
        Invocation(
            name="fig2",
            args=["sweep", "--scenario", "fig2"],
            out="fig2.csv",
            outputs={
                f"fig2_{label}.csv": [
                    {"kind": "probe", "model": model, "c1": 40.0, "c2": 40.0 * ratio,
                     "x_min": -30.0, "x_max": 30.0, "n": 1201},
                    _ref(f"fig2_{label}.csv"),
                ]
                for label, model, ratio in FIG2_VARIANTS
            },
        )
    ]
    # Sizes are chosen so that every invocation takes about as long as fig2:
    # with one cluster of durations, the median of a round does not flip
    # between two groups of invocations.
    for model, n in (("rwa", 11000), ("full", 9000), ("analytic", 22000), ("oscillator", 14000)):
        c1 = rng.uniform(10.0, 60.0)
        c2 = c1 * rng.uniform(0.0, 1.2)
        half = rng.uniform(10.0, 40.0)
        center = rng.uniform(-5.0, 5.0)
        varies = f"grid size {n} points, model {model}, C1 {c1:.6g}, C2/C1 {c2 / c1:.6g}"
        name = f"probe_{model}"
        path = _write_scenario(scenario_dir, name, _scenario(
            "perfbench dense_grids: varies " + varies,
            {"c1": c1, "c2": c2},
            {"kind": "probe_x", "x_min_gamma_m": center - half,
             "x_max_gamma_m": center + half, "n_points": n},
        ))
        invs.append(Invocation(
            name=name,
            args=["sweep", "--scenario", path, "--model", model],
            out=f"{name}.csv",
            outputs={f"{name}.csv": [
                {"kind": "probe", "model": model, "c1": c1, "c2": c2,
                 "x_min": center - half, "x_max": center + half, "n": n},
            ]},
        ))
    for method, sweep in (
        ("exact_propagator", {"t_final": rng.uniform(1e-3, 3e-3), "n_samples": 30000}),
        ("rk4", {"t_final": rng.uniform(1.4e-3, 1.6e-3), "dt": 1e-8, "n_samples": 2001}),
    ):
        c1 = rng.uniform(10.0, 60.0)
        # C2/C1 >= 0.2 keeps the drift matrix well away from an exceptional point
        c2 = c1 * rng.uniform(0.2, 1.2)
        x = rng.uniform(-3.0, 3.0)
        sweep = {"kind": "time_domain", "method": method, "x_gamma_m": x, **sweep}
        varies = (f"time trace, {method}, {sweep['n_samples']} samples, "
                  f"C1 {c1:.6g}, C2/C1 {c2 / c1:.6g}")
        name = f"integrate_{method}"
        path = _write_scenario(scenario_dir, name, _scenario(
            "perfbench dense_grids: varies " + varies, {"c1": c1, "c2": c2}, sweep,
        ))
        invs.append(Invocation(
            name=name,
            args=["integrate", "--scenario", path],
            out=f"{name}.csv",
            outputs={f"{name}.csv": [{**sweep, "kind": "time", "c1": c1, "c2": c2}]},
        ))
    return invs


def _ratio_bare(rng: random.Random, scenario_dir: Path) -> list[Invocation]:
    # The fig5 preset in bare mode, its grid shrunk from 201 to 11 points so
    # one invocation fits a round (the full preset takes about half a minute).
    fig5 = _scenario(
        "perfbench ratio_bare: varies detuning mode (fig5 preset in bare mode, 11 points)",
        {"c1": 40.0},
        {"kind": "cooperativity_ratio", "ratio_min": 0.0, "ratio_max": 1.0,
         "n_points": 11, "x_gamma_m": 0.0},
        mode="bare",
    )
    fig5["model"] = "rwa"
    invs = [Invocation(
        name="fig5_bare",
        args=["sweep", "--scenario", _write_scenario(scenario_dir, "fig5_bare", fig5)],
        out="fig5_bare.csv",
        outputs={"fig5_bare.csv": [
            {"kind": "ratio", "model": "rwa", "bare": True, "lo": 0.0, "hi": 1.0, "n": 11},
            _ref("fig5_bare.csv"),
        ]},
    )]
    # Windows start at C2/C1 = 0, where the force balance has one root, and
    # run into ratios where a second drive makes it multi-valued.
    for window, x in (("fig5like", 0.0), ("fig4like", rng.uniform(-1.0, 1.0)),
                      ("offcenter", rng.uniform(-3.0, 3.0))):
        c1 = rng.uniform(10.0, 60.0)
        hi = rng.uniform(0.3, 1.2)
        varies = f"ratio window [0, {hi:.6g}] in bare mode, C1 {c1:.6g}, x {x:.6g} gamma_m"
        sweep = {"kind": "cooperativity_ratio", "ratio_min": 0.0, "ratio_max": hi,
                 "n_points": 6, "x_gamma_m": x}
        path = _write_scenario(scenario_dir, f"bare_{window}", _scenario(
            "perfbench ratio_bare: varies " + varies, {"c1": c1}, sweep, mode="bare",
        ))
        for model in ("rwa", "analytic"):
            name = f"bare_{window}_{model}"
            check = {"kind": "ratio", "model": model, "bare": True,
                     "lo": 0.0, "hi": hi, "n": 6, "x_gamma_m": x}
            if model == "analytic":
                # the nested elimination must agree with the matrix solve
                check["same_as"] = f"bare_{window}_rwa.csv"
            invs.append(Invocation(
                name=name,
                args=["sweep", "--scenario", path, "--model", model],
                out=f"{name}.csv",
                outputs={f"{name}.csv": [check]},
            ))
    return invs


def _cold_presets(rng: random.Random, scenario_dir: Path) -> list[Invocation]:
    invs = [
        Invocation("derive", ["derive"], "derive.json",
                   {"derive.json": [{"kind": "derive", "c1": 40.0, "c2": 40.0},
                                    _ref("derive.json")]}),
        Invocation("invert1", ["invert", "--target", "40", "--cavity", "1"], "invert1.json",
                   {"invert1.json": [{"kind": "invert", "target": 40.0, "cavity": 1},
                                     _ref("invert1.json")]}),
        Invocation("invert2", ["invert", "--target", "40", "--cavity", "2"], "invert2.json",
                   {"invert2.json": [{"kind": "invert", "target": 40.0, "cavity": 2},
                                     _ref("invert2.json")]}),
        Invocation("fig3", ["roots", "--scenario", "fig3"], "fig3.csv",
                   {"fig3.csv": [{"kind": "roots", "c1": 40.0, "lo": 0.0, "hi": 1.0, "n": 201},
                                 _ref("fig3.csv")]}),
    ]
    for fig in ("fig4", "fig5"):
        invs.append(Invocation(
            fig, ["sweep", "--scenario", fig], f"{fig}.csv",
            {f"{fig}.csv": [{"kind": "ratio", "model": "rwa", "c1": 40.0,
                             "lo": 0.0, "hi": 1.0, "n": 201, "x_gamma_m": 0.0},
                            _ref(f"{fig}.csv")]},
        ))

    c1, c2 = rng.uniform(10.0, 60.0), rng.uniform(0.0, 60.0)
    varies = f"C1 {c1:.6g}, C2 {c2:.6g}"
    path = _write_scenario(scenario_dir, "derive_seeded", _scenario(
        "perfbench cold_presets: varies " + varies, {"c1": c1, "c2": c2}, {}))
    invs.append(Invocation(
        "derive_seeded", ["derive", "--scenario", path], "derive_seeded.json",
        {"derive_seeded.json": [{"kind": "derive", "c1": c1, "c2": c2}]}))

    target, cavity = rng.uniform(10.0, 60.0), rng.choice((1, 2))
    invs.append(Invocation(
        "invert_seeded", ["invert", "--target", repr(target), "--cavity", str(cavity)],
        "invert_seeded.json",
        {"invert_seeded.json": [{"kind": "invert", "target": target, "cavity": cavity}]}))

    c1, hi = rng.uniform(10.0, 60.0), rng.uniform(0.5, 2.0)
    varies = f"C1 {c1:.6g}, ratio window [0, {hi:.6g}], 101 ratios, json tables"
    path = _write_scenario(scenario_dir, "roots_seeded", _scenario(
        "perfbench cold_presets: varies " + varies, {"c1": c1},
        {"kind": "roots_vs_ratio", "ratio_min": 0.0, "ratio_max": hi, "n_points": 101}))
    invs.append(Invocation(
        "roots_seeded", ["roots", "--scenario", path, "--format", "json"], "roots_seeded.json",
        {"roots_seeded.json": [{"kind": "roots", "c1": c1, "lo": 0.0, "hi": hi, "n": 101}]}))

    c1 = rng.uniform(10.0, 60.0)
    c2 = c1 * rng.uniform(0.0, 1.2)
    half = rng.uniform(10.0, 40.0)
    varies = f"C1 {c1:.6g}, C2/C1 {c2 / c1:.6g}, 401 points, model analytic"
    path = _write_scenario(scenario_dir, "probe_seeded", _scenario(
        "perfbench cold_presets: varies " + varies, {"c1": c1, "c2": c2},
        {"kind": "probe_x", "x_min_gamma_m": -half, "x_max_gamma_m": half, "n_points": 401}))
    invs.append(Invocation(
        "probe_seeded", ["sweep", "--scenario", path, "--model", "analytic"], "probe_seeded.csv",
        {"probe_seeded.csv": [{"kind": "probe", "model": "analytic", "c1": c1, "c2": c2,
                               "x_min": -half, "x_max": half, "n": 401}]}))
    return invs


GENERATORS = {
    "dense_grids": _dense_grids,
    "ratio_bare": _ratio_bare,
    "cold_presets": _cold_presets,
}


def build(workload: str, seed: int, scenario_dir: Path) -> list[Invocation]:
    """Write the seeded scenario files into ``scenario_dir``; return one round."""
    scenario_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}/{seed}")
    return GENERATORS[workload](rng, scenario_dir)
