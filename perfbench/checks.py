"""Correctness checks on the tables the CLI writes.

Every check compares a table with a value computed here, independently of the
solver that wrote it:

* ``probe`` / ``ratio`` rows of the RWA family (rwa, analytic, oscillator) at
  Delta_1 = Delta_2 = omega_m are compared column by column with the nested
  elimination of the three-mode system below, and E_L also with
  ``oemsim.analytic.response_rwa``; their flux budget must be 1.  Full-model
  rows must be self-consistent and keep the budget within kappa1/omega_m of 1.
  Bare-mode rows cannot use the resonance formula; they are checked for
  consistency and a budget of 1, and the analytic route against the matrix
  solve of the same window.
* ``roots`` rows must satisfy all three Vieta relations of the pole cubic.
* ``time`` rows must follow the one-step map of the exact solution
  (exact_propagator) or of classic RK4 (rk4) between consecutive samples.
* ``derive`` / ``invert`` summaries are compared with the closed-form
  cooperativity-to-power relation of the effective detuning mode.
* ``reference`` tables must match the tables stored in ``reference/`` to
  1e-12 relative.

Tolerances allow one unit in the 12th significant digit, the precision the
CLI prints, on top of the relative tolerance.
"""

from __future__ import annotations

import gzip
import json
import math
from pathlib import Path

import numpy as np

from workloads import HARDWARE_HZ

HBAR = 1.054571817e-34
TWO_PI = 2.0 * math.pi

PROBE_COLUMNS = ["x_over_gamma_m", "re_EL", "im_EL", "reflect_flux", "abs_ER_sq",
                 "transmit_flux", "mech_intensity", "flux_budget"]
RATIO_COLUMNS = ["c2_over_c1"] + PROBE_COLUMNS[1:]
ROOT_COLUMNS = ["c2_over_c1", "width_a_over_gamma_m", "width_b_over_gamma_m",
                "width_c_over_gamma_m", "re_a_over_gamma_m", "re_b_over_gamma_m",
                "re_c_over_gamma_m"]
TIME_COLUMNS = ["t_seconds", "re_u", "im_u", "re_v", "im_v", "re_w", "im_w"]
RWA_FAMILY = ("rwa", "analytic", "oscillator")

# tolerances, as a share of the expected value
CLOSED_FORM_RTOL = 3e-10
REFERENCE_RTOL = 1e-12
CONSISTENCY_RTOL = 1e-9
TIME_RTOL = 1e-8


class Hardware:
    """The reference device in rad/s: the hardware every generated scenario
    sets, which is also the package default the presets use."""

    def __init__(self):
        for key, hz in HARDWARE_HZ.items():
            setattr(self, key.removesuffix("_hz"), TWO_PI * hz)

    def weights(self, c1, c2):
        """Drive weights s_i = C_i kappa_i gamma_m / 2."""
        return c1 * self.kappa1 * self.gamma_m / 2.0, c2 * self.kappa2 * self.gamma_m / 2.0

    def power(self, target_c: float, cavity: int) -> float:
        """Coupling power giving cooperativity target_c at Delta_i = omega_m."""
        g, kappa, carrier = ((self.g1, self.kappa1, self.omega_c1) if cavity == 1
                             else (self.g2, self.kappa2, self.omega_c2))
        n = target_c * kappa * self.gamma_m / g**2
        return n * HBAR * carrier * (kappa**2 + self.omega_m**2) / (2.0 * kappa)


HW = Hardware()


class CheckError(Exception):
    """An output failed a check."""


class Checker:
    """Runs checks and keeps the largest relative error seen."""

    def __init__(self):
        self.max_rel_err = 0.0

    def close(self, label, got, want, rtol, floor_share=1e-3, scale=None):
        """|got - want| <= rtol * scale + one unit in the 12th digit of want.

        scale defaults to max(|want|, floor_share * max|want|), so values that
        are noise next to the rest of their column are compared absolutely.
        """
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        if got.shape != want.shape:
            raise CheckError(f"{label}: shape {got.shape} != {want.shape}")
        if not np.all(np.isfinite(got)):
            raise CheckError(f"{label}: non-finite value")
        mag = np.abs(want)
        if scale is None:
            scale = np.maximum(mag, floor_share * (mag.max() if mag.size else 0.0))
        scale = np.broadcast_to(np.asarray(scale, dtype=float), want.shape)
        nonzero = np.where(mag > 0, mag, 1.0)
        unit12 = np.where(mag > 0, 10.0 ** (np.floor(np.log10(nonzero)) - 11), 0.0)
        err = np.abs(got - want)
        rel = err / np.where(scale > 0, scale, np.inf)
        if rel.size:
            self.max_rel_err = max(self.max_rel_err,
                                   float(np.max(np.where(err <= unit12, 0.0, rel))))
        bad = err > rtol * scale + unit12
        if np.any(bad):
            i = int(np.argmax(bad.ravel()))
            raise CheckError(
                f"{label}: {got.ravel()[i]!r} vs expected {want.ravel()[i]!r} "
                f"(relative {rel.ravel()[i]:.3g} > {rtol:g})")

    def run(self, path: Path, checks: list[dict], round_dir: Path, reference_dir: Path):
        for spec in checks:
            kind = spec["kind"]
            if kind == "reference":
                self.reference(path, reference_dir / spec["file"])
            elif kind == "probe":
                self.probe(path, spec)
            elif kind == "ratio":
                self.ratio(path, spec, round_dir)
            elif kind == "roots":
                self.roots(path, spec)
            elif kind == "time":
                self.time(path, spec)
            elif kind == "derive":
                self.derive(path, spec)
            elif kind == "invert":
                self.invert(path, spec)
            else:
                raise ValueError(f"unknown check {kind!r}")

    # -- tables -----------------------------------------------------------

    def probe(self, path, spec):
        data = _table(path, PROBE_COLUMNS, spec["n"])
        gm = HW.gamma_m
        x = np.linspace(spec["x_min"] * gm, spec["x_max"] * gm, spec["n"])
        self.close(f"{path.name} x", data[:, 0], x / gm, REFERENCE_RTOL)
        if spec["model"] in RWA_FAMILY:
            s1, s2 = HW.weights(spec["c1"], spec["c2"])
            self._closed_form(path.name, data, x, s1, np.full_like(x, s2))
        else:
            self._consistent(path.name, data)
            budget_slack = HW.kappa1 / HW.omega_m
            if np.any(np.abs(data[:, 7] - 1.0) > budget_slack):
                raise CheckError(f"{path.name}: full-model flux budget off 1 by more "
                                 f"than kappa1/omega_m = {budget_slack:g}")

    def ratio(self, path, spec, round_dir):
        data = _table(path, RATIO_COLUMNS, spec["n"])
        ratios = np.linspace(spec["lo"], spec["hi"], spec["n"])
        self.close(f"{path.name} ratio", data[:, 0], ratios, REFERENCE_RTOL)
        if spec.get("bare"):
            self._consistent(path.name, data)
            self.close(f"{path.name} flux_budget", data[:, 7], np.ones(len(data)),
                       CLOSED_FORM_RTOL)
        else:
            x = np.full_like(ratios, spec.get("x_gamma_m", 0.0) * HW.gamma_m)
            s1, _ = HW.weights(spec["c1"], 0.0)
            _, s2 = HW.weights(0.0, ratios * spec["c1"])
            self._closed_form(path.name, data, x, s1, s2)
        if "same_as" in spec:
            other = _table(round_dir / spec["same_as"], RATIO_COLUMNS, spec["n"])
            scales = _scales(RATIO_COLUMNS, other)
            for j, col in enumerate(RATIO_COLUMNS):
                self.close(f"{path.name} {col} vs {spec['same_as']}", data[:, j], other[:, j],
                           CLOSED_FORM_RTOL, scale=scales.get(col))

    def _closed_form(self, name, data, x, s1, s2):
        """Compare every response column with the RWA three-mode system.

        Unknowns u (cavity 1), v (cavity 2), w (mechanics, half damping) with
        couplings G_i = sqrt(s_i):
            (kappa1 - i x) u + i G1 w = 1
            (kappa2 - i x) v + i G2 w = 0
            (gamma_m/2 - i x) w + i G1 u + i G2 v = 0
        """
        from oemsim.analytic import RwaCoefficients, response_rwa

        k1, k2, gm = HW.kappa1, HW.kappa2, HW.gamma_m
        mech = gm / 2.0 - 1j * x + s2 / (k2 - 1j * x)
        u = 1.0 / (k1 - 1j * x + s1 / mech)
        w = -1j * np.sqrt(s1) * u / mech
        v = -1j * np.sqrt(s2) * w / (k2 - 1j * x)
        e_l = 2.0 * k1 * u
        expected = {
            "re_EL": e_l.real,
            "im_EL": e_l.imag,
            "reflect_flux": np.abs(e_l - 1.0) ** 2,
            "abs_ER_sq": np.abs(2.0 * k2 * v) ** 2,
            "transmit_flux": 4.0 * k1 * k2 * np.abs(v) ** 2,
            "mech_intensity": np.abs(w) ** 2 / 2.0,
            # reflection, transmission and the mechanical bath take all the flux
            "flux_budget": np.ones(len(x)),
        }
        scales = {"re_EL": np.abs(e_l), "im_EL": np.abs(e_l), "reflect_flux": _reflect_scale(e_l)}
        for j, col in enumerate(PROBE_COLUMNS[1:], start=1):
            self.close(f"{name} {col}", data[:, j], expected[col], CLOSED_FORM_RTOL,
                       scale=scales.get(col))

        def coeffs(s2_value):
            return RwaCoefficients(kappa1=k1, kappa2=k2, gamma_m=gm, s1=s1, s2=float(s2_value))

        if np.all(s2 == s2[0]):
            from_library = response_rwa(x, coeffs(s2[0]))
        else:
            from_library = np.array([response_rwa(xi, coeffs(s2i)) for xi, s2i in zip(x, s2)])
        self.close(f"{name} re_EL vs response_rwa", data[:, 1], from_library.real,
                   CLOSED_FORM_RTOL, scale=np.abs(from_library))
        self.close(f"{name} im_EL vs response_rwa", data[:, 2], from_library.imag,
                   CLOSED_FORM_RTOL, scale=np.abs(from_library))

    def _consistent(self, name, data):
        """Flux columns must follow from the field columns of the same row."""
        e_l = data[:, 1] + 1j * data[:, 2]
        self.close(f"{name} reflect_flux = |E_L - 1|^2", data[:, 3], np.abs(e_l - 1.0) ** 2,
                   CONSISTENCY_RTOL, scale=_reflect_scale(e_l))
        self.close(f"{name} transmit_flux = (kappa1/kappa2)|E_R|^2", data[:, 5],
                   HW.kappa1 / HW.kappa2 * data[:, 4], CONSISTENCY_RTOL, floor_share=1e-2)

    def roots(self, path, spec):
        data = _table(path, ROOT_COLUMNS, spec["n"])
        ratios = np.linspace(spec["lo"], spec["hi"], spec["n"])
        self.close(f"{path.name} ratio", data[:, 0], ratios, REFERENCE_RTOL)
        # decay rate y = width + i*re (units of gamma_m) solves the real cubic
        # (y - k1)(y - 1/2)(y - k2) + s1 (y - k2) + s2 (y - k1) = 0
        y = data[:, 1:4] + 1j * data[:, 4:7]
        gm = HW.gamma_m
        k1, k2, gh = HW.kappa1 / gm, HW.kappa2 / gm, 0.5
        s1 = spec["c1"] * k1 / 2.0
        s2 = ratios * spec["c1"] * k2 / 2.0
        e1 = k1 + k2 + gh
        e2 = k1 * gh + k1 * k2 + gh * k2 + s1 + s2
        e3 = k1 * gh * k2 + s1 * k2 + s2 * k1
        y1, y2, y3 = y[:, 0], y[:, 1], y[:, 2]
        for label, got, want in (
            ("sum", y1 + y2 + y3, np.full_like(ratios, e1)),
            ("pair sum", y1 * y2 + y1 * y3 + y2 * y3, e2),
            ("product", y1 * y2 * y3, e3),
        ):
            self.close(f"{path.name} Vieta {label}", got.real, want, CLOSED_FORM_RTOL)
            self.close(f"{path.name} Vieta {label} (imaginary part)", got.imag,
                       np.zeros_like(want), CLOSED_FORM_RTOL, scale=np.abs(want))

    def time(self, path, spec):
        gm = HW.gamma_m
        s1, s2 = HW.weights(spec["c1"], spec["c2"])
        x = spec["x_gamma_m"] * gm
        delta = HW.omega_m + x
        g1, g2 = math.sqrt(s1), math.sqrt(s2)
        # drift matrix in the probe frame (y = exp(i delta t) z, dy/dt = B y + d)
        b = np.array([
            [1j * x - HW.kappa1, 0.0, -1j * g1],
            [0.0, 1j * x - HW.kappa2, -1j * g2],
            [-1j * g1, -1j * g2, 1j * x - gm / 2.0],
        ], dtype=complex)
        d = np.array([1.0, 0.0, 0.0], dtype=complex)
        t_final, n_samples = spec["t_final"], spec["n_samples"]
        if spec["method"] == "exact_propagator":
            times = np.linspace(0.0, t_final, n_samples)
            steps = np.arange(n_samples)
            step_map = _expm(b * (times[1] - times[0]))
            step_drive = (step_map - np.eye(3)) @ np.linalg.solve(b, d)
        else:
            n_steps = max(1, math.ceil(t_final / spec["dt"]))
            h = t_final / n_steps
            stride = max(1, n_steps // max(1, n_samples - 1))
            steps = np.array([0] + [k for k in range(1, n_steps + 1)
                                    if k % stride == 0 or k == n_steps])
            times = steps * h
            hb = h * b
            eye = np.eye(3, dtype=complex)
            step_map = eye + hb + hb @ hb / 2.0 + hb @ hb @ hb / 6.0 + hb @ hb @ hb @ hb / 24.0
            step_drive = h * (eye + hb / 2.0 + hb @ hb / 6.0 + hb @ hb @ hb / 24.0) @ d
        data = _table(path, TIME_COLUMNS, len(times))
        self.close(f"{path.name} t", data[:, 0], times, REFERENCE_RTOL)
        z = data[:, 1::2] + 1j * data[:, 2::2]
        y = z * np.exp(1j * delta * times)[:, None]
        # the trace starts at rest; samples k steps apart follow
        # y <- M^k y + (M^{k-1} + ... + 1) r
        predicted = np.empty_like(y)
        predicted[0] = 0.0
        maps = {}
        for i in range(1, len(steps)):
            gap = int(steps[i] - steps[i - 1])
            if gap not in maps:
                m, r = np.eye(3, dtype=complex), np.zeros(3, dtype=complex)
                for _ in range(gap):
                    m, r = step_map @ m, step_map @ r + step_drive
                maps[gap] = (m, r)
            m, r = maps[gap]
            predicted[i] = m @ y[i - 1] + r
        scale = np.abs(y).max()
        err = np.abs(y - predicted).max() / scale
        self.max_rel_err = max(self.max_rel_err, float(err))
        if err > TIME_RTOL:
            raise CheckError(f"{path.name}: {spec['method']} samples break the one-step "
                             f"map by {err:.3g} of max |z| (> {TIME_RTOL:g})")

    # -- summaries --------------------------------------------------------

    def derive(self, path, spec):
        doc = json.loads(path.read_text(encoding="utf-8"))
        c1, c2 = spec["c1"], spec["c2"]
        for key, want in (
            ("c1", c1),
            ("c2", c2),
            ("p_c1_w", HW.power(c1, 1)),
            ("gamma_eit_over_gamma_m", (1.0 + c1) / 2.0),
            ("peak_height_exact", 2.0 * (1.0 + c2) / (1.0 + c1 + c2)),
        ):
            self.close(f"{path.name} {key}", doc[key], want, CLOSED_FORM_RTOL)

    def invert(self, path, spec):
        doc = json.loads(path.read_text(encoding="utf-8"))
        if doc.get("cavity") != spec["cavity"]:
            raise CheckError(f"{path.name}: cavity {doc.get('cavity')!r}")
        self.close(f"{path.name} power_w", doc["power_w"],
                   HW.power(spec["target"], spec["cavity"]), CLOSED_FORM_RTOL)

    def reference(self, path, ref_path):
        with gzip.open(ref_path, "rt", encoding="utf-8") as fh:
            ref_text = fh.read()
        if path.suffix == ".csv":
            got_cols, got = _parse_csv(path.read_text(encoding="utf-8"))
            want_cols, want = _parse_csv(ref_text)
            if got_cols != want_cols or got.shape != want.shape:
                raise CheckError(f"{path.name}: columns or row count differ from the reference")
            scales = _scales(want_cols, want)
            for j, col in enumerate(got_cols):
                self.close(f"{path.name} {col} vs reference", got[:, j], want[:, j],
                           REFERENCE_RTOL, scale=scales.get(col))
            return
        got, want = json.loads(path.read_text(encoding="utf-8")), json.loads(ref_text)
        if sorted(got) != sorted(want):
            raise CheckError(f"{path.name}: keys differ from the reference")
        for key, value in want.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                self.close(f"{path.name} {key} vs reference", got[key], value, REFERENCE_RTOL)
            elif got[key] != value:
                raise CheckError(f"{path.name} {key}: {got[key]!r} != reference {value!r}")


# columns holding the two parts of one complex quantity
COMPLEX_PAIRS = [("re_EL", "im_EL"), ("re_u", "im_u"), ("re_v", "im_v"), ("re_w", "im_w")] + [
    (f"width_{k}_over_gamma_m", f"re_{k}_over_gamma_m") for k in "abc"]


def _scales(columns, data) -> dict:
    """Comparison scale per column where the value alone is the wrong one.

    Both parts of a complex quantity are compared on its magnitude (floored
    at 1e-3 of the column's largest), so a part that is zero up to rounding
    is not compared relatively; reflect_flux uses ``_reflect_scale``.
    """
    index = {col: j for j, col in enumerate(columns)}
    scales = {}
    for a, b in COMPLEX_PAIRS:
        if a in index and b in index:
            mag = np.hypot(data[:, index[a]], data[:, index[b]])
            scales[a] = scales[b] = np.maximum(mag, 1e-3 * (mag.max() if mag.size else 0.0))
    if "reflect_flux" in index:
        scales["reflect_flux"] = _reflect_scale(data[:, index["re_EL"]]
                                                + 1j * data[:, index["im_EL"]])
    return scales


def _reflect_scale(e_l):
    """Scale of |E_L - 1|^2 that absorbs its cancellation where E_L is near 1."""
    return np.abs(e_l - 1.0) ** 2 + 2.0 * np.abs(e_l - 1.0) * np.abs(e_l)


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring of a Taylor series."""
    norm = float(np.abs(a).sum(axis=1).max())
    squarings = max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0
    a = a / 2.0**squarings
    term = np.eye(len(a), dtype=complex)
    out = term.copy()
    for k in range(1, 24):
        term = term @ a / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def _parse_csv(text: str):
    lines = text.splitlines()
    columns = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]], dtype=float)
    return columns, rows.reshape(len(lines) - 1, len(columns))


def read_table(path: Path):
    """(columns, values) of a CSV or JSON table the CLI wrote."""
    if path.suffix == ".json":
        doc = json.loads(path.read_text(encoding="utf-8"))
        rows = np.array(doc["rows"], dtype=float)
        return doc["columns"], rows.reshape(len(doc["rows"]), len(doc["columns"]))
    return _parse_csv(path.read_text(encoding="utf-8"))


def _table(path: Path, columns: list[str], n_rows: int) -> np.ndarray:
    got_cols, data = read_table(path)
    if got_cols != columns:
        raise CheckError(f"{path.name}: columns {got_cols} != {columns}")
    if len(data) != n_rows:
        raise CheckError(f"{path.name}: {len(data)} rows, expected {n_rows}")
    return data


def count_rows(path: Path) -> int:
    """Data rows of a table; a summary document counts as one row."""
    if path.suffix == ".csv":
        with open(path, encoding="utf-8") as fh:
            return sum(1 for _ in fh) - 1
    doc = json.loads(path.read_text(encoding="utf-8"))
    return len(doc["rows"]) if "rows" in doc and "columns" in doc else 1
