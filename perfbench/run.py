"""oemsim benchmark: CLI wall time and table throughput on seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload dense_grids --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client: the next CLI invocation
(``python3 -m oemsim.cli ...`` on the package under ``src/``) starts only
after the previous one has exited, so at most one child runs at a time.  The
loop cycles through the workload's round of invocations until ``--seconds``
of invocation time have passed and at least two whole rounds are done, so
every output is produced twice.  Outputs are hashed between invocations;
repeats must be byte-identical to round 0, whose tables are then checked by
``checks.py``, outside any timed region.

The speed of the machine this runs on drifts by tens of percent over minutes,
so the run-time metrics are given in units of a fixed reference task
(``reference_task``) that is timed before the first invocation and after
every one: an invocation's time in ``ref`` is its wall time divided by the
mean of the reference samples just before and just after it.  The raw wall
times in seconds are printed alongside.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of an in-process run of the same inputs through ``oemsim.cli.main``
with span wrappers installed (see ``tracing.py``).  The last line of stdout
is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os

# Children and this process run BLAS single-threaded; set before numpy loads.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout, suppress  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from checks import Checker, CheckError, count_rows  # noqa: E402
from tracing import Tracer, install, layer_metrics, restore  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference"
WORK = ROOT / ".perfbench_work"
TRACE_OUT = ROOT / ".perfbench_out"

SETUP_EVERY = 4  # a set-up sample after every fourth invocation
# The reference task: a fresh interpreter that imports numpy and does fixed
# Python and numpy work, about 0.3 s in all on a 2 GHz Xeon vCPU.  Like a CLI
# invocation it starts a process, imports and computes.
REFERENCE_CODE = """
import numpy as np
a = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.25], [0.5, 0.25, 2.0]])
total = 0.0
for k in range(5000):
    total += float(np.linalg.solve(a, np.array([1.0, k * 1e-3, 2.0]))[0])
    total += sum(i * i * 1e-6 for i in range(60))
x = np.linspace(0.0, 1.0, 400000)
for _ in range(4):
    total += float(np.abs(np.exp(1j * x) / (1.0 + x)).sum())
print(total)
"""
IMPORTTIME_REPEATS = 3
# in-process rounds are short; more pairs than this only grow the span file
MAX_TRACED_PAIRS = 8
# wall-clock budget for one benchmark run, which must end within 180 s
BUDGET_S = 150.0


class Outputs:
    """Tracks every attempt: exit code, files present, bytes equal to round 0."""

    def __init__(self):
        self.baseline: dict[str, dict | None] = {}
        self.ok_attempts: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, inv, round_index: int, round_dir: Path, returncode) -> None:
        self.attempted += 1
        problems = [] if returncode == 0 else [f"exit code {returncode}"]
        digests = {}
        for name in inv.outputs:
            path = round_dir / name
            if path.is_file():
                digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
                if round_index > 0:
                    path.unlink()
            else:
                problems.append(f"{name} missing")
        if round_index == 0:
            self.baseline[inv.name] = None if problems else digests
        elif self.baseline[inv.name] is None:
            problems.append("no valid round-0 output to compare with")
        elif digests != self.baseline[inv.name]:
            problems.append("output differs byte-wise from round 0")
        if problems:
            self.failed += 1
            self.errors.append(f"{inv.name} (round {round_index}): {'; '.join(problems)}")
        else:
            self.ok_attempts[inv.name] = self.ok_attempts.get(inv.name, 0) + 1

    def check_contents(self, invocations, round_dir: Path):
        """Check round-0 tables; a failing table fails every attempt that repeated it."""
        checker = Checker()
        for inv in invocations:
            if self.baseline.get(inv.name) is None:
                continue
            try:
                inv.rows = sum(count_rows(round_dir / name) for name in inv.outputs)
                for name, specs in inv.outputs.items():
                    checker.run(round_dir / name, specs, round_dir, REFERENCE)
            except (CheckError, KeyError, ValueError, OSError) as exc:
                self.failed += self.ok_attempts.get(inv.name, 0)
                self.errors.append(f"{inv.name}: {type(exc).__name__}: {exc}")
        return checker.max_rel_err


def child_env() -> dict:
    env = dict(os.environ, **BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv, env, cwd: Path, log, deadline: float | None = None):
    """Spawn one CLI invocation and wait for it; returns (wall s, peak RSS MiB, exit code).

    A child still running at ``deadline`` (a perf_counter value) is killed.
    """
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "oemsim.cli", *argv], cwd=cwd, env=env,
                            stdout=subprocess.DEVNULL, stderr=log)
    killer = threading.Timer(max(1.0, deadline - start), proc.kill) if deadline else None
    if killer:
        killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        if killer:
            killer.cancel()
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def check_import_source(env, cwd: Path) -> None:
    """Fail unless children import oemsim from this checkout's ``src/``."""
    probe = subprocess.run(
        [sys.executable, "-c", "import oemsim.cli; print(oemsim.cli.__file__)"],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=60, check=True)
    if Path(probe.stdout.strip()).resolve() != (SRC / "oemsim" / "cli.py").resolve():
        raise RuntimeError(f"oemsim.cli imported from {probe.stdout.strip()}, not {SRC}")


def time_import(env, cwd: Path) -> float:
    """Wall time of a fresh interpreter running ``import oemsim.cli``."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import oemsim.cli"], env=env, cwd=cwd,
                   timeout=60, check=True)
    return perf_counter() - start


def measure_imports(env, cwd: Path) -> dict:
    """Median self import time per top-level package, from ``-X importtime``."""
    samples: dict[str, list[float]] = {"numpy": [], "scipy": [], "oemsim": []}
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import oemsim.cli"],
                              env=env, cwd=cwd, capture_output=True, text=True, timeout=60,
                              check=True)
        totals = dict.fromkeys(samples, 0.0)
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            package = fields[2].strip().split(".")[0]
            if package in totals:
                totals[package] += int(fields[0]) / 1000.0
        for package, ms in totals.items():
            samples[package].append(ms)
    return {f"import.{p}_ms": (statistics.median(v), "ms") for p, v in samples.items()}


def reference_task(cwd: Path) -> float:
    """Wall time of a fresh interpreter running ``REFERENCE_CODE``.

    It does not touch oemsim, so a change to the program cannot change it; it
    slows down and speeds up with the machine, which is what it is timed for.
    """
    start = perf_counter()
    subprocess.run([sys.executable, "-c", REFERENCE_CODE], cwd=cwd, timeout=60, check=True,
                   stdout=subprocess.DEVNULL)
    return perf_counter() - start


def tail(walls: list[float]):
    """Highest percentile with at least ten samples above it: (value, percentile, n)."""
    ordered = sorted(walls)
    n = len(ordered)
    index = max(0, n - 11)
    return ordered[index], 100.0 * (index + 1) / n, n


def timed_run(invocations, work: Path, seconds: float, started: float):
    env = child_env()
    check_import_source(env, work)
    reference_task(work)  # warm-up
    # Set-up samples are spread over the run, so that one slow stretch of the
    # machine does not decide them.
    setup = [time_import(env, work)]
    # refs[i] is timed just before invocation i and refs[i + 1] just after it
    refs = [reference_task(work)]
    outputs = Outputs()
    walls, peak_rss, done = [], 0.0, []
    loop_start = perf_counter()
    with open(work / "stderr.log", "wb") as log:
        while True:
            rounds, k = divmod(len(done), len(invocations))
            inv = invocations[k]
            round_dir = work / f"round{rounds}"
            round_dir.mkdir(exist_ok=True)
            wall, rss, code = run_child(inv.argv(round_dir), env, work, log,
                                        started + BUDGET_S)
            walls.append(wall)
            peak_rss = max(peak_rss, rss)
            done.append(inv)
            outputs.record(inv, rounds, round_dir, code)
            if len(done) % SETUP_EVERY == 0:
                setup.append(time_import(env, work))
            refs.append(reference_task(work))
            # Stop between any two invocations, so the sample count does not
            # jump by a whole round with the machine's speed; every output is
            # still produced at least twice.
            now = perf_counter()
            if now + 2 * wall - started > BUDGET_S:
                break
            if len(done) >= 2 * len(invocations) and now - loop_start >= seconds:
                break
    rounds = len(done) / len(invocations)
    max_rel_err = outputs.check_contents(invocations, work / "round0")
    # The machine's speed changes over seconds, so each invocation is divided
    # by the reference samples on either side of it.
    rel = [wall / (0.5 * (before + after)) for wall, before, after in zip(walls, refs, refs[1:])]
    by_name: dict[str, list[tuple[float, float]]] = {}
    for inv, wall, r in zip(done, walls, rel):
        by_name.setdefault(inv.name, []).append((wall, r))
    # Rows per time of one whole round, from each invocation's median, so
    # that where the run stopped inside a round does not matter.
    round_rows = sum(inv.rows for inv in invocations if inv.name in by_name)
    round_s = sum(statistics.median(w for w, _ in v) for v in by_name.values())
    round_ref = sum(statistics.median(r for _, r in v) for v in by_name.values())
    tail_s, tail_pct, n = tail(walls)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "run_p50_ref": (statistics.median(rel), "ref"),
        "rows_per_ref": (round_rows / round_ref, "rows/ref"),
        "peak_rss_mb": (peak_rss, "MiB"),
    }
    notes = [f"{name}: median {statistics.median(w for w, _ in v):.3f} s, "
             f"{statistics.median(r for _, r in v):.3f} ref" for name, v in by_name.items()]
    notes += [
        f"{rounds:.2f} rounds, {n} invocations, {round_rows} table rows a round, "
        f"{len(setup)} set-up samples",
        f"reference task: median {statistics.median(refs):.4f} s of {len(refs)} samples",
        f"raw wall time: run_s_p50 {statistics.median(walls):.4f} s, run_s_tail {tail_s:.4f} s "
        f"(p{tail_pct:.0f} of n={n}), rows_per_s {round_rows / round_s:.6g} rows/s",
        f"error_rate {outputs.failed / outputs.attempted:g} fraction "
        f"({outputs.failed} of {outputs.attempted}); check.max_rel_err {max_rel_err:.3g}",
    ]
    return outputs, metrics, notes


def call_main(argv) -> int:
    """One in-process CLI invocation, its printed output discarded."""
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        try:
            return sys.modules["oemsim.cli"].main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2


def traced_run(invocations, work: Path, seconds: float, started: float, workload: str):
    import oemsim.cli  # noqa: F401  (loads every layer before wrapping)

    metrics = measure_imports(child_env(), work)
    tracer = Tracer()
    outputs = Outputs()
    wall = {False: 0.0, True: 0.0}

    def run_round(index: int, traced: bool) -> None:
        round_dir = work / f"round{index}"
        round_dir.mkdir()
        patches = []
        if traced:
            patches, missing = install(tracer)
            for name in missing:
                print(f"warning: {name} not found; its layer metrics read 0", file=sys.stderr)
        try:
            for i, inv in enumerate(invocations):
                start = perf_counter()
                if traced:
                    with tracer.invocation(index * len(invocations) + i):
                        code = call_main(inv.argv(round_dir))
                else:
                    code = call_main(inv.argv(round_dir))
                wall[traced] += perf_counter() - start
                outputs.record(inv, index, round_dir, code)
        finally:
            restore(patches)

    # round 0 warms the process up and provides the outputs later rounds must repeat
    run_round(0, traced=False)
    wall[False] = 0.0
    loop_start = perf_counter()
    pairs = 0
    while True:
        pair_start = perf_counter()
        # traced, then untraced on the same inputs, to measure tracing overhead
        run_round(2 * pairs + 1, traced=True)
        run_round(2 * pairs + 2, traced=False)
        pairs += 1
        now = perf_counter()
        next_end = now + (now - pair_start)
        if (pairs == MAX_TRACED_PAIRS or next_end - loop_start > seconds
                or next_end - started > BUDGET_S):
            break
    max_rel_err = outputs.check_contents(invocations, work / "round0")
    tracer.write(TRACE_OUT / f"spans_{workload}.csv")
    rows = sum(inv.rows for inv in invocations)
    metrics.update(layer_metrics(tracer.spans, pairs, len(invocations), rows))
    metrics["trace.overhead_s"] = ((wall[True] - wall[False]) / pairs, "s")
    metrics["check.max_rel_err"] = (max_rel_err, "fraction")
    metrics["check.error_rate"] = (outputs.failed / outputs.attempted, "fraction")
    notes = [f"1 warm-up, {pairs} traced and {pairs} untraced in-process rounds; "
             f"{len(tracer.spans)} spans written to {TRACE_OUT.name}/spans_{workload}.csv"]
    return outputs, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = perf_counter()
    if not (SRC / "oemsim" / "cli.py").is_file():
        print(f"error: no oemsim package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.GENERATORS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.GENERATORS)}", file=sys.stderr)
        return 2

    print(f"# python {platform.python_version()}, numpy {np.__version__}, "
          f"scipy {importlib.metadata.version('scipy')}, nproc {len(os.sched_getaffinity(0))}, "
          f"BLAS threads pinned to 1 ({', '.join(BLAS_THREADS)})")
    print(f"# workload {args.workload} (seed {args.seed}): {workloads.WHY[args.workload]}")
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        invocations = workloads.build(args.workload, args.seed, work / "scenarios")
        if args.trace:
            outputs, metrics, notes = traced_run(invocations, work, args.seconds, started,
                                                 args.workload)
        else:
            outputs, metrics, notes = timed_run(invocations, work, args.seconds, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with suppress(OSError):  # left in place while another run uses it
            WORK.rmdir()

    for note in notes:
        print(f"# {note}")
    for error in outputs.errors:
        print(f"# FAILED {error}")
    for name, (value, unit) in metrics.items():
        print(f"{name:52s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": outputs.failed == 0,
        "attempted": outputs.attempted,
        "failed": outputs.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
