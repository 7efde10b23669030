"""Measurement loop of the gpdiag benchmark; imported by run.py after bootstrap().

--trace 0 measures the end-to-end metrics with no tracing: repeated calls of
the workload for --seconds seconds, then the set-up time of fresh interpreters
(started last, so that peak memory is read while the only child processes are
the workload's own).
--trace 1 makes untraced calls for half the budget, then one call at jobs=1
with every listed layer function wrapped in a span, and reports per-layer
metrics.  Every call's CSVs go through the correctness gate (gate.py).  All
metrics are printed with their units; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}.  A full record
(environment, per-call raw timings and speed factors, exact-repeat counts) is
written to .bench_out/ in the repository root, and in trace mode the spans.

Times are reported at the reference machine speed of probe.py: each raw time
is divided by the speed factor measured while it ran.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gate
import gpdiag
import probe
import spans
from gpdiag.cascade import lindblad_rhs
from run import BLAS_THREAD_VARS, ROOT, SRC
from workloads import VARIANTS, WORKLOADS, variant_for

OUT = ROOT / ".bench_out"
REFERENCE = Path(__file__).resolve().parent / "reference"
SETUP_REPEATS = 9
MIN_CALLS = 3

# the layer functions timed by the traced run, as "module.function"
TRACED = (
    "cascade.liouvillian", "cascade.steady_state",
    "linops.null_space_unit_trace", "linops.hermitian_eig",
    "photons.atomic_to_photon", "photons.embed_two_qubit", "photons.concurrence", "photons.purity",
    "gp.sample_path", "gp.track_spectrum", "gp.gp_curve_from_states", "gp.gp_derivative",
    "sweep.run_sweep", "sweep.write_csv",
    "recipes.run_recipe",
)
# one span per sweep column, used to time the serial work the process pool splits
COLUMN_PROBE = "sweep._column_outputs"
PROBE_SPAN = "probe"

SETUP_SNIPPET = (
    "import gpdiag.cli\n"
    "from gpdiag.cascade import SystemParams, steady_state\n"
    "steady_state(SystemParams(6.0, 6.0))\n"
)


def cpu_seconds() -> float:
    """CPU time of this process and of its waited-for children (pool workers included)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest of its waited-for children (Linux reports KiB).

    Read before any set-up process is started, so the only children are the
    workload's pool workers.  getrusage gives no sum over children, and a
    forked worker's figure includes the pages it shares with its parent.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def measure_setup(repeats: int) -> list:
    """(raw wall seconds, speed factor) from interpreter start to one warm steady_state, per fresh process."""
    cmd = [sys.executable, "-c", SETUP_SNIPPET]
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def spawn():
        # no timeout: with one, Popen.wait polls in sleeps of up to 50 ms, which quantizes the time
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)

    subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=120)  # byte-compiles once
    allowed = os.sched_getaffinity(0)
    # the CPUs of a shared host differ in speed, so probes and child share one
    os.sched_setaffinity(0, {min(allowed)})
    try:
        return [probe.bracketed(spawn) for _ in range(repeats)]
    finally:
        os.sched_setaffinity(0, allowed)


@dataclass
class Call:
    """Raw wall and CPU seconds of one call, the probes' share of them and the speed factor."""

    jobs: int
    wall: float | None = None
    cpu: float | None = None
    probe_s: float = 0.0
    factor: float = 1.0
    csv_bytes: int = 0
    gate: gate.GateResult | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.gate.ok

    @property
    def norm_wall(self) -> float:
        # probes ran in parallel across the workers, so they lengthened the wall by about 1/jobs of their time
        return (self.wall - self.probe_s / self.jobs) / self.factor

    @property
    def norm_cpu(self) -> float:
        return (self.cpu - self.probe_s) / self.factor


class Runner:
    """Calls one workload on one input variant and gates every call."""

    def __init__(self, workload, gammas, ref_dir: Path, work_dir: Path):
        self.workload, self.gammas = workload, gammas
        self.ref_dir, self.work_dir = ref_dir, work_dir
        self.calls = []

    def call(self, jobs: int) -> Call:
        """One timed call under the interval speed probe, then the gate."""
        shutil.rmtree(self.work_dir, ignore_errors=True)
        self.work_dir.mkdir(parents=True)
        record = Call(jobs)
        speed = probe.SpeedProbe()
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        try:
            with speed:
                self.workload.run(self.work_dir, *self.gammas, jobs)
        except Exception:  # counted as a failed call; the run goes on
            record.error = traceback.format_exc()
            print(f"call failed:\n{record.error}", file=sys.stderr)
        else:
            record.wall = time.perf_counter() - start
            record.cpu = cpu_seconds() - cpu0
            record.probe_s, record.factor = speed.probe_seconds, speed.factor()
            record.csv_bytes = sum(p.stat().st_size for p in self.work_dir.glob("*.csv"))
            record.gate = gate.check_outputs(self.work_dir, self.ref_dir)
            if not record.gate.ok:
                print(f"gate: {len(record.gate.problems)} problems, first: {record.gate.problems[:3]}",
                      file=sys.stderr)
        self.calls.append(record)
        return record

    def calls_for(self, budget_s: float, jobs: int, min_calls: int) -> list:
        """Untraced calls until the next one would end past the budget."""
        start = time.perf_counter()
        made = []
        while True:
            made.append(self.call(jobs))
            walls = [c.wall for c in made if c.wall is not None]
            expected = statistics.median(walls) if walls else 0.0
            if len(made) >= min_calls and time.perf_counter() - start + expected > budget_s:
                return made


def end_to_end(points: int, untraced: list, setup: list, rss_mb: float) -> dict:
    good = [c for c in untraced if c.ok]
    if not good:
        raise RuntimeError("no call of the workload passed")
    return {
        "setup_s": (statistics.median(wall / factor for wall, factor in setup), "s"),
        "points_per_s": (statistics.median(points / c.norm_wall for c in good), "points/s"),
        "cpu_us_per_point": (statistics.median(c.norm_cpu for c in good) / points * 1e6, "us"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


@contextlib.contextmanager
def probes_as_spans(recorder: spans.Recorder):
    """Record each interval probe as a span, so that its time is no layer's self time."""
    original = probe.probe_once
    probe.probe_once = recorder.wrap(PROBE_SPAN, original)
    try:
        yield
    finally:
        probe.probe_once = original


def checked(call: Call) -> Call:
    if not call.ok:
        raise RuntimeError("a call made for the per-layer metrics failed; see above")
    return call


def per_layer(runner: Runner, untraced: list, jobs: int) -> tuple:
    """One traced call at jobs=1; returns its per-layer metrics and the recorder holding its spans."""
    points = runner.workload.points
    good = [c for c in untraced if c.ok]
    serial_wall = statistics.median(c.norm_wall for c in good)
    overhead_s = 0.0
    if jobs > 1:
        columns = spans.Recorder()
        with columns.installed({COLUMN_PROBE: None}, count_lapack=False), probes_as_spans(columns):
            serial = checked(runner.call(jobs=1))
        column_s = spans.self_times(columns.spans)[COLUMN_PROBE][1] / 1e9 / serial.factor
        overhead_s = statistics.median(c.norm_wall for c in good) - column_s / jobs
        serial_wall = serial.norm_wall

    recorder = spans.Recorder()
    states, trajectories = [], []
    hooks = dict.fromkeys(TRACED)
    hooks["cascade.steady_state"] = lambda args, rho: states.append((args[0], rho))
    hooks["gp.track_spectrum"] = lambda args, traj: trajectories.append(traj)
    recorder.request = len(runner.calls)  # the traced call's index in the run record
    with recorder.installed(hooks), probes_as_spans(recorder):
        record = checked(runner.call(jobs=1))

    totals = spans.self_times(recorder.spans)
    steady_calls = totals.get("cascade.steady_state", (0, 0))[0]
    if steady_calls != points:
        raise RuntimeError(f"traced cascade.steady_state.calls = {steady_calls}, expected {points}: "
                           "a binding of a traced function was missed")
    metrics = {}
    for name in TRACED:
        calls, ns = totals.get(name, (0, 0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (ns / 1e9 / record.factor, "s")
    for kind in spans.LAPACK:
        for what in ("calls", "matrices"):
            metrics[f"linops.lapack.{kind}_{what}"] = (recorder.lapack[f"{kind}_{what}"], "count")
    residual = max(float(np.linalg.norm(lindblad_rhs(p, rho))) for p, rho in states)
    metrics.update({
        "executor.overhead_s": (overhead_s, "s"),
        "sweep.write_csv.bytes": (record.csv_bytes, "bytes"),
        "gp.track_spectrum.warnings": (sum(t.resolution_warning for t in trajectories), "count"),
        # 1.0 when the workload tracks no path
        "gp.track_spectrum.min_overlap": (min((t.min_overlap for t in trajectories), default=1.0), "ratio"),
        "cascade.steady_state.max_residual": (residual, "norm"),
        "trace.overhead_ratio": (record.norm_wall / serial_wall, "ratio"),
    })
    return metrics, recorder


def gate_metrics(calls: list) -> dict:
    gated = [c.gate for c in calls if c.gate is not None]
    return {
        "failed_ratio": (sum(not c.ok for c in calls) / len(calls), "ratio"),
        # the gate requires the same empty fields as the reference, so this repeats exactly
        "undefined_points": (gated[0].undefined_fields if gated else 0, "count"),
        "ref_max_abs_err": (max((g.max_abs_err for g in gated), default=0.0), "abs"),
    }


def environment(seed: int, variant: int, jobs: int) -> dict:
    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "jobs": jobs,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": openblas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "seed": seed,
        "variant": variant,
        "gamma2": VARIANTS[variant][0],
        "gamma3": VARIANTS[variant][1],
        "machine": platform.machine(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description="gpdiag benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if Path(gpdiag.__file__).resolve().parent != SRC / "gpdiag":
        sys.exit(f"benchmark: imported gpdiag from {gpdiag.__file__}, not from {SRC}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload]
    variant = variant_for(args.seed)
    ref_dir = REFERENCE / args.workload / f"variant{variant}"
    jobs = workload.jobs(len(os.sched_getaffinity(0)))
    env = environment(args.seed, variant, jobs)
    work_dir = OUT / f"work-{os.getpid()}"
    runner = Runner(workload, VARIANTS[variant], ref_dir, work_dir)
    try:
        workload.run(work_dir, *VARIANTS[variant], jobs, full=False)  # warm-up, untimed and ungated
        budget = args.seconds / 2 if args.trace else args.seconds
        untraced = runner.calls_for(budget, jobs, 1 if args.trace else MIN_CALLS)
        rss_mb = peak_rss_mb()  # before the set-up processes, which would count as children
        setup = measure_setup(SETUP_REPEATS)
        metrics = end_to_end(workload.points, untraced, setup, rss_mb)
        if args.trace:
            layer, recorder = per_layer(runner, untraced, jobs)
            metrics.update(layer)
        metrics.update(gate_metrics(runner.calls))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        recorder.write(OUT / f"{stem}-spans.csv")
    record = {
        "workload": args.workload,
        "points": workload.points,
        "environment": env,
        "setup": [{"wall_s": wall, "factor": factor} for wall, factor in setup],
        "calls": [{"jobs": c.jobs, "wall_s": c.wall, "cpu_s": c.cpu, "probe_s": c.probe_s,
                   "factor": c.factor, "ok": c.ok} for c in runner.calls],
        "counts": {name: value for name, (value, unit) in metrics.items() if unit in ("count", "bytes")},
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"calls: {len(runner.calls)} ({len(untraced)} untraced at jobs={jobs}), "
          f"setup runs: {len(setup)}, reference: {ref_dir.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")

    failed = sum(not c.ok for c in runner.calls)
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runner.calls),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": metrics[m["name"]][1]}
                    for m in wanted},
    }))
    return 0
