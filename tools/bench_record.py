"""Record one BENCH_<pr>.json: every benchmark workload and the wall time of every recipe.

Run from the repository root:

    python3 tools/bench_record.py --pr 39

For each workload of BENCHMARK.json, at seeds 0 and 1 and at --trace 0 and
--trace 1, it runs benchmarks/run.py for the file's run_seconds and keeps the
run's environment line and its last JSON line.  Then it times each gpdiag
recipe at 601 samples with --jobs 1 and with --jobs nproc, each in a fresh
process with one BLAS thread, between the probe bursts of
benchmarks/probe.bracketed, and keeps the wall time and the speed factor
around it.  Every command goes through one runner, run(argv, env) -> (stdout,
wall seconds, speed factor), which a test replaces so that nothing is timed.
Exits 1 when a benchmark run reports `correct` other than true.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import probe  # noqa: E402
from gpdiag.recipes import RECIPE_IDS  # noqa: E402
from run import BLAS_THREAD_VARS  # noqa: E402

SEEDS = (0, 1)
TRACES = (0, 1)
RECIPE_SAMPLES = 601


def run_bracketed(argv, env):
    """Run argv from the repository root between two probe bursts; its stderr passes through."""
    done = []
    wall, factor = probe.bracketed(lambda: done.append(
        subprocess.run(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)))
    return done[0].stdout, wall, factor


def versions() -> dict:
    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        openblas = "unknown"
    # with bytecode writing off, every set-up process of the benchmark compiles gpdiag from source, so two
    # records' setup_s compare only at the same flag
    return {"python": platform.python_version(), "numpy": np.__version__, "openblas": openblas,
            "dont_write_bytecode": bool(sys.flags.dont_write_bytecode)}


def build_record(pr: int, run=run_bracketed) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    env = {**os.environ, **dict.fromkeys(BLAS_THREAD_VARS, "1"), "PYTHONPATH": str(ROOT / "src")}
    if sys.flags.dont_write_bytecode:
        env["PYTHONDONTWRITEBYTECODE"] = "1"  # the flag itself is not inherited
    benchmark = []
    for workload in (w["name"] for w in bench["workloads"]):
        for seed in SEEDS:
            for trace in TRACES:
                argv = [sys.executable, *bench["command"][1:], "--workload", workload, "--seed", str(seed),
                        "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
                lines = run(argv, env)[0].splitlines()
                environment = next(line for line in lines if line.startswith("environment: "))
                benchmark.append({"workload": workload, "seed": seed, "trace": trace,
                                  "environment": json.loads(environment.removeprefix("environment: ")),
                                  "result": json.loads(lines[-1])})
    recipes = []
    with tempfile.TemporaryDirectory() as out:
        for recipe_id in RECIPE_IDS:
            for jobs in dict.fromkeys((1, nproc)):
                argv = [sys.executable, "-m", "gpdiag.cli", "recipe", recipe_id, "--samples", str(RECIPE_SAMPLES),
                        "--jobs", str(jobs), "--out", out]
                _, wall, factor = run(argv, env)
                recipes.append({"id": recipe_id, "samples": RECIPE_SAMPLES, "jobs": jobs, "wall_s": wall,
                                "factor": factor})
    return {"pr": pr, "versions": versions(), "nproc": nproc, "run_seconds": bench["run_seconds"],
            "benchmark": benchmark, "recipes": recipes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="record the benchmark and the recipe times as BENCH_<pr>.json")
    parser.add_argument("--pr", type=int, required=True, help="the number in the file name")
    args = parser.parse_args(argv)
    record = build_record(args.pr)
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(path)
    return 0 if all(run["result"].get("correct") is True for run in record["benchmark"]) else 1


if __name__ == "__main__":
    sys.exit(main())
