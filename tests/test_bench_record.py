import importlib.util
import json
import sys
from pathlib import Path

from gpdiag.recipes import RECIPE_IDS

ROOT = Path(__file__).resolve().parent.parent


def load_recorder():
    spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_record_from_a_stub_runner_holds_every_run_and_recipe(monkeypatch):
    monkeypatch.setattr(sys, "path", [*sys.path])  # the recorder puts src/ and benchmarks/ first
    recorder = load_recorder()
    monkeypatch.setattr(recorder.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    calls = []

    def stub(argv, env):
        # the runner is the one place that starts or times a process, so this test times nothing
        calls.append((argv, env))
        if "benchmarks/run.py" in argv:
            seed = argv[argv.index("--seed") + 1]
            return (f'environment: {{"seed": {seed}}}\ncalls: 1\n'
                    '{"correct": true, "attempted": 1, "failed": 0, "metrics": {}}\n'), 40.0, 1.0
        return "out/fig2.csv\n", 2.5, 1.25

    record = recorder.build_record(39, run=stub)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(record) == {"pr", "versions", "nproc", "run_seconds", "benchmark", "recipes"}
    assert (record["pr"], record["nproc"], record["run_seconds"]) == (39, 3, bench["run_seconds"])
    assert set(record["versions"]) == {"python", "numpy", "openblas", "dont_write_bytecode"}
    assert [(r["workload"], r["seed"], r["trace"]) for r in record["benchmark"]] == [
        (w["name"], seed, trace) for w in bench["workloads"] for seed in (0, 1) for trace in (0, 1)]
    for run in record["benchmark"]:
        assert set(run) == {"workload", "seed", "trace", "environment", "result"}
        assert run["environment"] == {"seed": run["seed"]}
        assert run["result"]["correct"] is True
    assert [(r["id"], r["jobs"]) for r in record["recipes"]] == [(i, jobs) for i in RECIPE_IDS for jobs in (1, 3)]
    assert all(r == {"id": r["id"], "samples": 601, "jobs": r["jobs"], "wall_s": 2.5, "factor": 1.25}
               for r in record["recipes"])
    for argv, env in calls:
        assert argv[0] == sys.executable
        assert all(env[var] == "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"))
        if "benchmarks/run.py" in argv:
            assert argv[argv.index("--seconds") + 1] == str(bench["run_seconds"])
        else:
            assert argv[argv.index("--samples") + 1] == "601"
