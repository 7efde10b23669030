import errno
import math
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import gpdiag.sweep
from gpdiag.cascade import DEFAULT_GAMMA2, DEFAULT_GAMMA3_REAL, SystemParams, steady_state
from gpdiag.gp import PathSpec, gp_curve_from_states, gp_derivative, sample_path
from gpdiag.linops import NoSteadyStateError
from gpdiag.photons import atomic_to_photon
from gpdiag.recipes import run_recipe
from gpdiag.sweep import (
    ConfigError, SweepSpec, map_columns, parse_config, path_columns, photon_states, run_sweep, write_csv,
)

MINIMAL = """\
[sweep]
scheme = I
outputs = purity

[axis1]
parameter = delta1
start = -1
stop = 1
samples = 5
"""


def spec_2d(outputs="purity", samples=3):
    return parse_config(f"""\
[sweep]
scheme = I
outputs = {outputs}
path = grid.csv

[axis1]
parameter = delta1
start = -1
stop = 1
samples = {samples}

[axis2]
parameter = omega1
start = 2
stop = 6
samples = 2
""")


class TestParseConfig:
    def test_defaults_scheme_i(self):
        spec = parse_config(MINIMAL)
        assert spec.axis1.base.gamma2 == 6.0
        assert spec.axis1.base.gamma3 == 1.0
        assert spec.axis1.base.omega1 == 6.0
        assert spec.path == "sweep.csv"

    def test_defaults_scheme_ii(self):
        spec = parse_config(MINIMAL.replace("scheme = I", "scheme = II"))
        assert spec.axis1.base.gamma3 == 0.0

    def test_overrides(self):
        spec = parse_config(MINIMAL.replace("[sweep]", "[sweep]\nomega1 = 3.5\ngamma3 = 0.2"))
        assert spec.axis1.base.omega1 == 3.5
        assert spec.axis1.base.gamma3 == 0.2

    def test_out_of_range_value(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL.replace("[sweep]", "[sweep]\ngamma3 = -1"))

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(MINIMAL.replace("[sweep]", "[sweep]\ngamma4 = 1"))

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(MINIMAL + "\n[extra]\nfoo = 1\n")

    def test_syntax_error_carries_line_number(self):
        bad = MINIMAL.replace("start = -1", "start -1")
        with pytest.raises(ConfigError, match="line"):
            parse_config(bad)

    def test_missing_axis(self):
        with pytest.raises(ConfigError, match="axis1"):
            parse_config("[sweep]\nscheme = I\n")

    def test_bad_axis_parameter(self):
        with pytest.raises(ConfigError, match="axis parameter"):
            parse_config(MINIMAL.replace("parameter = delta1", "parameter = banana"))

    def test_bad_samples(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL.replace("samples = 5", "samples = 1"))

    def test_bad_range(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL.replace("stop = 1", "stop = -2"))

    def test_unknown_output(self):
        with pytest.raises(ConfigError, match="unknown output"):
            parse_config(MINIMAL.replace("outputs = purity", "outputs = entropy"))

    def test_duplicate_axis_parameter(self):
        base = spec_2d().axis1.base
        with pytest.raises(ConfigError, match="different parameters"):
            SweepSpec(PathSpec(base, "delta1", -1, 1, 3), PathSpec(base, "delta1", 2, 6, 2), ("purity",), "x.csv")

    @pytest.mark.parametrize("text, message", [
        (MINIMAL.replace("[sweep]", "[sweep]\nomega1 = six"), "is not a number"),
        (MINIMAL.replace("[sweep]", "[sweep]\nomega1 = inf"), "must be finite"),
        ("omega1 = 6\n" + MINIMAL, "content before any section header"),
        (MINIMAL[MINIMAL.index("[axis1]"):], "missing \\[sweep\\] section"),
        (MINIMAL.replace("scheme = I", "scheme = III"), "unknown scheme 'III'"),
        (MINIMAL.replace("stop = 1\n", ""), "missing key 'stop'"),
        (MINIMAL.replace("samples = 5", "samples = 2.5"), "samples must be an integer"),
        (MINIMAL.replace("outputs = purity", "outputs ="), "at least one output"),
        (MINIMAL.replace("parameter = delta1", "parameter = omega1"),
         "^\\[axis1\\]: omega1 must be >= 0, got -1.0$"),
        (MINIMAL.replace("start = -1", "start = -1e308").replace("stop = 1\n", "stop = 1e308\n"),
         "axis span stop - start must be finite"),
        (MINIMAL.replace("[sweep]", "[sweep]\ndelta2 = 1e308").replace("stop = 1\n", "stop = 1e308\n"),
         "^\\[axis1\\]: delta1 \\+ delta2 must be finite, got 1e\\+308 \\+ 1e\\+308$"),
        # each axis is valid from the base point; only the corner where both reach 1e308 is not
        (MINIMAL.replace("stop = 1\n", "stop = 1e308\n") + "\n[axis2]\nparameter = delta2\nstart = 0\nstop = 1e308\n"
         "samples = 2\n",
         "^grid corner delta1 = 1e\\+308: delta1 \\+ delta2 must be finite, got 1e\\+308 \\+ 1e\\+308$"),
        (MINIMAL.replace("outputs = purity", "outputs = purity, purity, concurrence"), "duplicate output 'purity'"),
        (MINIMAL.replace("[sweep]", "[sweep]\npath = /abs/escaped.csv"), "plain file name, got '/abs/escaped.csv'"),
        (MINIMAL.replace("[sweep]", "[sweep]\npath = sub/out.csv"), "plain file name, got 'sub/out.csv'"),
        (MINIMAL.replace("[sweep]", "[sweep]\npath = ../out.csv"), "plain file name, got '../out.csv'"),
        (MINIMAL.replace("[sweep]", "[sweep]\npath ="), "plain file name, got ''"),
        (MINIMAL.replace("[sweep]", "[sweep]\npath = .."), "plain file name, got '..'"),
        (MINIMAL.replace("[sweep]", "[sweep]\npath = a\0b.csv"), "plain file name, got 'a\\\\x00b.csv'"),
        (MINIMAL.replace("[sweep]", "[sweep]\ndelta1 = 2"), "key 'delta1' sets the parameter that \\[axis1\\] sweeps"),
        (MINIMAL.replace("[sweep]", "[sweep]\npath = " + "x" * 252 + ".csv"),
         "^path must be at most 255 bytes, got 256$"),
        # the limit counts the bytes of the encoded name: 130 characters here
        (MINIMAL.replace("[sweep]", "[sweep]\npath = " + "\u00e9" * 126 + ".csv"), "at most 255 bytes, got 256$"),
    ], ids=["non_numeric", "non_finite", "no_header", "no_sweep", "unknown_scheme",
            "missing_axis_key", "non_integer_samples", "empty_outputs",
            "negative_drive_axis", "infinite_axis_span", "detuning_sum_overflow", "joint_grid_corner",
            "duplicate_output", "absolute_path", "path_in_subdirectory", "path_in_parent", "empty_path",
            "parent_directory_path", "nul_in_path", "swept_key", "path_over_name_max",
            "multibyte_path_over_name_max"])
    def test_rejected_config(self, text, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(text)

    def test_path_at_name_max(self):
        name = "x" * 251 + ".csv"
        assert parse_config(MINIMAL.replace("[sweep]", f"[sweep]\npath = {name}")).path == name


@pytest.mark.parametrize("parameter, start, stop, samples", [
    ("banana", -1.0, 1.0, 5), ("delta1", 1.0, 1.0, 5), ("delta1", -1e308, 1e308, 5), ("delta1", -1.0, 1.0, 1),
    ("delta1", 0.0, 5e-324, 3), ("delta1", 1.0, 1.0000000000000002, 3), ("omega1", -1.0, 1.0, 5),
], ids=["unknown_parameter", "empty_range", "infinite_span", "one_sample", "subnormal_span", "one_ulp_span",
        "negative_drive_end"])
def test_path_and_config_share_the_axis_check(parameter, start, stop, samples):
    with pytest.raises(ValueError) as path_err:
        PathSpec(SystemParams(6.0, 6.0), parameter, start, stop, samples)
    axis = f"[axis1]\nparameter = {parameter}\nstart = {start!r}\nstop = {stop!r}\nsamples = {samples}\n"
    with pytest.raises(ConfigError) as config_err:
        parse_config(MINIMAL[:MINIMAL.index("[axis1]")] + axis)
    assert str(config_err.value) == f"[axis1]: {path_err.value}"


def test_total_failure_creates_no_directory(tmp_path):
    from gpdiag.recipes import run_recipe

    # with no decay the steady state is degenerate at every point
    with pytest.raises(NoSteadyStateError):
        run_recipe("fig2", tmp_path / "new", samples=3, gamma2=0.0, gamma3=0.0)
    with pytest.raises(NoSteadyStateError):
        run_sweep(parse_config(MINIMAL.replace("scheme = I", "scheme = II\ngamma2 = 0")), tmp_path / "sweep")
    assert list(tmp_path.iterdir()) == []


# (out_dir below tmp_path, jobs, error class, errno or message): the kernel's own refusals are raised as they are,
# where a check by os.path.exists would read the path as missing and fail only when the directory is made, after
# the run; a worker count that is not an integer used to fail in range() after fig4's base states, or run serially
UNUSABLE_RUNS = {
    "symlink_loop": ("loop/x", 1, OSError, errno.ELOOP),
    "over_path_max": ("a/" * 2100, 1, OSError, errno.ENAMETOOLONG),
    "below_file": ("blocked/x", 1, OSError, None),
    "jobs_0": ("out", 0, ConfigError, "jobs must be >= 1, got 0"),
    "jobs_-1": ("out", -1, ConfigError, "jobs must be >= 1, got -1"),
    "jobs_2.5": ("out", 2.5, ConfigError, "jobs must be an integer, got 2.5"),
    "jobs_1.5": ("out", 1.5, ConfigError, "jobs must be an integer, got 1.5"),
}


@pytest.mark.parametrize("entry", ["run_recipe", "run_sweep"])
@pytest.mark.parametrize("case", UNUSABLE_RUNS)
def test_unusable_run_fails_before_any_steady_state(entry, case, tmp_path, monkeypatch):
    import gpdiag.gp

    out, jobs, error, expected = UNUSABLE_RUNS[case]
    calls = []
    for module in (gpdiag.gp, gpdiag.sweep):
        monkeypatch.setattr(module, "steady_state", lambda p, real=module.steady_state: calls.append(p) or real(p))
    (tmp_path / "loop").symlink_to("loop")
    (tmp_path / "blocked").write_text("a file where the output directory should go")
    before = sorted(tmp_path.iterdir())
    with pytest.raises(error) as err:
        if entry == "run_recipe":
            run_recipe("fig4", tmp_path / out, samples=3, jobs=jobs)
        else:
            run_sweep(parse_config(MINIMAL), tmp_path / out, jobs=jobs)
    if error is ConfigError:
        assert str(err.value) == expected
    else:
        assert err.value.errno == expected
    assert calls == []
    assert sorted(tmp_path.iterdir()) == before


class TestRunSweep:
    def test_grid_shape(self, tmp_path):
        [path], undefined = run_sweep(spec_2d(), tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "delta1,omega1,purity"
        assert len(lines) == 1 + 3 * 2
        assert undefined == 0

    def test_row_order_axis1_major(self, tmp_path):
        [path], _ = run_sweep(spec_2d(), tmp_path)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        d1 = [float(r[0]) for r in rows]
        o1 = [float(r[1]) for r in rows]
        assert d1 == [-1.0, -1.0, 0.0, 0.0, 1.0, 1.0]
        assert o1 == [2.0, 6.0, 2.0, 6.0, 2.0, 6.0]

    def test_determinism(self, tmp_path):
        spec = spec_2d(outputs="eigenvalues, purity, concurrence")
        [path1], _ = run_sweep(spec, tmp_path / "a")
        [path2], _ = run_sweep(spec, tmp_path / "b")
        assert path1.read_bytes() == path2.read_bytes()

    def test_jobs_do_not_change_bytes(self, tmp_path):
        spec = spec_2d(outputs="gamma_g, purity", samples=5)
        [path1], _ = run_sweep(spec, tmp_path / "a", jobs=1)
        [path2], _ = run_sweep(spec, tmp_path / "b", jobs=3)
        assert path1.read_bytes() == path2.read_bytes()

    def test_matches_fig5_recipe_column(self, tmp_path):
        from gpdiag.recipes import run_recipe

        spec = parse_config("""\
[sweep]
scheme = I
outputs = gamma_g
path = bell.csv

[axis1]
parameter = delta1
start = -3
stop = 3
samples = 61
""")
        [sweep_path], _ = run_sweep(spec, tmp_path)
        recipe = run_recipe("fig5", tmp_path, samples=61, jobs=1)
        fig5a = next(p for p in recipe.files if p.name == "fig5_ab.csv")
        sweep_rows = [line.split(",") for line in sweep_path.read_text().splitlines()[1:]]
        fig5_rows = [line.split(",") for line in fig5a.read_text().splitlines()[1:]]
        for srow, frow in zip(sweep_rows, fig5_rows):
            assert abs(float(srow[1]) - float(frow[1])) <= 1e-12

    def test_engine_matches_sample_path(self):
        # the engine's sampler records gaps and gp.sample_path raises; on the
        # fig5 ab path both must give the same phases and slopes, bitwise
        spec = PathSpec(SystemParams(6.0, 6.0, 0.0, 0.0, DEFAULT_GAMMA2, DEFAULT_GAMMA3_REAL),
                        "delta1", -3.0, 3.0, 121)
        values = spec.values()
        gammas = gp_curve_from_states(sample_path(spec))
        expected = np.column_stack([gammas, gp_derivative(gammas, values[1] - values[0])])
        assert np.array_equal(gpdiag.sweep._column_outputs(spec, ("gamma_g", "dgamma")), expected)

    def test_all_gap_column_takes_the_common_path(self, tmp_path):
        # undriven mode 2 in scheme II has no unique steady state, so the omega2 = 0 column is all gaps; its
        # empty stack goes through every output, eigenvalues and dgamma included, as a column with states does
        spec = parse_config("""\
[sweep]
scheme = II
outputs = eigenvalues, purity, concurrence, gamma_g, dgamma
path = gaps.csv

[axis1]
parameter = omega1
start = 0
stop = 6
samples = 21

[axis2]
parameter = omega2
start = 0
stop = 1
samples = 3
""")
        [path], undefined = run_sweep(spec, tmp_path)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert len(rows) == 21 * 3
        assert undefined == 21
        for omega1, omega2, *fields in rows:
            assert len(fields) == 7
            assert all(f == "" for f in fields) == (omega2 == "0")
            assert all(f != "" for f in fields) == (omega2 != "0")

    def test_photon_states_keeps_the_solvable_points(self):
        solvable = [SystemParams(6.0, 6.0), SystemParams(3.0, 6.0, 1.0, -0.5), SystemParams(6.0, 3.0, gamma3=0.0)]
        degenerate = SystemParams(0.0, 0.0, gamma3=0.0)
        non_psd = SystemParams(3e8, 3e8, gamma3=0.0)
        for bad in (degenerate, non_psd):
            with pytest.raises(NoSteadyStateError):
                steady_state(bad)
        params = [degenerate, solvable[0], non_psd, solvable[1], degenerate, solvable[2], non_psd]
        states, defined = photon_states(params)
        assert defined == [1, 3, 5]
        assert states.shape == (3, 3, 3)
        for state, p in zip(states, solvable):
            assert np.array_equal(state, atomic_to_photon(steady_state(p)))
        states, defined = photon_states([degenerate, non_psd])
        assert defined == [] and states.shape == (0, 3, 3)

    def test_formatting(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["x", "a", "b"], [0.5], [None], np.array([[[np.nan, 1.0 / 3.0]]]))
        head, row = path.read_text(encoding="utf-8").splitlines()
        v, empty, third = row.split(",")
        assert (head, v, empty) == ("x,a,b", "0.5", "")
        assert len(third.replace("0.", "")) == 12


def _field_oracle(value: float) -> str:
    """The field rule as each field was once formatted on its own: 12 significant digits, NaN empty."""
    return "" if math.isnan(value) else f"{value:.12g}"


def _csv_oracle(header, axis1_values, axis2_values, table) -> bytes:
    """CSV bytes of a stacked table as rows of Python floats were once joined field by field."""
    rows = [[float(v1)] + ([] if v2 is None else [float(v2)]) + fields
            for v1, line in zip(axis1_values, table.tolist()) for v2, fields in zip(axis2_values, line)]
    lines = [",".join(header)] + [",".join(_field_oracle(v) for v in row) for row in rows]
    return "".join(line + "\n" for line in lines).encode("utf-8")


_EDGE_VALUES = (np.nan, -np.nan, math.copysign(math.nan, -1.0), 0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308,
                math.inf, -math.inf, 1.0 / 3.0, 6.0, -6.0, 1e16, 1e-5, 123456789012.5)


@pytest.mark.parametrize("fields", [1, 3, 4])
@pytest.mark.parametrize("two_axes", [False, True])
def test_write_csv_equals_field_by_field_join(tmp_path, rng, fields, two_axes):
    axis1 = np.concatenate([np.linspace(-6.0, 6.0, 5), [0.0, -0.0, 5e-324, 1.0 / 3.0, 1.7e308]])
    axis2 = np.array([-0.0, 1.0 / 3.0, 6.0]) if two_axes else [None]
    values = np.array(_EDGE_VALUES)
    table = values[rng.integers(len(values), size=(len(axis1), len(axis2), fields))]
    table[2, 0] = np.nan  # a row with every field empty
    table[3, 0] = values[:fields]
    header = ["delta1"] + (["omega1"] if two_axes else []) + [f"f{k}" for k in range(fields)]
    path = tmp_path / "t.csv"
    write_csv(path, header, axis1, axis2, table)
    assert path.read_bytes() == _csv_oracle(header, axis1, axis2, table)
    # every edge value in a 1-field table, whatever the draw above
    column = (["x", "v"], np.arange(len(values), dtype=float), [None], values[:, None, None])
    write_csv(path, *column)
    assert path.read_bytes() == _csv_oracle(*column)


def test_map_columns_starts_at_most_one_worker_per_payload(worker_calls):
    assert map_columns(pow, [(2, 3), (3, 2)], jobs=8) == [8, 9]
    assert worker_calls == [(2, "pow", 2)]


def _index_and_pid(i):
    return i, os.getpid()


@pytest.mark.parametrize("count, jobs", [(5, 2), (5, 3), (1, 4)])
def test_map_columns_returns_uneven_shares_in_payload_order(count, jobs):
    results = map_columns(_index_and_pid, [(i,) for i in range(count)], jobs)
    assert [i for i, _ in results] == list(range(count))
    pids = {pid for _, pid in results}
    # one payload runs in process
    assert len(pids) == min(jobs, count) and (count > 1) == (os.getpid() not in pids)


def test_map_columns_raises_the_error_of_the_first_failing_payload():
    # worker 0 takes payloads 0 and 2 and fails at 2; worker 1 fails at payload 1, which the serial loop meets first
    payloads = [("1",), ("a",), (None,)]
    with pytest.raises(ValueError) as serial:
        map_columns(int, payloads, jobs=1)
    with pytest.raises(Exception) as parallel:
        map_columns(int, payloads, jobs=2)
    assert type(parallel.value) is type(serial.value) and str(parallel.value) == str(serial.value)
    # the worker's traceback is kept as the cause
    assert str(parallel.value.__cause__).startswith("Traceback") and str(serial.value) in str(parallel.value.__cause__)


def test_map_columns_under_spawn_matches_in_process(monkeypatch, tmp_path):
    # spawn is the default start method on macOS and Windows, which pickle the function, payloads and pipes
    monkeypatch.setattr(gpdiag.sweep, "_context", lambda: multiprocessing.get_context("spawn"))
    paths = [PathSpec(SystemParams(omega1, 6.0), "delta1", -1.0, 1.0, 5) for omega1 in (2.0, 4.0, 6.0)]
    outputs = ("purity", "gamma_g")
    serial = path_columns(paths, outputs, jobs=1)
    spawned = path_columns(paths, outputs, jobs=2)
    assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(serial, spawned, strict=True))
    # fig4 maps its own column function, whose payloads carry reference states
    runs = [run_recipe("fig4", tmp_path / str(jobs), samples=3, jobs=jobs).files for jobs in (1, 2)]
    assert [f.read_bytes() for f in runs[0]] == [f.read_bytes() for f in runs[1]]


@pytest.mark.skipif(sys.platform != "linux", reason="a test-local Process class reaches a worker by forking only")
def test_a_failed_start_stops_the_running_workers(monkeypatch):
    context = gpdiag.sweep._context()

    class FailingSecondStart(context.Process):
        starts = 0

        def start(self):
            FailingSecondStart.starts += 1
            if FailingSecondStart.starts == 2:
                raise OSError(errno.EAGAIN, "fork failed")
            super().start()

    monkeypatch.setattr(context, "Process", FailingSecondStart)
    began = time.monotonic()
    # worker 0 sleeps through its share while the start of worker 1 fails
    with pytest.raises(OSError, match="fork failed"):
        map_columns(time.sleep, [(60,), (60,)], jobs=2)
    assert time.monotonic() - began < 10
    assert multiprocessing.active_children() == []


def _run_script(script: str) -> subprocess.CompletedProcess:
    src = str(Path(gpdiag.sweep.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=30)


@pytest.mark.skipif(sys.platform != "linux", reason="the workers fork on Linux only")
def test_workers_are_children_of_the_caller_under_any_start_method():
    # forkserver is the Linux default from Python 3.14; its workers would be children of the fork server
    run = _run_script("import multiprocessing, os\n"
                      "from gpdiag.sweep import map_columns\n"
                      "multiprocessing.set_start_method('forkserver', force=True)\n"
                      "assert map_columns(os.getppid, [(), ()], jobs=2) == [os.getpid()] * 2\n")
    assert run.returncode == 0, run.stderr


@pytest.mark.skipif(sys.platform != "linux", reason="a function of a -c script reaches a worker by forking only")
def test_a_killed_worker_raises_instead_of_hanging():
    run = _run_script("import multiprocessing, os, signal\n"
                      "from gpdiag.sweep import map_columns\n"
                      "def kill_at_one(i):\n"
                      "    if i == 1:\n"
                      "        os.kill(os.getpid(), signal.SIGKILL)\n"
                      "    return i\n"
                      "try:\n"
                      "    map_columns(kill_at_one, [(0,), (1,), (2,)], jobs=2)\n"
                      "except ChildProcessError as err:\n"
                      "    assert 'exited with code -9' in str(err), err\n"
                      "else:\n"
                      "    raise AssertionError('no ChildProcessError')\n"
                      "assert multiprocessing.active_children() == []\n")
    assert run.returncode == 0, run.stderr


def test_only_a_run_that_starts_workers_loads_multiprocessing(tmp_path):
    # a serial run loads neither package; importing gpdiag.cli imports every gpdiag module
    loaded = {}
    for jobs in (1, 2):
        run = _run_script("import sys\n"
                          "import gpdiag.cli\n"
                          "from gpdiag.recipes import run_recipe\n"
                          f"run_recipe('fig2', {str(tmp_path / str(jobs))!r}, samples=3, jobs={jobs})\n"
                          "print(*sorted({'multiprocessing', 'configparser'} & set(sys.modules)))\n")
        assert run.returncode == 0, run.stderr
        loaded[jobs] = run.stdout.split()
    assert loaded[1] == [] and "multiprocessing" in loaded[2]
