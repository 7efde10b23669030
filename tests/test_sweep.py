import numpy as np
import pytest

import gpdiag.sweep
from gpdiag.cascade import DEFAULT_GAMMA2, DEFAULT_GAMMA3_REAL, SystemParams
from gpdiag.gp import PathSpec, gp_curve_from_states, gp_derivative, sample_path
from gpdiag.sweep import (
    AxisSpec, ConfigError, SweepSpec, format_field, map_columns, parse_config, run_sweep,
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
        assert spec.base.gamma2 == 6.0
        assert spec.base.gamma3 == 1.0
        assert spec.base.omega1 == 6.0
        assert spec.path == "sweep.csv"

    def test_defaults_scheme_ii(self):
        spec = parse_config(MINIMAL.replace("scheme = I", "scheme = II"))
        assert spec.base.gamma3 == 0.0

    def test_overrides(self):
        spec = parse_config(MINIMAL.replace("[sweep]", "[sweep]\nomega1 = 3.5\ngamma3 = 0.2"))
        assert spec.base.omega1 == 3.5
        assert spec.base.gamma3 == 0.2

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
        with pytest.raises(ConfigError):
            spec_2d().__class__(  # rebuild with both axes on delta1
                "I", spec_2d().base,
                AxisSpec("delta1", -1, 1, 3), AxisSpec("delta1", 2, 6, 2),
                ("purity",), "x.csv",
            )

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
         "grid corner omega1 = -1.0: Rabi frequencies must be >= 0"),
        (MINIMAL.replace("start = -1", "start = -1e308").replace("stop = 1\n", "stop = 1e308\n"),
         "axis span stop - start must be finite"),
        (MINIMAL.replace("[sweep]", "[sweep]\ndelta2 = 1e308").replace("stop = 1\n", "stop = 1e308\n"),
         "grid corner delta1 = 1e\\+308: delta1 \\+ delta2 must be finite"),
        (MINIMAL.replace("outputs = purity", "outputs = purity, purity, concurrence"), "duplicate output 'purity'"),
        (MINIMAL.replace("[sweep]", "[sweep]\npath = /abs/escaped.csv"), "plain file name, got '/abs/escaped.csv'"),
        (MINIMAL.replace("[sweep]", "[sweep]\npath = sub/out.csv"), "plain file name, got 'sub/out.csv'"),
        (MINIMAL.replace("[sweep]", "[sweep]\npath = ../out.csv"), "plain file name, got '../out.csv'"),
        (MINIMAL.replace("[sweep]", "[sweep]\npath ="), "plain file name, got ''"),
        (MINIMAL.replace("[sweep]", "[sweep]\npath = .."), "plain file name, got '..'"),
    ], ids=["non_numeric", "non_finite", "no_header", "no_sweep", "unknown_scheme",
            "missing_axis_key", "non_integer_samples", "empty_outputs",
            "negative_drive_axis", "infinite_axis_span", "detuning_sum_overflow",
            "duplicate_output", "absolute_path", "path_in_subdirectory", "path_in_parent", "empty_path",
            "parent_directory_path"])
    def test_rejected_config(self, text, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(text)


class TestRunSweep:
    def test_grid_shape(self, tmp_path):
        path, undefined = run_sweep(spec_2d(), tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "delta1,omega1,purity"
        assert len(lines) == 1 + 3 * 2
        assert undefined == 0

    def test_row_order_axis1_major(self, tmp_path):
        path, _ = run_sweep(spec_2d(), tmp_path)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        d1 = [float(r[0]) for r in rows]
        o1 = [float(r[1]) for r in rows]
        assert d1 == [-1.0, -1.0, 0.0, 0.0, 1.0, 1.0]
        assert o1 == [2.0, 6.0, 2.0, 6.0, 2.0, 6.0]

    def test_determinism(self, tmp_path):
        spec = spec_2d(outputs="eigenvalues, purity, concurrence")
        path1, _ = run_sweep(spec, tmp_path / "a")
        path2, _ = run_sweep(spec, tmp_path / "b")
        assert path1.read_bytes() == path2.read_bytes()

    def test_jobs_do_not_change_bytes(self, tmp_path):
        spec = spec_2d(outputs="gamma_g, purity", samples=5)
        path1, _ = run_sweep(spec, tmp_path / "a", jobs=1)
        path2, _ = run_sweep(spec, tmp_path / "b", jobs=3)
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
        sweep_path, _ = run_sweep(spec, tmp_path)
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

    def test_formatting(self):
        assert format_field(np.nan) == ""
        assert format_field(0.5) == "0.5"
        assert len(format_field(1.0 / 3.0).replace("0.", "")) == 12


def test_map_columns_starts_at_most_one_worker_per_payload(monkeypatch):
    opened = []

    class RecordingPool:
        """Stand-in for multiprocessing.Pool: records its size and runs in-process."""

        def __init__(self, processes):
            opened.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, payloads, chunksize):
            return [fn(*p) for p in payloads]

    monkeypatch.setattr(gpdiag.sweep, "Pool", RecordingPool)
    assert map_columns(pow, [(2, 3), (3, 2)], jobs=8) == [8, 9]
    assert opened == [2]
