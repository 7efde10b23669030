import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gpdiag.gp
import gpdiag.recipes
import gpdiag.sweep
from gpdiag.cli import main
from gpdiag.recipes import MIN_SAMPLES, RECIPE_IDS


SWEEP_1D = """\
[sweep]
scheme = I
outputs = purity, gamma_g
path = out.csv

[axis1]
parameter = delta1
start = -1
stop = 1
samples = 9
"""


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as err:
        return err.code


class TestSteady:
    def test_prints_state_summary(self, capsys):
        code = run_cli(["steady", "--omega1", "6", "--omega2", "6", "--scheme", "II"])
        out = capsys.readouterr().out
        assert code == 0
        assert "two-photon density matrix" in out
        assert "concurrence: 1" in out

    def test_degenerate_exit_code(self, capsys):
        code = run_cli(["steady", "--omega1", "0", "--omega2", "0", "--scheme", "II"])
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_detuning_sum_overflow_is_usage_error(self, capsys):
        code = run_cli(["steady", "--omega1", "1", "--omega2", "1", "--delta1", "1e308", "--delta2", "1e308"])
        assert code == 1
        assert capsys.readouterr().err == "gpdiag steady: error: delta1 + delta2 must be finite, got 1e+308 + 1e+308\n"

    def test_overflowing_drive_is_numerical_failure(self, capsys):
        code = run_cli(["steady", "--omega1", "1e308", "--omega2", "1e308"])
        err = capsys.readouterr().err
        assert code == 2
        assert "overflowed" in err and "dimension" not in err

    def test_non_positive_null_vector_is_numerical_failure(self, capsys):
        # at drives of 3e8 the scheme-II null vector has an eigenvalue below -1e-10 (about -7.5e-9)
        code = run_cli(["steady", "--omega1", "3e8", "--omega2", "3e8", "--scheme", "II"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("gpdiag: numerical failure: steady state not positive semidefinite")
        assert err.count("\n") == 1

    def test_rank_threshold_named_in_degenerate_message(self, capsys):
        # at drives of 1e10 the decay terms fall below the relative rank threshold
        code = run_cli(["steady", "--omega1", "1e10", "--omega2", "1e10"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("gpdiag: numerical failure: null space has dimension ")
        assert "(singular values <= 1e-09 x largest " in err
        assert err.count("\n") == 1

    def test_scheme_default_rates(self, capsys):
        code = run_cli(["steady", "--omega1", "6", "--omega2", "6", "--scheme", "I"])
        out = capsys.readouterr().out
        assert code == 0
        assert "purity: 0." in out


class TestUsageErrors:
    def test_missing_required_flag(self, capsys):
        assert run_cli(["steady", "--omega1", "6"]) == 1

    def test_unknown_subcommand(self, capsys):
        assert run_cli(["frobnicate"]) == 1

    def test_unknown_recipe_id(self, capsys):
        assert run_cli(["recipe", "fig9"]) == 1

    def test_too_few_samples(self, capsys):
        assert run_cli(["recipe", "fig2", "--samples", "1"]) == 1
        assert "--samples" in capsys.readouterr().err

    def test_negative_drive(self, capsys):
        assert run_cli(["steady", "--omega1", "-1", "--omega2", "6"]) == 1
        assert "--omega1" in capsys.readouterr().err

    def test_nan_drive(self, capsys):
        assert run_cli(["steady", "--omega1", "nan", "--omega2", "6"]) == 1
        assert "--omega1" in capsys.readouterr().err

    def test_negative_decay_rate(self, capsys):
        assert run_cli(["recipe", "fig2", "--gamma2", "-1"]) == 1
        assert "--gamma2" in capsys.readouterr().err

    def test_non_integer_samples(self, capsys):
        assert run_cli(["recipe", "fig2", "--samples", "abc"]) == 1
        assert "'abc' is not an integer >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["recipe", "fig2"], ["sweep", "--config", "sweep.ini"]],
                             ids=["recipe", "sweep"])
    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one(self, command, jobs, tmp_path, capsys):
        assert run_cli([*command, "--jobs", jobs, "--out", str(tmp_path)]) == 1
        assert f"argument --jobs: {jobs!r} is not an integer >= 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("recipe_id", ["fig4", "fig5", "fig6"])
    def test_derivative_recipe_two_samples(self, recipe_id, tmp_path, capsys):
        code = run_cli(["recipe", recipe_id, "--samples", "2", "--out", str(tmp_path),
                        "--jobs", "1"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("gpdiag recipe: error: argument --samples:")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


class TestSweepCommand:
    def test_end_to_end(self, tmp_path, capsys):
        config = tmp_path / "sweep.ini"
        config.write_text("""\
[sweep]
scheme = II
outputs = purity, concurrence
path = out.csv

[axis1]
parameter = delta1
start = -1
stop = 1
samples = 5
""")
        code = run_cli(["sweep", "--config", str(config), "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 0
        assert "out.csv" in captured.out
        assert "undefined points: 0" in captured.err
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert lines[0] == "delta1,purity,concurrence"
        assert len(lines) == 6

    def test_config_error_exit_code(self, tmp_path, capsys):
        config = tmp_path / "bad.ini"
        config.write_text("[sweep]\nunknown_key = 1\n")
        assert run_cli(["sweep", "--config", str(config)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_config_error_is_one_line(self, tmp_path, capsys):
        config = tmp_path / "bad.ini"
        config.write_text(SWEEP_1D.replace("scheme = I", "scheme = III"))
        assert run_cli(["sweep", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == "gpdiag: config error: unknown scheme 'III'\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", [
        SWEEP_1D.replace("parameter = delta1", "parameter = omega1"),
        SWEEP_1D.replace("start = -1", "start = -1e308").replace("stop = 1\n", "stop = 1e308\n"),
        SWEEP_1D.replace("[sweep]", "[sweep]\ndelta2 = 1e308").replace("stop = 1\n", "stop = 1e308\n"),
    ], ids=["negative_drive_axis", "infinite_axis_span", "detuning_sum_overflow"])
    def test_grid_outside_parameter_domain(self, text, tmp_path, capsys):
        config = tmp_path / "sweep.ini"
        config.write_text(text)
        code = run_cli(["sweep", "--config", str(config), "--out", str(tmp_path / "out"), "--jobs", "1"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("gpdiag: config error: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("data, detail", [
        (SWEEP_1D.replace("scheme = I", "scheme = I\nscheme = II").encode(), "line 3: repeated key 'scheme' in [sweep]"),
        ((SWEEP_1D + "\n[axis1]\nparameter = omega1\n").encode(), "line 12: repeated section [axis1]"),
        (b"; caf\xff\n" + SWEEP_1D.encode(), "line 1: byte 0xff is not valid UTF-8"),
        (SWEEP_1D.encode().replace(b"out.csv", b"caf\xe9.csv"), "line 4: byte 0xe9 is not valid UTF-8"),
    ], ids=["repeated_key", "repeated_section", "not_utf8", "not_utf8_later_line"])
    def test_unreadable_config_is_one_line(self, data, detail, tmp_path, capsys):
        config = tmp_path / "sweep.ini"
        config.write_bytes(data)
        code = run_cli(["sweep", "--config", str(config), "--out", str(tmp_path / "out"), "--jobs", "1"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("gpdiag: config error: ")
        assert err.count("\n") == 1
        assert detail in err
        assert not (tmp_path / "out").exists()

    def test_non_positive_null_vectors_are_gaps(self, tmp_path, capsys):
        config = tmp_path / "sweep.ini"
        config.write_text(SWEEP_1D.replace("scheme = I", "scheme = II\nomega1 = 4e7\nomega2 = 4e7")
                          .replace("purity, gamma_g", "purity").replace("samples = 9", "samples = 21"))
        code = run_cli(["sweep", "--config", str(config), "--out", str(tmp_path), "--jobs", "1"])
        err = capsys.readouterr().err
        assert code == 0
        undefined = int(err.removeprefix("undefined points: "))
        rows = [line.split(",") for line in (tmp_path / "out.csv").read_text().splitlines()[1:]]
        assert 0 < undefined < 21
        assert sum(purity == "" for _, purity in rows) == undefined

    def test_missing_config_file(self, tmp_path, capsys):
        assert run_cli(["sweep", "--config", str(tmp_path / "nope.ini")]) == 1

    @pytest.mark.parametrize("config_samples, flags", [(2, []), (9, ["--samples", "2"])],
                             ids=["config", "override"])
    def test_dgamma_needs_three_samples(self, config_samples, flags, tmp_path, capsys):
        config = tmp_path / "sweep.ini"
        config.write_text(f"""\
[sweep]
scheme = I
outputs = gamma_g, dgamma
path = out.csv

[axis1]
parameter = delta1
start = -1
stop = 1
samples = {config_samples}
""")
        code = run_cli(["sweep", "--config", str(config), "--out", str(tmp_path),
                        "--jobs", "1", *flags])
        assert code == 1
        assert "config error: output dgamma needs axis1 samples >= 3" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_flag_overrides_config(self, tmp_path, capsys):
        config = tmp_path / "sweep.ini"
        config.write_text("""\
[sweep]
scheme = I
outputs = purity
path = out.csv

[axis1]
parameter = delta1
start = -1
stop = 1
samples = 9
""")
        code = run_cli(["sweep", "--config", str(config), "--out", str(tmp_path),
                        "--samples", "3", "--gamma3", "0"])
        capsys.readouterr()
        assert code == 0
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert len(lines) == 1 + 3  # --samples shrank the axis
        # gamma3 = 0 with matched drives at resonance row gives a pure state
        center = lines[2].split(",")
        assert float(center[0]) == 0.0
        assert abs(float(center[1]) - 1.0) <= 1e-8

    def test_gamma2_flag_matches_config(self, tmp_path, capsys):
        from_flag, from_config = tmp_path / "flag", tmp_path / "config"
        config = tmp_path / "sweep.ini"
        config.write_text(SWEEP_1D)
        assert run_cli(["sweep", "--config", str(config), "--out", str(tmp_path / "default"),
                        "--jobs", "1"]) == 0
        assert run_cli(["sweep", "--config", str(config), "--out", str(from_flag),
                        "--jobs", "1", "--gamma2", "5.5"]) == 0
        config.write_text(SWEEP_1D.replace("[sweep]", "[sweep]\ngamma2 = 5.5"))
        assert run_cli(["sweep", "--config", str(config), "--out", str(from_config),
                        "--jobs", "1"]) == 0
        capsys.readouterr()
        flag_bytes = (from_flag / "out.csv").read_bytes()
        assert flag_bytes == (from_config / "out.csv").read_bytes()
        assert flag_bytes != (tmp_path / "default" / "out.csv").read_bytes()

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    def test_line_endings_read_as_lf(self, newline, tmp_path, capsys):
        for name, ending in (("lf", b"\n"), ("other", newline)):
            (tmp_path / f"{name}.ini").write_bytes(SWEEP_1D.encode().replace(b"\n", ending))
            assert run_cli(["sweep", "--config", str(tmp_path / f"{name}.ini"), "--out", str(tmp_path / name),
                            "--jobs", "1"]) == 0
        capsys.readouterr()
        assert (tmp_path / "other" / "out.csv").read_bytes() == (tmp_path / "lf" / "out.csv").read_bytes()

    def test_samples_flag_shrinks_both_axes(self, tmp_path, capsys):
        config = tmp_path / "sweep.ini"
        config.write_text(SWEEP_1D + "\n[axis2]\nparameter = omega1\nstart = 2\nstop = 6\nsamples = 5\n")
        assert run_cli(["sweep", "--config", str(config), "--out", str(tmp_path),
                        "--jobs", "1", "--samples", "3"]) == 0
        capsys.readouterr()
        assert len((tmp_path / "out.csv").read_text().splitlines()) == 1 + 3 * 3


    def test_samples_help_names_each_default(self, capsys):
        helps = {}
        for command in ("recipe", "sweep"):
            assert run_cli([command, "--help"]) == 0
            helps[command] = " ".join(capsys.readouterr().out.split())
        assert "samples per axis (default 601)" in helps["recipe"]
        assert "601" not in helps["sweep"]
        assert "default: each axis's samples in the config" in helps["sweep"]


class TestRecipeCommand:
    def test_unwritable_out_dir(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file where the output directory should go")
        code = run_cli(["recipe", "fig2", "--out", str(blocker), "--samples", "3",
                        "--jobs", "1"])
        assert code == 1
        assert "i/o error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["recipe", "sweep"])
    @pytest.mark.parametrize("out", ["blocked", "blocked/x/y"], ids=["file", "below_file"])
    def test_unusable_out_fails_before_any_steady_state(self, command, out, tmp_path, capsys, monkeypatch):
        calls = []

        def recording(real):
            return lambda p: calls.append(p) or real(p)

        # recipes solves its states through sweep.photon_states, so it holds no binding of its own
        assert not hasattr(gpdiag.recipes, "steady_state")
        for module in (gpdiag.gp, gpdiag.sweep):
            monkeypatch.setattr(module, "steady_state", recording(module.steady_state))
        (tmp_path / "blocked").write_text("a file where the output directory should go")
        config = tmp_path / "sweep.ini"
        config.write_text(SWEEP_1D)
        argv = ["recipe", "fig3a"] if command == "recipe" else ["sweep", "--config", str(config)]
        code = run_cli(argv + ["--out", str(tmp_path / out), "--samples", "3", "--jobs", "1"])
        err = capsys.readouterr().err
        assert code == 1
        assert calls == []
        assert err == f"gpdiag: i/o error: --out {tmp_path / out}: {tmp_path / 'blocked'} is not a writable directory\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocked", "sweep.ini"]

    def test_no_value_exit_code(self, tmp_path, capsys):
        code = run_cli(["recipe", "fig3a", "--out", str(tmp_path), "--samples", "3",
                        "--jobs", "1", "--gamma2", "0", "--gamma3", "0"])
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_fig4_window_reference_without_steady_state_is_counted(self, tmp_path, capsys):
        # the separable base points have no unique steady state without gamma2:
        # their surfaces are gaps, not a numerical failure
        code = run_cli(["recipe", "fig4", "--out", str(tmp_path), "--samples", "5",
                        "--jobs", "1", "--gamma2", "0"])
        assert code == 0
        assert capsys.readouterr().err == "undefined points: 195\n"

    @pytest.mark.parametrize("gamma2", ["1e155", "1e308"])
    def test_fig4_overflowing_closed_form_is_numerical_failure(self, gamma2, tmp_path, capsys):
        # the closed form's gamma21^2 overflows to NaN phases and the numeric
        # steady states overflow, so every surface is a gap
        code = run_cli(["recipe", "fig4", "--out", str(tmp_path / "out"), "--samples", "3",
                        "--jobs", "1", "--gamma2", gamma2])
        assert code == 2
        assert capsys.readouterr().err == "gpdiag: numerical failure: no sample point of the recipe produced a value\n"
        assert not (tmp_path / "out").exists()

    def test_small_recipe_run(self, tmp_path, capsys):
        code = run_cli(["recipe", "fig2", "--out", str(tmp_path), "--samples", "5",
                        "--jobs", "1"])
        captured = capsys.readouterr()
        assert code == 0
        assert "fig2_ii_6_6.csv" in captured.out
        assert "undefined points:" in captured.err
        assert (tmp_path / "fig2_meta.json").exists()


# decay rates at the edges of the float range: zero, subnormals, and log-uniform over 1e-300 .. 1e300
_EDGE_RATES = st.one_of(
    st.just(0.0),
    st.floats(min_value=5e-324, max_value=2.2250738585072009e-308),
    st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0 ** e),
)


@settings(derandomize=True, max_examples=100, deadline=5000)
@given(recipe_id=st.sampled_from(RECIPE_IDS), gamma2=_EDGE_RATES, gamma3=_EDGE_RATES)
def test_recipe_at_edge_rates_exits_cleanly(recipe_id, gamma2, gamma3):
    # exit 0 with every listed file written, or exit 2 with no directory made; one stderr line, no traceback
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run_cli(["recipe", recipe_id, "--samples", str(MIN_SAMPLES[recipe_id]), "--jobs", "1",
                            "--out", str(out), "--gamma2", repr(gamma2), "--gamma3", repr(gamma3)])
        assert code in (0, 2)
        assert len(stderr.getvalue().splitlines()) <= 1
        if code == 0:
            files = stdout.getvalue().splitlines()
            assert files and all(Path(f).is_file() for f in files)
        else:
            assert not out.exists()
