import configparser
import contextlib
import io
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gpdiag.cli
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


# at omega2 = 0.001 in scheme II the omega1 path has steady states at 13 of its 21 points, all at zero detunings,
# where gamma_g is 0 up to rounding
GAP_SWEEP = (SWEEP_1D.replace("scheme = I", "scheme = II\nomega2 = 0.001")
             .replace("purity, gamma_g", "concurrence, gamma_g")
             .replace("parameter = delta1", "parameter = omega1").replace("start = -1", "start = 0")
             .replace("stop = 1\n", "stop = 6\n").replace("samples = 9", "samples = 21"))


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
        assert capsys.readouterr().err == "gpdiag: config error: delta1 + delta2 must be finite, got 1e+308 + 1e+308\n"

    def test_overflowing_drive_is_numerical_failure(self, capsys):
        # the scaled generator does not overflow; beside these drives the decay rates fall below the rank threshold
        code = run_cli(["steady", "--omega1", "1e308", "--omega2", "1e308"])
        assert code == 2
        assert capsys.readouterr().err == ("gpdiag: numerical failure: null space has dimension 3 "
                                           "(singular values <= 1e-09 x largest 1.573e+00, smallest 3.157e-310)\n")

    def test_drive_at_float_limit_is_numerical_failure(self, capsys):
        # the suite turns any RuntimeWarning into an error, so none is printed either
        code = run_cli(["steady", "--omega1", "1.7e308", "--omega2", "1.7e308"])
        assert code == 2
        assert capsys.readouterr().err == ("gpdiag: numerical failure: null space has dimension 3 "
                                           "(singular values <= 1e-09 x largest 2.675e+00, smallest 1.620e-309)\n")

    def test_rank_message_prints_no_negative_zero(self, capsys):
        # LAPACK returns the smallest singular value as -0.0 here; the message prints magnitudes
        code = run_cli(["steady", "--omega1", "5e-324", "--omega2", "1e-323", "--gamma2", "0", "--gamma3", "0"])
        assert code == 2
        assert capsys.readouterr().err == ("gpdiag: numerical failure: null space has dimension 3 "
                                           "(singular values <= 1e-09 x largest 1.118e+00, smallest 0.000e+00)\n")

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

    # a value out of range is one config error line from the model's own check; only text that is not a number
    # is a usage error
    def test_too_few_samples(self, tmp_path, capsys):
        assert run_cli(["recipe", "fig2", "--samples", "1", "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "gpdiag: config error: fig2 needs samples >= 2, got 1\n"
        assert not (tmp_path / "out").exists()

    def test_negative_drive(self, capsys):
        assert run_cli(["steady", "--omega1", "-1", "--omega2", "6"]) == 1
        assert capsys.readouterr().err == "gpdiag: config error: omega1 must be >= 0, got -1.0\n"

    def test_nan_drive(self, capsys):
        assert run_cli(["steady", "--omega1", "nan", "--omega2", "6"]) == 1
        assert capsys.readouterr().err == "gpdiag: config error: omega1 must be finite, got nan\n"

    def test_negative_decay_rate(self, tmp_path, capsys):
        assert run_cli(["recipe", "fig2", "--gamma2", "-1", "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "gpdiag: config error: gamma2 must be >= 0, got -1.0\n"
        assert not (tmp_path / "out").exists()

    def test_rate_a_recipe_does_not_use_is_checked(self, tmp_path, capsys):
        # fig3a is scheme II, so it never reads gamma3; run_recipe checks the value all the same
        assert run_cli(["recipe", "fig3a", "--gamma3", "-1", "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "gpdiag: config error: gamma3 must be >= 0, got -1.0\n"
        assert not (tmp_path / "out").exists()

    def test_non_integer_samples(self, capsys):
        assert run_cli(["recipe", "fig2", "--samples", "abc"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: gpdiag recipe ")
        assert err.endswith("\ngpdiag recipe: error: argument --samples: invalid int value: 'abc'\n")

    def test_non_integer_jobs(self, capsys):
        # --jobs is a plain int, as --samples is: text that is not an integer is argparse's own usage error
        assert run_cli(["recipe", "fig2", "--jobs", "abc"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: gpdiag recipe ")
        assert err.endswith("\ngpdiag recipe: error: argument --jobs: invalid int value: 'abc'\n")

    @pytest.mark.parametrize("command", ["recipe", "sweep"])
    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one(self, command, jobs, tmp_path, capsys):
        # sweep.check_run refuses the count, after the config, which is read and checked first
        config = tmp_path / "sweep.ini"
        config.write_text(SWEEP_1D)
        argv = ["recipe", "fig2"] if command == "recipe" else ["sweep", "--config", str(config)]
        assert run_cli([*argv, "--jobs", jobs, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"gpdiag: config error: jobs must be >= 1, got {jobs}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.ini"]

    def test_jobs_default_is_the_processors_this_process_may_use(self, monkeypatch):
        # an affinity mask of one CPU, as taskset or a cpuset gives; os.cpu_count() still counts the whole machine
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert gpdiag.cli._build_parser().parse_args(["recipe", "fig2"]).jobs == 1

    @pytest.mark.parametrize("recipe_id", ["fig4", "fig5", "fig6"])
    def test_derivative_recipe_two_samples(self, recipe_id, tmp_path, capsys):
        # run_recipe checks the sample count, before the output directory is created
        code = run_cli(["recipe", recipe_id, "--samples", "2", "--out", str(tmp_path / "out"),
                        "--jobs", "1"])
        assert code == 1
        assert capsys.readouterr().err == f"gpdiag: config error: {recipe_id} needs samples >= 3, got 2\n"
        assert not (tmp_path / "out").exists()


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
        (b"\xef\xbb\xbf[sweep]\n\n\xff\n", "line 3: byte 0xff is not valid UTF-8"),
        (b"[sweep]\r\rpath = caf\xe9.csv\r", "line 3: byte 0xe9 is not valid UTF-8"),
    ], ids=["repeated_key", "repeated_section", "not_utf8", "not_utf8_later_line", "not_utf8_after_bom",
            "not_utf8_cr_line_ends"])
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

    def test_path_with_gaps_has_gamma_g_at_every_solved_point(self, tmp_path, capsys):
        config = tmp_path / "sweep.ini"
        config.write_text(GAP_SWEEP)
        code = run_cli(["sweep", "--config", str(config), "--out", str(tmp_path), "--jobs", "1"])
        assert code == 0
        assert capsys.readouterr().err == "undefined points: 8\n"
        rows = [line.split(",") for line in (tmp_path / "out.csv").read_text().splitlines()[1:]]
        assert len(rows) == 21
        assert [gamma == "" for _, _, gamma in rows] == [concurrence == "" for _, concurrence, _ in rows]
        assert sum(concurrence != "" for _, concurrence, _ in rows) == 13
        # branch 0 holds the largest eigenvalue at both ends, so it keeps weight; |gamma_g| read 3e-13 at most
        assert max(abs(float(gamma)) for *_, gamma in rows if gamma) <= 1e-12

    def test_drives_at_float_limit_are_gaps(self, tmp_path, capsys):
        config = tmp_path / "sweep.ini"
        config.write_text(SWEEP_1D.replace("scheme = I", "scheme = I\nomega1 = 1.7e308\nomega2 = 1.7e308"))
        code = run_cli(["sweep", "--config", str(config), "--out", str(tmp_path / "out"), "--jobs", "1"])
        assert code == 2
        assert capsys.readouterr().err == "gpdiag: numerical failure: no sample point of the sweep produced a value\n"
        assert not (tmp_path / "out").exists()

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

    def test_byte_order_mark_is_read_as_utf8(self, tmp_path, capsys):
        bom = b"\xef\xbb\xbf"
        for name, data in (("plain", SWEEP_1D.encode()), ("bom", bom + SWEEP_1D.encode())):
            (tmp_path / f"{name}.ini").write_bytes(data)
            assert run_cli(["sweep", "--config", str(tmp_path / f"{name}.ini"), "--out", str(tmp_path / name),
                            "--jobs", "1"]) == 0
        capsys.readouterr()
        assert (tmp_path / "bom" / "out.csv").read_bytes() == (tmp_path / "plain" / "out.csv").read_bytes()

    def test_samples_flag_shrinks_both_axes(self, tmp_path, capsys):
        config = tmp_path / "sweep.ini"
        config.write_text(SWEEP_1D + "\n[axis2]\nparameter = omega1\nstart = 2\nstop = 6\nsamples = 5\n")
        assert run_cli(["sweep", "--config", str(config), "--out", str(tmp_path),
                        "--jobs", "1", "--samples", "3"]) == 0
        capsys.readouterr()
        assert len((tmp_path / "out.csv").read_text().splitlines()) == 1 + 3 * 3

    def test_samples_flag_too_many_for_the_axis_is_config_error(self, tmp_path, capsys):
        config = tmp_path / "sweep.ini"
        config.write_text(SWEEP_1D.replace("start = -1\nstop = 1", "start = 0\nstop = 5e-323")
                          .replace("samples = 9", "samples = 2"))
        out = tmp_path / "out"
        assert run_cli(["sweep", "--config", str(config), "--out", str(out), "--samples", "30"]) == 1
        assert capsys.readouterr().err == (
            "gpdiag: config error: --samples 30: axis [0.0, 5e-323] does not hold 30 distinct samples\n")
        assert not out.exists()

    def test_samples_flag_below_two_names_the_flag(self, tmp_path, capsys):
        config = tmp_path / "sweep.ini"
        config.write_text(SWEEP_1D)
        out = tmp_path / "out"
        assert run_cli(["sweep", "--config", str(config), "--out", str(out), "--samples", "1"]) == 1
        assert capsys.readouterr().err == "gpdiag: config error: --samples 1: axis samples must be >= 2, got 1\n"
        assert not out.exists()

    def test_rate_flag_out_of_range_is_not_blamed_on_the_config(self, tmp_path, capsys):
        config = tmp_path / "sweep.ini"
        config.write_text(SWEEP_1D)
        out = tmp_path / "out"
        assert run_cli(["sweep", "--config", str(config), "--out", str(out), "--gamma2", "-1"]) == 1
        assert capsys.readouterr().err == "gpdiag: config error: gamma2 must be >= 0, got -1.0\n"
        assert not out.exists()

    @pytest.mark.parametrize("key, config_value, flag_value", [
        ("samples", "2", "5"), ("samples", "1", "5"), ("gamma2", "-1", "6"),
    ], ids=["dgamma_samples", "one_sample", "negative_gamma2"])
    def test_flag_replaces_config_value_before_range_check(self, key, config_value, flag_value, tmp_path, capsys):
        def config_text(value):
            text = SWEEP_1D.replace("purity, gamma_g", "gamma_g, dgamma")
            if key == "samples":
                return text.replace("samples = 9", f"samples = {value}")
            return text.replace("[sweep]", f"[sweep]\n{key} = {value}")

        config = tmp_path / "sweep.ini"
        config.write_text(config_text(config_value))
        assert run_cli(["sweep", "--config", str(config), "--out", str(tmp_path / "flag"), "--jobs", "1",
                        f"--{key}", flag_value]) == 0
        config.write_text(config_text(flag_value))
        assert run_cli(["sweep", "--config", str(config), "--out", str(tmp_path / "config"), "--jobs", "1"]) == 0
        capsys.readouterr()
        assert (tmp_path / "flag" / "out.csv").read_bytes() == (tmp_path / "config" / "out.csv").read_bytes()

    @pytest.mark.parametrize("replaced, flags, detail", [
        (("samples = 9", "samples = abc"), ["--samples", "5"], "[axis1]: samples must be an integer"),
        (("[sweep]", "[sweep]\ngamma3 = nan"), ["--gamma3", "0"], "[sweep]: gamma3 must be finite"),
        (("delta1", "banana"), ["--samples", "5"], "[axis1]: unknown axis parameter 'banana'"),
    ], ids=["samples_not_an_integer", "gamma3_not_finite", "unknown_parameter"])
    def test_config_fault_under_flags_names_its_section(self, replaced, flags, detail, tmp_path, capsys):
        config = tmp_path / "sweep.ini"
        config.write_text(SWEEP_1D.replace(*replaced))
        out = tmp_path / "out"
        assert run_cli(["sweep", "--config", str(config), "--out", str(out), "--jobs", "1", *flags]) == 1
        assert capsys.readouterr().err == f"gpdiag: config error: {detail}\n"
        assert not out.exists()

    def test_samples_help_names_each_default(self, capsys):
        helps = {}
        for command in ("recipe", "sweep"):
            assert run_cli([command, "--help"]) == 0
            helps[command] = " ".join(capsys.readouterr().out.split())
        assert "samples per axis (default 601)" in helps["recipe"]
        assert "601" not in helps["sweep"]
        assert "default: each axis's samples in the config" in helps["sweep"]

    def test_gamma_help_names_each_scope(self, capsys):
        helps = {}
        for command in ("recipe", "sweep"):
            assert run_cli([command, "--help"]) == 0
            helps[command] = " ".join(capsys.readouterr().out.split())
            flags = ("--out", "--samples", "--jobs", "--gamma2", "--gamma3")
            positions = [helps[command].index(f"{flag} {flag[2:].upper()} ", helps[command].index("options:"))
                         for flag in flags]
            assert positions == sorted(positions), command
        assert "--gamma3 GAMMA3 scheme-I decay of the top level" in helps["recipe"]
        # a sweep flag replaces the config's rate whatever its scheme
        assert "scheme-I" not in helps["sweep"]
        for rate in ("gamma2", "gamma3"):
            assert f"replacing the config's {rate} in every scheme" in helps["sweep"]

    def test_recipe_rate_help_names_each_default(self, capsys):
        assert run_cli(["recipe", "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "--gamma2 GAMMA2 decay of the middle level (default 6) " in text
        assert "--gamma3 GAMMA3 scheme-I decay of the top level (default 1)" in text


# numpy refuses an axis of this many samples at once; never test with a count that allocates (1e9 is 8 GB)
HUGE_SAMPLES = str(10 ** 15)


@pytest.mark.parametrize("route", ["recipe", "sweep config", "sweep flag"])
def test_huge_samples_is_one_line_error(route, tmp_path, capsys):
    config = tmp_path / "sweep.ini"
    samples = HUGE_SAMPLES if route == "sweep config" else "9"
    config.write_text(SWEEP_1D.replace("samples = 9", f"samples = {samples}"))
    out = tmp_path / "out"
    argv = {"recipe": ["recipe", "fig2", "--samples", HUGE_SAMPLES],
            "sweep config": ["sweep", "--config", str(config)],
            "sweep flag": ["sweep", "--config", str(config), "--samples", HUGE_SAMPLES]}[route]
    assert run_cli(argv + ["--out", str(out), "--jobs", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("gpdiag: out of memory: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["recipe", "sweep"])
def test_recipe_and_sweep_print_one_report(command, tmp_path, capsys):
    config = tmp_path / "gap.ini"
    config.write_text(GAP_SWEEP)
    runs = {"recipe": (["recipe", "fig2", "--samples", "5"],
                       lambda out: gpdiag.recipes.run_recipe("fig2", out, samples=5, jobs=1)),
            "sweep": (["sweep", "--config", str(config)],
                      lambda out: gpdiag.sweep.run_sweep(gpdiag.sweep.parse_config(GAP_SWEEP), out, jobs=1))}
    argv, run = runs[command]
    out = tmp_path / "out"
    result = run(out)
    assert run_cli([*argv, "--out", str(out), "--jobs", "1"]) == 0
    stdout, stderr = capsys.readouterr()
    assert stdout.splitlines() == [str(p) for p in result.files]
    rows = [line.split(",") for p in result.files if p.suffix == ".csv" for line in p.read_text().splitlines()[1:]]
    undefined = sum("" in row for row in rows)
    assert stderr == f"undefined points: {undefined}\n"
    assert result.undefined_points == undefined
    other = "sweep" if command == "recipe" else "recipe"
    assert type(result) is type(runs[other][1](tmp_path / other))


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
        assert err == (f"gpdiag: i/o error: output directory {tmp_path / out}: {tmp_path / 'blocked'} "
                       "is not a writable directory\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocked", "sweep.ini"]

    @pytest.mark.parametrize("command", ["recipe", "sweep"])
    def test_out_name_over_name_max_fails_before_any_steady_state(self, command, tmp_path, capsys, monkeypatch):
        # mkdir would refuse the name only after the whole run, and leave the directories above it behind
        calls = []
        monkeypatch.setattr(gpdiag.sweep, "steady_state", lambda p: calls.append(p))
        config = tmp_path / "sweep.ini"
        config.write_text(SWEEP_1D)
        out = tmp_path / "new" / ("y" * 256) / "z"
        argv = ["recipe", "fig2"] if command == "recipe" else ["sweep", "--config", str(config)]
        assert run_cli(argv + ["--out", str(out), "--samples", "3", "--jobs", "1"]) == 1
        assert capsys.readouterr().err == (
            f"gpdiag: i/o error: output directory {out}: a directory name must be at most 255 bytes, got 256\n")
        assert calls == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.ini"]

    def test_out_name_at_name_max_is_made(self, tmp_path, capsys):
        out = tmp_path / ("y" * 255)
        assert run_cli(["recipe", "fig2", "--out", str(out), "--samples", "3", "--jobs", "1"]) == 0
        capsys.readouterr()
        assert (out / "fig2_meta.json").is_file()

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

    def test_fig4_partly_solvable_columns_are_gaps(self, tmp_path, capsys):
        # at gamma2 = 1e-7 the resonant point (delta offset 0) of the dX = 0.05 and 0.2 separable scheme-II
        # columns has no steady state; the slope needs every point, so both columns are all gaps
        code = run_cli(["recipe", "fig4", "--out", str(tmp_path), "--samples", "5",
                        "--jobs", "1", "--gamma2", "1e-7"])
        assert code == 0
        assert capsys.readouterr().err == "undefined points: 135\n"
        rows = [line.split(",") for line in (tmp_path / "fig4_separable_scheme2.csv").read_text().splitlines()[1:]]
        slopes = {}
        for _, dx, slope in rows:
            slopes.setdefault(dx, []).append(slope)
        assert slopes["0.05"] == slopes["0.2"] == [""] * 5
        assert "" not in slopes["0"] + slopes["0.1"] + slopes["0.15"] + slopes["0.25"] + slopes["0.3"]

    @pytest.mark.parametrize("gamma2", ["1e155", "1e308"])
    def test_fig4_overflowing_closed_form_is_numerical_failure(self, gamma2, tmp_path, capsys):
        # the closed form's gamma21^2 overflows to NaN phases and beside gamma2 the
        # drives fall below the numeric solve's rank threshold, so every surface is a gap
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


_SEED_CONFIG = """\
[sweep]
scheme = I
omega1 = 6
omega2 = 6
outputs = purity, concurrence, gamma_g, dgamma
path = out.csv

[axis1]
parameter = delta1
start = -1
stop = 1
samples = 3

[axis2]
parameter = delta2
start = 0
stop = 1
samples = 2
""".splitlines()

_CONFIG_KEYS = ("scheme", "path", "outputs", "omega1", "omega2", "delta1", "delta2", "gamma2", "gamma3",
                "parameter", "start", "stop", "samples", "OMEGA1", "bogus", "", " ")
# values of every kind the keys take, wrong ones too; axis sample counts stay small through this list
_CONFIG_VALUES = st.one_of(
    st.sampled_from(["", "I", "II", "custom", "delta1", "delta2", "omega1", "omega2", "gamma2", "purity",
                     "eigenvalues, dgamma", "gamma_g,gamma_g", "out.csv", "../out.csv", "nan", "-inf", "abc",
                     "0", "1", "2", "3", "-1", "1.5", "1e999", "= 1", "%(x)s"]),
    st.sampled_from([5e-324, 1e-300, 1e155, 1e308, 1.7e308, -1.7e308, 1.7976931348623157e308]).map(repr),
    st.floats(-10.0, 10.0).map(repr),
)
_CONFIG_SECTIONS = st.sampled_from(["[sweep]", "[axis1]", "[axis2]", "[DEFAULT]", "[axis3]", "[", "sweep]", ""])
_CONFIG_MUTATIONS = st.one_of(
    st.tuples(st.just("value"), st.integers(0, 99), _CONFIG_VALUES),
    st.tuples(st.just("key"), st.integers(0, 99), st.sampled_from(_CONFIG_KEYS)),
    st.tuples(st.just("section"), st.integers(0, 99), _CONFIG_SECTIONS),
    st.tuples(st.just("duplicate"), st.integers(0, 99)),
    st.tuples(st.just("delete"), st.integers(0, 99)),
)
_INVALID_UTF8 = st.sampled_from([b"\xff", b"\x80", b"\xc3\x28", b"\xed\xa0\x80", b"\xe2\x82"])


def _mutated_config(mutations, newline, junk):
    lines = list(_SEED_CONFIG)
    for kind, at, *arg in mutations:
        i = at % len(lines) if lines else 0
        if kind == "value" and lines and "=" in lines[i]:
            lines[i] = lines[i].split("=")[0] + "= " + arg[0]
        elif kind == "key" and lines and "=" in lines[i]:
            lines[i] = arg[0] + " =" + lines[i].split("=", 1)[1]
        elif kind == "section":
            lines.insert(i, arg[0])
        elif kind == "duplicate" and lines:
            lines.insert(i, lines[i])
        elif kind == "delete" and lines:
            del lines[i]
    data = (newline.join(lines) + newline).encode()
    if junk is not None:
        at, byte = junk
        data = data[:at % (len(data) + 1)] + byte + data[at % (len(data) + 1):]
    return data


def _parser_names_a_line(data):
    """Whether the config reader can point at a line: a byte that is not UTF-8, or a configparser syntax error."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return True
    try:
        configparser.ConfigParser(interpolation=None).read_string(text.replace("\r\n", "\n").replace("\r", "\n"))
    except configparser.Error:
        return True
    return False


@settings(derandomize=True, max_examples=400, deadline=5000)
@given(mutations=st.lists(_CONFIG_MUTATIONS, max_size=4), newline=st.sampled_from(["\n", "\r\n", "\r"]),
       junk=st.none() | st.tuples(st.integers(0, 400), _INVALID_UTF8))
# drives whose generator overflows, an axis1 span too narrow for 3 distinct samples, a NUL in the file name and a
# 300-byte file name
@example(mutations=[("value", 2, "1.7e+308"), ("value", 3, "1.7e+308")], newline="\n", junk=None)
@example(mutations=[("value", 9, "0"), ("value", 10, "5e-324")], newline="\n", junk=None)
@example(mutations=[("value", 5, "a\0b.csv")], newline="\n", junk=None)
@example(mutations=[("value", 5, "x" * 296 + ".csv")], newline="\n", junk=None)
def test_mutated_sweep_config_exits_cleanly(mutations, newline, junk):
    # exit 0, 1 or 2 with at most one stderr line and no traceback, and an output directory only on exit 0;
    # exit 1 names the line the reader knows
    data = _mutated_config(mutations, newline, junk)
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "sweep.ini"
        config.write_bytes(data)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run_cli(["sweep", "--config", str(config), "--out", str(Path(tmp) / "out"), "--jobs", "1"])
        wrote = (Path(tmp) / "out").exists()
    err = stderr.getvalue()
    assert code in (0, 1, 2)
    assert len(err.splitlines()) <= 1
    assert wrote == (code == 0)
    if _parser_names_a_line(data):
        assert code == 1 and "line" in err
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as bad:
        # the seed config is ASCII, so every line end before the first bad byte is one str.splitlines counts
        line = len((data[:bad.start].decode("ascii") + "x").splitlines())
        assert err == f"gpdiag: config error: line {line}: byte 0x{data[bad.start]:02x} is not valid UTF-8\n"
