"""Tests of the benchmark's own machinery; kept out of the repository's test suite.

    python3 -m pytest -q benchmarks/selftest.py
"""

from __future__ import annotations

import gzip
import itertools
import multiprocessing
import time

import numpy as np

from run import bootstrap

bootstrap()

import gpdiag.gp as gp  # noqa: E402
import gpdiag.sweep as sweep  # noqa: E402
from gpdiag.cascade import SystemParams, steady_state  # noqa: E402

import gate  # noqa: E402
import probe  # noqa: E402
import spans  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # root [0, 100] > a [10, 40] > leaf [15, 25]; root > b [50, 70]
    tree = [
        ["root", -1, 0, 0, 100],
        ["a", 0, 0, 10, 40],
        ["leaf", 1, 0, 15, 25],
        ["b", 0, 0, 50, 70],
    ]
    assert spans.self_times(tree) == {"root": (1, 50), "a": (1, 20), "leaf": (1, 10), "b": (1, 20)}


def test_recorder_nests_spans_and_sums_repeated_calls():
    ticks = itertools.count(0, 10)
    recorder = spans.Recorder(clock=lambda: next(ticks))
    leaf = recorder.wrap("leaf", lambda: None)
    outer = recorder.wrap("outer", lambda: (leaf(), leaf()))
    outer()
    # outer [0, 50] holds leaf [10, 20] and leaf [30, 40]
    assert [s[:2] for s in recorder.spans] == [["outer", -1], ["leaf", 0], ["leaf", 0]]
    assert spans.self_times(recorder.spans) == {"outer": (1, 30), "leaf": (2, 20)}


def test_installed_rebinds_direct_imports_and_restores_them():
    original, svd = steady_state, np.linalg.svd
    seen = []
    recorder = spans.Recorder()
    path = gp.PathSpec(SystemParams(6.0, 6.0), "delta1", -1.0, 1.0, 3)
    with recorder.installed({"cascade.steady_state": lambda args, rho: seen.append(rho),
                             "linops.null_space_unit_trace": None}):
        assert gp.steady_state is not original and sweep.steady_state is not original
        gp.sample_path(path)
    calls = {name: count for name, (count, _) in spans.self_times(recorder.spans).items()}
    assert calls == {"cascade.steady_state": 3, "linops.null_space_unit_trace": 3}
    assert recorder.lapack["svd_calls"] == 3 and recorder.lapack["svd_matrices"] == 3
    assert len(seen) == 3
    assert gp.steady_state is original and sweep.steady_state is original
    assert np.linalg.svd is svd


def test_lapack_counter_counts_stacked_matrices():
    recorder = spans.Recorder()
    with recorder.installed({}):
        np.linalg.eigh(np.stack([np.eye(3)] * 4))
    assert recorder.lapack["eigh_calls"] == 1 and recorder.lapack["eigh_matrices"] == 4


def test_lapack_counter_counts_eigvalsh_apart_from_eigh():
    recorder = spans.Recorder()
    with recorder.installed({"cascade.steady_state": None}):
        steady_state(SystemParams(6.0, 6.0))
        np.linalg.eigvalsh(np.stack([np.eye(2)] * 3))
    # one positivity check in steady_state, then one stacked call of three matrices
    assert recorder.lapack["eigvalsh_calls"] == 2 and recorder.lapack["eigvalsh_matrices"] == 4
    assert recorder.lapack["eigh_calls"] == 0


def _write(path, text, gz=False):
    if gz:
        with gzip.open(path, "wt", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        path.write_text(text, encoding="utf-8")


def _gate(tmp_path, produced, reference):
    out, ref = tmp_path / "out", tmp_path / "ref"
    out.mkdir()
    ref.mkdir()
    _write(out / "a.csv", produced)
    _write(ref / "a.csv.gz", reference, gz=True)
    return gate.check_outputs(out, ref)


CSV = "x,y\n0,1.5\n1,\n2,-3.25\n"


def test_gate_accepts_identical_outputs(tmp_path):
    result = _gate(tmp_path, CSV, CSV)
    assert result.ok and result.max_abs_err == 0.0 and result.undefined_fields == 1


def test_gate_accepts_deviation_within_tolerance(tmp_path):
    result = _gate(tmp_path, CSV, CSV.replace("-3.25", "-3.2500000001"))
    assert result.ok and 0.0 < result.max_abs_err <= gate.TOLERANCE * 3.25


def test_gate_rejects_perturbed_reference_value(tmp_path):
    result = _gate(tmp_path, CSV, CSV.replace("1.5", "1.500001"))
    assert not result.ok
    assert abs(result.max_abs_err - 1e-6) < 1e-12
    assert result.problems == ["a.csv:2:1: 1.5 vs reference 1.500001"]


def test_gate_rejects_undefined_field_mismatch(tmp_path):
    assert not _gate(tmp_path, CSV, CSV.replace("1,\n", "1,0\n")).ok


def test_gate_rejects_missing_or_extra_file(tmp_path):
    result = _gate(tmp_path, CSV, CSV)
    (tmp_path / "out" / "b.csv").write_text(CSV, encoding="utf-8")
    assert result.ok and not gate.check_outputs(tmp_path / "out", tmp_path / "ref").ok


def _burn(seconds):
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass


def test_speed_probe_samples_this_process_and_forked_children():
    with probe.SpeedProbe() as speed:
        _burn(0.3)
        child = multiprocessing.get_context("fork").Process(target=_burn, args=(0.3,))
        child.start()
        child.join(timeout=30)
    assert child.exitcode == 0
    # one sample per INTERVAL_S of CPU time in each process, some lost to timer granularity
    assert len(speed.samples) >= 0.6 * 0.6 / probe.INTERVAL_S
    assert speed.probe_seconds == sum(speed.samples) and speed.factor() > 0


def test_speed_factor_is_harmonic_mean_over_reference():
    speed = probe.SpeedProbe()
    speed.samples = [probe.REFERENCE_S, 3 * probe.REFERENCE_S]
    assert abs(speed.factor() - 1.5) < 1e-12
