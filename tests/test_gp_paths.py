"""Whole-path spectral tracking against the sequential oracle, path validation, and gamma_g's convergence.

`tracking_oracle` decomposes and matches one sample at a time.  On paths whose
greedy matches are unambiguous the stacked tracker must reproduce it exactly;
on ambiguous paths both must raise the resolution warning.
"""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tracking_oracle as oracle
from conftest import edge_or
from gpdiag.cascade import SystemParams
from gpdiag.gp import (SWEEPABLE, PathSpec, _prefix_terms, gp_curve_from_states, gp_derivative, sample_path,
                       track_spectrum)
from gpdiag.sweep import path_columns


def _probabilities(rng, n):
    p = rng.uniform(0.0, 1.0, n)
    return p / p.sum()


def _unitary_path(rng, n, m):
    """rho(t) = U(t) D(t) U(t)^dag with U(t) = exp(i t H) and D(t) linear, so eigenvalues may cross."""
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    w, v = np.linalg.eigh(0.5 * (a + a.conj().T))
    d0, d1 = _probabilities(rng, n), _probabilities(rng, n)
    states = []
    for t in np.linspace(0.0, rng.uniform(0.1, 3.0), m):
        u = (v * np.exp(1j * t * w)) @ v.conj().T
        rho = u @ np.diag((1.0 - t) * d0 + t * d1) @ u.conj().T
        states.append(0.5 * (rho + rho.conj().T))
    return states


def _diagonal_crossing_path(rng, n, m):
    """Diagonal states whose first two eigenvalues cross exactly at a sample."""
    rest = _probabilities(rng, n)[2:] * 0.5
    centre, slope = (1.0 - rest.sum()) / 2.0, rng.uniform(0.05, 0.2)
    cross = rng.integers(0, m)
    states = []
    for j in range(m):
        x = slope * (j - cross) / m
        states.append(np.diag([centre + x, centre - x, *rest]).astype(complex))
    return states


def _rotation_path(rng, n, m):
    """A fixed diagonal state, then the same state rotated by 45 degrees in one plane."""
    rho0 = np.diag(_probabilities(rng, n)).astype(complex)
    i, k = rng.choice(n, size=2, replace=False)
    c = s = math.sqrt(0.5)
    u = np.eye(n)
    u[i, i], u[i, k], u[k, i], u[k, k] = c, -s, s, c
    turn = rng.integers(1, m)
    return [rho0] * turn + [u @ rho0 @ u.T] * (m - turn)


_PATHS = {"unitary": _unitary_path, "crossing": _diagonal_crossing_path, "rotation": _rotation_path}


@settings(derandomize=True, max_examples=300, deadline=None)
@given(kind=st.sampled_from(sorted(_PATHS)), n=st.sampled_from([2, 3]), m=st.integers(2, 40),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_tracking_matches_sequential_oracle(kind, n, m, seed):
    states = _PATHS[kind](np.random.default_rng(seed), n, m)
    ref, ambiguous = oracle.track_spectrum(states)
    traj = track_spectrum(states)
    # plain Python types, as the per-sample tracker returned, so records stay JSON-serializable
    assert type(traj.resolution_warning) is bool and type(traj.min_overlap) is float
    assert traj.resolution_warning == ref.resolution_warning
    if ambiguous:
        assert traj.resolution_warning
        return
    np.testing.assert_array_equal(traj.eigenvalues, ref.eigenvalues)
    np.testing.assert_array_equal(traj.eigenvectors, ref.eigenvectors)
    assert traj.kept_branches == ref.kept_branches
    assert traj.min_overlap == ref.min_overlap
    if not ref.kept_branches:
        assert _prefix_terms(traj).shape == (m, 0)
        return
    assert np.max(np.abs(_prefix_terms(traj) - oracle.prefix_terms(ref))) <= 1e-15


def test_rotation_by_45_degrees_is_ambiguous_in_both():
    c = s = math.sqrt(0.5)
    u = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    rho0 = np.diag([0.5, 0.3, 0.2]).astype(complex)
    states = [rho0, rho0, u @ rho0 @ u.T, u @ rho0 @ u.T]
    ref, ambiguous = oracle.track_spectrum(states)
    assert ambiguous and ref.resolution_warning and track_spectrum(states).resolution_warning


def test_crossing_labels_compose_across_later_steps():
    states = [np.diag([0.6 - x, 0.3 + x, 0.1]).astype(complex) for x in (0.0, 0.1, 0.3, 0.4, 0.5)]
    traj = track_spectrum(states)
    # branch 0 stays on e0 through the crossing and every step after it
    np.testing.assert_array_equal(np.abs(traj.eigenvectors[:, 0, 0]), 1.0)
    np.testing.assert_allclose(traj.eigenvalues[:, 0], [0.6, 0.5, 0.3, 0.2, 0.1], atol=1e-15)


def test_path_span_must_be_finite():
    with pytest.raises(ValueError, match=r"span stop - start must be finite, got \[-1e\+308, 1e\+308\]"):
        PathSpec(SystemParams(6.0, 6.0), "delta1", -1e308, 1e308, 3)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 15: a sample at two-photon resonance, where the two weaker "
                   "eigenvalues are both 0, gets an arbitrary eigenbasis that enters gamma_g")
def test_scheme2_gamma_g_does_not_depend_on_sampling_resonance():
    # fig5's ef panel in scheme II; linspace(-3, 3, 601) holds delta1 = 0 exactly and 600 samples do not.
    # The endpoints read -0.0398288480 and -0.0401248178, 2.96e-4 apart.
    base = SystemParams(6.0, 3.0, 0.0, 0.0, 6.0, 0.0)
    ends = [column[-1, 0] for column in path_columns([PathSpec(base, "delta1", -3.0, 3.0, n) for n in (601, 600)],
                                                     ("gamma_g",), jobs=1)]
    assert abs(ends[0] - ends[1]) <= 1e-6


# the drives and rates of a draw stay in [0.5, 6], inside tests/test_cascade.py's box (scheme II sets gamma3 = 0).
# At the box edge 0 a path has no unique steady state or holds one pure state throughout; a smaller nonzero drive or
# rate (gamma2 = 0.1, or omega2 = 0.17 in scheme II) makes lines narrower than the step of about 100 samples, and
# such paths missed the bound below by factors of 2 to 9e5: the sampling did not resolve them, item 15 aside
_DRIVE_OR_RATE = st.floats(0.5, 6.0)
_AXIS_RANGE = {"omega1": (0.0, 6.0), "omega2": (0.0, 6.0), "delta1": (-6.0, 6.0), "delta2": (-6.0, 6.0)}


@st.composite
def _sampled_paths(draw, varying=st.sampled_from(SWEEPABLE)):
    """(base, varying, start, stop, n): a path in the parameter box, in scheme I or II, at an odd sample count n near
    101, with a span of at least 0.5."""
    varying = draw(varying)
    gamma3 = draw(st.one_of(st.just(0.0), _DRIVE_OR_RATE))
    base = SystemParams(draw(_DRIVE_OR_RATE), draw(_DRIVE_OR_RATE), draw(edge_or(-6.0, 6.0)),
                        draw(edge_or(-6.0, 6.0)), draw(_DRIVE_OR_RATE), gamma3)
    lo, hi = _AXIS_RANGE[varying]
    start = draw(st.floats(lo, hi - 0.5))
    return base, varying, start, draw(st.floats(start + 0.5, hi)), 2 * draw(st.integers(45, 55)) + 1


def _grids(base, varying, start, stop, n):
    """The path at n samples, at n - 1, and at the (n + 1) / 2 of its half grid."""
    return [PathSpec(base, varying, start, stop, m) for m in (n, n - 1, (n + 1) // 2)]


def _samples_resonance(path):
    """Whether a scheme-II detuning path holds a sample at two-photon resonance, delta1 + delta2 = 0 (item 15)."""
    if path.base.gamma3 != 0.0 or path.varying not in ("delta1", "delta2"):
        return False
    return bool((path.values() + getattr(path.base, "delta2" if path.varying == "delta1" else "delta1") == 0.0).any())


def _sampling_miss(paths):
    """|g_n - g_(n-1)| over its bound 0.1 est + 1e-12, at most 1 where gamma_g does not depend on the sampling.

    gamma_g converges at second order, so from n - 1 to n samples its endpoint moves by about 2 / n of the
    half-grid estimate est = |g_n - g_half| / 3 of its error (ROADMAP item 20).  0 where gamma_g is undefined on
    every grid: no unique steady state, or no kept branch.
    """
    ends = np.array([column[-1, 0] for column in path_columns(paths, ("gamma_g",), jobs=1)])
    if np.isnan(ends).all():
        return 0.0
    g_n, g_m, g_half = ends
    return abs(g_n - g_m) / (0.1 * abs(g_n - g_half) / 3.0 + 1e-12)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(draw=_sampled_paths())
def test_gamma_g_does_not_depend_on_the_sample_count(draw):
    paths = _grids(*draw)
    assume(not any(_samples_resonance(path) for path in paths))
    assert _sampling_miss(paths) <= 1.0


@pytest.mark.xfail(strict=True, reason="ROADMAP item 15: a sample at two-photon resonance, where the two weaker "
                   "eigenvalues are both 0, gets an arbitrary eigenbasis that enters gamma_g")
def test_scheme2_gamma_g_with_a_resonance_sample_does_not_depend_on_the_sample_count():
    misses = []

    # each draw moves to scheme II, with delta2 chosen so that sample `at` of the n grid lies on resonance; the
    # misses are collected rather than raised, so that every draw runs and none is shrunk
    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(draw=_sampled_paths(varying=st.just("delta1")), at=st.integers(1, 89))
    def collect(draw, at):
        base, varying, start, stop, n = draw
        base = replace(base, gamma3=0.0, delta2=-PathSpec(base, varying, start, stop, n).values()[at])
        misses.append(_sampling_miss(_grids(base, varying, start, stop, n)))

    collect()
    assert max(misses) <= 1.0, f"{sum(m > 1.0 for m in misses)} of {len(misses)} draws missed, up to {max(misses):.3g}x"


@functools.cache
def _ef_panel(samples):
    """States and gamma_g along fig5's ef panel, scheme I at default rates, with their sample step."""
    states = sample_path(PathSpec(SystemParams(6.0, 3.0, 0.0, 0.0, 6.0, 1.0), "delta1", -3.0, 3.0, samples))
    return states, gp_curve_from_states(states), 6.0 / (samples - 1)


def test_half_grid_estimates_the_discretization_error_of_gamma_g():
    # ROADMAP item 16: gamma_g converges at second order, so a third of its change when the same states are
    # taken at every other sample estimates its error.  fig5's ef panel, scheme I, at default rates: the estimate
    # read 3.348e-7 against an error of 3.335e-7 measured on 9601 samples, whose every 16th sample is the 601.
    states, gammas, _ = _ef_panel(601)
    estimate = np.max(np.abs(gammas[::2] - gp_curve_from_states(states[::2]))) / 3.0
    _, dense, _ = _ef_panel(9601)
    error = np.max(np.abs(gammas - dense[::16]))
    assert abs(estimate - error) <= 0.05 * error


def test_half_grid_estimates_the_discretization_error_of_dgamma():
    # the same estimate for dgamma, np.gradient of gamma_g: on the ef panel it read 2.217e-7 against an error of
    # 2.167e-7, largest at the one-sided last sample, beside a largest |dgamma| of 0.0315
    states, gammas, h = _ef_panel(601)
    slope = gp_derivative(gammas, h)
    estimate = np.max(np.abs(slope[::2] - gp_derivative(gp_curve_from_states(states[::2]), 2.0 * h))) / 3.0
    _, dense, dense_h = _ef_panel(9601)
    error = np.max(np.abs(slope - gp_derivative(dense, dense_h)[::16]))
    assert abs(estimate - error) <= 0.05 * error


def _largest_gamma_g(delta, gamma3):
    """max |gamma_g| along omega1 in [0.5, 6] at delta1 = -delta2 = delta, one per omega2 in (2, 3, 6)."""
    paths = [PathSpec(SystemParams(0.0, omega2, delta, -delta, 6.0, gamma3), "omega1", 0.5, 6.0, 201)
             for omega2 in (2.0, 3.0, 6.0)]
    columns = path_columns(paths, ("gamma_g",), jobs=1)
    return [np.max(np.abs(column[:, 0])) for column in columns]


def test_gamma_g_is_rounding_at_zero_detunings():
    # ROADMAP item 10: at delta1 = delta2 = 0 the detuning mirror makes every steady state real after
    # diag(1, i, 1), so gamma_g along any path is 0 or pi; it read at most 1.1e-14.  At delta1 = -delta2 = 1
    # the smallest, at omega2 = 6, read 2.5e-3 (gamma3 = 1) and 9.4e-4 (gamma3 = 0.5).
    for gamma3 in (1.0, 0.5):
        assert max(_largest_gamma_g(0.0, gamma3)) <= 1e-12
        assert min(_largest_gamma_g(1.0, gamma3)) >= 1e-4
