"""Whole-path spectral tracking against the sequential oracle, the degenerate bridge, path validation, and gamma_g's
convergence.

`tracking_oracle` decomposes and greedily matches one sample at a time.  Where
every greedy match is the identity, the stacked tracker's eigenvalue-order
labels must reproduce it exactly.
"""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tracking_oracle as oracle
from conftest import edge_or, random_hermitian
from gpdiag.cascade import SystemParams
from gpdiag.gp import (EPS_DEGENERATE, SWEEPABLE, PathSpec, _prefix_terms, gp_curve_from_states, gp_derivative,
                       sample_path, track_spectrum)
from gpdiag.sweep import path_columns, photon_states


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
    ref, ambiguous, relabelled = oracle.track_spectrum(states)
    traj = track_spectrum(states)
    # plain Python types, as the per-sample tracker returned, so records stay JSON-serializable
    assert type(traj.resolution_warning) is bool and type(traj.min_overlap) is float
    # branch k is the k-th largest eigenvalue at every sample
    assert (np.diff(traj.eigenvalues, axis=1) <= 0.0).all()
    if relabelled:
        return
    np.testing.assert_array_equal(traj.eigenvalues, ref.eigenvalues)
    np.testing.assert_array_equal(traj.eigenvectors, ref.eigenvectors)
    assert traj.kept_branches == ref.kept_branches
    assert traj.min_overlap == ref.min_overlap
    # the oracle's warning adds the matcher's ambiguity to the low-overlap rule, which is the tracker's whole rule
    assert traj.resolution_warning == ref.resolution_warning or ambiguous and ref.resolution_warning
    if not ref.kept_branches:
        assert _prefix_terms(traj).shape == (m, 0)
        return
    assert np.max(np.abs(_prefix_terms(traj) - oracle.prefix_terms(ref))) <= 1e-15


def _touching_path(q, d):
    """rho_j = U(t_j) diag(0.6, q + d_j, q - d_j) U(t_j)^dag along t in [0, 1], U(t) = exp(i t H) for a fixed Hermitian
    H: the two weaker eigenvalues touch, without crossing, at every sample where d_j = 0."""
    w, v = np.linalg.eigh(random_hermitian(np.random.default_rng(7), 3))
    states = []
    for t, dj in zip(np.linspace(0.0, 1.0, len(d)), d):
        u = (v * np.exp(1j * t * w)) @ v.conj().T
        states.append(u @ np.diag([0.6, q + dj, q - dj]) @ u.conj().T)
    return states


def _chain_terms(traj, skipped):
    """The prefix terms of traj sample by sample, with each branch k transported from the last sample before j that
    is not in skipped[k] to sample j."""
    lam, vecs = traj.eigenvalues, traj.eigenvectors
    terms = np.empty((len(lam), len(traj.kept_branches)), dtype=complex)
    for b, k in enumerate(traj.kept_branches):
        phi = vecs[:, :, k]
        terms[0, b], phase, last = lam[0, k], 0.0, 0
        for j in range(1, len(lam)):
            here = phase + np.angle(np.vdot(phi[last], phi[j]))
            weight = math.sqrt(max(lam[0, k] * lam[j, k], 0.0))
            terms[j, b] = weight * np.vdot(phi[0], phi[j]) * np.exp(-1j * here)
            if j not in skipped.get(k, ()):
                phase, last = here, j
    return terms


_J = np.arange(9.0)


@pytest.mark.parametrize("q, d, kept, skipped", [
    (0.2, 0.002 * (_J - 1.0) ** 2, (0, 1, 2), {1: {1}, 2: {1}}),
    (0.2, 0.002 * (_J - 7.0) ** 2, (0, 1, 2), {1: {7}, 2: {7}}),
    (0.2, 0.002 * np.maximum(np.abs(_J - 4.5) - 0.5, 0.0) ** 2, (0, 1, 2), {1: {4, 5}, 2: {4, 5}}),
    (0.05, 0.05 * ((_J - 2.0) / 6.0) ** 2, (0, 1), {1: {2}}),
    (0.2, 0.002 * _J ** 2, (0, 1, 2), {}),
], ids=["second_sample", "second_to_last_sample", "run_of_two", "one_of_the_pair_kept", "endpoint"])
def test_bridge_steps_over_degenerate_samples(q, d, kept, skipped):
    # at a sample where the two weaker eigenvalues are equal, eigh returns an arbitrary basis of their plane; a kept
    # branch's transport steps over it (a run as a whole), and a degenerate endpoint is never bridged
    traj = track_spectrum(_touching_path(q, d))
    assert traj.kept_branches == kept
    terms = _prefix_terms(traj)
    assert np.max(np.abs(terms - _chain_terms(traj, skipped))) <= 1e-15
    if skipped:
        # the arbitrary basis moves the unbridged chain's end away
        assert np.max(np.abs(terms[-1] - _chain_terms(traj, {})[-1])) >= 1e-3


def test_path_span_must_be_finite():
    with pytest.raises(ValueError, match=r"span stop - start must be finite, got \[-1e\+308, 1e\+308\]"):
        PathSpec(SystemParams(6.0, 6.0), "delta1", -1e308, 1e308, 3)


def test_scheme2_gamma_g_does_not_depend_on_sampling_resonance():
    # fig5's ef panel in scheme II; linspace(-3, 3, 601) holds delta1 = 0 exactly and 600 samples do not.  The
    # resonant sample's two weaker eigenvalues are both 0, and the bridge steps over their arbitrary basis: the
    # endpoints read -0.0401248176 and -0.0401248178 (-0.0398288480 at 601 samples without the bridge).
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


@settings(derandomize=True, max_examples=200, deadline=None)
@given(draw=_sampled_paths())
def test_order_labels_give_the_gamma_g_of_greedy_matching(draw):
    # ROADMAP item 22: off item 15's class, eigenvalue-order labels with the degenerate bridge give the gamma_g of
    # tracking_oracle's greedy maximal-overlap matching.  Where every greedy match is the identity and no interior
    # sample is degenerate, the two differ only in how numpy rounds the same terms (2.3e-15 at most in 2000 draws)
    path = PathSpec(*draw)
    assume(not _samples_resonance(path))
    states, _ = photon_states([path.params_at(v) for v in path.values()])
    curve, (ref, relabelled) = gp_curve_from_states(states), oracle.gp_curve(states)
    np.testing.assert_array_equal(np.isnan(curve), np.isnan(ref))
    error = np.abs(curve - ref)[~np.isnan(ref)].max(initial=0.0)
    degenerate = (np.diff(track_spectrum(states).eigenvalues[1:-1], axis=1) >= -EPS_DEGENERATE).any()
    assert error <= (1e-10 if relabelled or degenerate else 1e-14)


def test_order_labels_follow_an_avoided_crossing_that_the_sampling_does_not_resolve():
    # the two larger eigenvalues come within 0.038 of each other near omega1 = 2.84, and in the last step of 11
    # samples their eigenvectors turn by 51 degrees (overlap 0.628, against 0.778 across); greedy matching swaps the
    # branches there and read -0.188 against 0.9449 at 81 samples, where order labels already read 0.9449, and the
    # low-overlap rule, whose bound 1 - 10 spacing^2 the coarse steps push below 0.628, does not warn
    base = SystemParams(0.0, 1.5, 2.5, 0.0, 0.5, 0.0)
    coarse, fine = (sample_path(PathSpec(base, "omega1", 0.0, 3.0, n)) for n in (11, 81))
    greedy, relabelled = oracle.gp_curve(coarse)
    resolved = gp_curve_from_states(fine)[-1]
    assert relabelled and not track_spectrum(coarse).resolution_warning
    assert abs(gp_curve_from_states(coarse)[-1] - resolved) <= 1e-4
    assert abs(greedy[-1] - resolved) >= 1.0


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
    # scheme II's weak-omega2 line, steady at 13 of its 21 samples, each pure to rounding at resonance: 3.0e-13 at most
    [column] = path_columns([PathSpec(SystemParams(0.0, 0.001, 0.0, 0.0, 6.0, 0.0), "omega1", 0.0, 6.0, 21)],
                            ("gamma_g",), jobs=1)
    assert np.count_nonzero(~np.isnan(column)) == 13
    assert np.nanmax(np.abs(column)) <= 1e-12


# ROADMAP item 5: the low-overlap rule compares min_overlap with 1 - 10 s^2, s the largest step ||rho(j+1) - rho(j)||
# of the whole path, so one step of s >= 0.32 puts the bound below 0 and the warning cannot fire, while a fine path
# through a narrow avoided crossing warns.  A per-step form of the same bound mends neither case: it fires on 25 of
# the 26 resolved benchmark paths (fig5's panels and the grid's columns at both rate variants, 601 samples each) and
# still misses the first path below.  Item 5's mend lifts both markers.
@pytest.mark.xfail(strict=True, reason="ROADMAP item 5: the bound of the low-overlap rule uses the largest step")
def test_warning_is_set_where_gamma_g_does_not_converge():
    # gamma_g read -0.3054, -0.3068, -0.2955 and +0.3115 at 18, 137, 1089 and 4353 samples, with a min_overlap of
    # 5.0e-3, 1.8e-3, 5.2e-4 and 7.1e-5, and no warning at any of them
    base = SystemParams(0.0, 2.99448, -0.99528, 0.0, 5.96e-8, 2.02251)
    for samples in (137, 1089):
        assert track_spectrum(sample_path(PathSpec(base, "omega1", 1e-10, 2.9534, samples))).resolution_warning


@pytest.mark.xfail(strict=True, reason="ROADMAP item 5: the low-overlap rule fires on resolved paths")
def test_no_warning_where_gamma_g_converges():
    # fig5's cd panel at default rates: min_overlap 0.99996 at an avoided crossing of the two weak eigenvalues near
    # delta1 = 0, and gamma_g converges at second order all the same
    states = sample_path(PathSpec(SystemParams(3.0, 6.0, 0.0, 0.0, 6.0, 1.0), "delta1", -3.0, 3.0, 601))
    assert not track_spectrum(states).resolution_warning
