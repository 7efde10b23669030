import cmath
import dataclasses
import math

import numpy as np
import pytest

from gpdiag.cascade import ConfigError, SystemParams
from gpdiag.gp import (
    EPS_LAMBDA,
    EPS_VIS,
    GAUGE_TOL,
    SWEEPABLE,
    PathSpec,
    SpectralTrajectory,
    _phase_or_nan,
    _prefix_terms,
    fix_global_phase,
    gp_curve_from_states,
    gp_derivative,
    mixed_state_gp,
    sample_path,
    track_spectrum,
    two_point_phases,
    unwrap_phases,
)
from gpdiag.linops import NoSteadyStateError

BELL = SystemParams(6.0, 6.0)


def circle_states(theta, m, n=2):
    """Pure qubit swept around a circle at colatitude theta on the state sphere."""
    states = []
    for phi in np.linspace(0.0, 2.0 * math.pi, m):
        psi = np.zeros(n, dtype=complex)
        psi[0] = math.cos(theta / 2.0)
        psi[1] = math.sin(theta / 2.0) * cmath.exp(1j * phi)
        states.append(np.outer(psi, psi.conj()))
    return states


def circular_delta(a, b):
    return abs(cmath.phase(cmath.exp(1j * (a - b))))


class TestPathSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            PathSpec(BELL, "omega9", 0.0, 1.0, 3)
        with pytest.raises(ValueError):
            PathSpec(BELL, "delta1", 1.0, 0.0, 3)
        with pytest.raises(ValueError):
            PathSpec(BELL, "delta1", 0.0, 1.0, 1)
        with pytest.raises(ValueError):
            PathSpec(BELL, "omega1", -1.0, 1.0, 5)  # negative Rabi endpoint

    @pytest.mark.parametrize("samples", [5.0, 5.5, np.float64(5.0), "5"], ids=["float", "fraction", "numpy_float", "text"])
    def test_samples_that_are_not_an_integer_rejected(self, samples):
        with pytest.raises(ValueError) as err:
            PathSpec(BELL, "delta1", 0.0, 1.0, samples)
        assert type(err.value) is ConfigError
        assert str(err.value) == f"axis samples must be an integer, got {samples!r}"
        # a numpy integer is an integer
        assert PathSpec(BELL, "delta1", 0.0, 1.0, np.int64(5)).values().tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]

    @pytest.mark.parametrize("varying", SWEEPABLE)
    def test_params_at_equals_replace(self, varying):
        base = SystemParams(2.0, 3.0, -1.0, 0.5, 5.5, 0.75)
        spec = PathSpec(base, varying, 1.0, 4.0, 7)
        for value in spec.values():
            point = spec.params_at(value)
            assert point == dataclasses.replace(base, **{varying: value})
            assert getattr(point, varying) is value

    def test_params_at_rejects_a_negative_drive_as_replace_does(self):
        spec = PathSpec(BELL, "omega1", 0.0, 1.0, 3)
        with pytest.raises(ValueError) as expected:
            dataclasses.replace(BELL, omega1=-1.0)
        with pytest.raises(ValueError) as err:
            spec.params_at(-1.0)
        assert str(err.value) == str(expected.value) == "omega1 must be >= 0, got -1.0"
        assert type(err.value) is type(expected.value) is ConfigError

    def test_two_point_path(self):
        states = sample_path(PathSpec(BELL, "delta1", -1.0, 1.0, 2))
        assert len(states) == 2
        for rho in states:
            assert abs(np.trace(rho) - 1.0) <= 1e-10

    def test_short_path_continuity(self):
        eps = 1e-4
        states = sample_path(PathSpec(BELL, "delta1", -eps, eps, 2))
        from gpdiag.cascade import steady_state
        from gpdiag.photons import atomic_to_photon

        center = atomic_to_photon(steady_state(BELL))
        for rho in states:
            assert np.max(np.abs(rho - center)) <= 10.0 * eps

    def test_degenerate_point_reports_sample_index(self):
        base = SystemParams(0.0, 0.0, gamma3=0.0)
        with pytest.raises(NoSteadyStateError) as err:
            sample_path(PathSpec(base, "delta1", -1.0, 1.0, 3))
        assert str(err.value).startswith("sample 0 (delta1 = -1): null space has dimension ")
        assert type(err.value.__cause__) is NoSteadyStateError

    def test_overflowing_point_reports_sample_index(self):
        # sample 1 drives at 1.7e308, beside which the scaled generator's decay rates fall below the rank threshold
        with pytest.raises(NoSteadyStateError) as err:
            sample_path(PathSpec(SystemParams(6.0, 6.0), "omega1", 6.0, 1.7e308, 2))
        assert str(err.value) == ("sample 1 (omega1 = 1.7e+308): null space has dimension 3 "
                                  "(singular values <= 1e-09 x largest 1.891e+00, smallest 0.000e+00)")


class TestTrackSpectrum:
    def test_constant_pure_projector(self):
        psi = np.array([0.6, 0.0, 0.8], dtype=complex)
        states = [np.outer(psi, psi.conj())] * 5
        traj = track_spectrum(states)
        assert traj.kept_branches == (0,)
        assert traj.min_overlap >= 1.0 - 1e-12
        assert not traj.resolution_warning

    def test_scheme_ii_resonant_single_branch(self):
        base = SystemParams(6.0, 6.0, gamma3=0.0)
        states = sample_path(PathSpec(base, "omega1", 4.0, 6.0, 11))
        traj = track_spectrum(states)
        assert traj.kept_branches == (0,)
        np.testing.assert_allclose(traj.eigenvalues[:, 0], 1.0, atol=1e-9)

    def test_branches_follow_descending_eigenvalue_order(self):
        # the eigenvalues on e0 and e1 cross between samples 1 and 2: branch k is the k-th largest at every
        # sample, so branch 0 moves from e0 to e1 at the crossing
        states = [np.diag([0.6 - x, 0.3 + x, 0.1]).astype(complex) for x in (0.0, 0.1, 0.4, 0.45)]
        traj = track_spectrum(states)
        np.testing.assert_allclose(traj.eigenvalues, [[0.6, 0.3, 0.1], [0.5, 0.4, 0.1], [0.7, 0.2, 0.1],
                                                      [0.75, 0.15, 0.1]], atol=1e-15)
        np.testing.assert_array_equal(np.abs(traj.eigenvectors[:, :, 0]).argmax(axis=1), [0, 0, 1, 1])

    def test_unresolved_step_warns_without_abort(self):
        # two eigenvalues 0.01 apart turn by 45 degrees while the state moves by 0.01: the overlap cos(pi/4) is
        # below the sampling-resolution bound 1 - 10 * 0.01^2, and the phase is still computed
        c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
        u = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        rho0 = np.diag([0.5, 0.49, 0.01]).astype(complex)
        traj = track_spectrum([rho0, u @ rho0 @ u.T])
        assert traj.resolution_warning
        assert abs(traj.min_overlap - c) <= 1e-14
        assert np.isfinite(mixed_state_gp(traj))

    def test_eigenvalue_sum_preserved(self):
        states = sample_path(PathSpec(BELL, "delta1", -2.0, 2.0, 21))
        traj = track_spectrum(states)
        np.testing.assert_allclose(traj.eigenvalues.sum(axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("weight, kept", [(0.5 * EPS_LAMBDA, (0,)), (2.0 * EPS_LAMBDA, (0, 1))])
    def test_weight_threshold(self, weight, kept):
        states = [np.diag([1.0 - weight, weight, 0.0]).astype(complex)] * 3
        assert track_spectrum(states).kept_branches == kept

    def test_needs_two_states(self):
        with pytest.raises(ValueError, match="at least 2 states"):
            track_spectrum([np.eye(3, dtype=complex) / 3.0])


class TestMixedStateGp:
    def test_constant_trajectory_zero_phase(self, rng):
        from conftest import random_density

        states = [random_density(rng, 3)] * 7
        assert abs(mixed_state_gp(track_spectrum(states))) <= 1e-12

    def test_qubit_circle_solid_angle(self):
        for theta in (math.pi / 6, math.pi / 3):
            states = circle_states(theta, 2001)
            gamma = mixed_state_gp(track_spectrum(states))
            expected = -2.0 * math.pi * math.sin(theta / 2.0) ** 2
            assert circular_delta(gamma, expected) <= 1e-3

    def test_visibility_and_branch_terms(self):
        traj = track_spectrum(sample_path(PathSpec(BELL, "delta1", -3.0, 3.0, 101)))
        assert traj.kept_branches == (0, 1, 2)
        total = sum(_prefix_terms(traj)[-1])
        assert abs(total) > 0.1
        assert mixed_state_gp(traj) == np.angle(total)

    def test_undefined_for_orthogonal_pure_endpoints(self):
        e0 = np.zeros(2, dtype=complex)
        e0[0] = 1.0
        e1 = np.zeros(2, dtype=complex)
        e1[1] = 1.0
        # quarter-circle great arc ending orthogonal to the start
        states = []
        for t in np.linspace(0.0, math.pi / 2.0, 11):
            psi = math.cos(t) * e0 + math.sin(t) * e1
            states.append(np.outer(psi, psi.conj()))
        assert np.isnan(mixed_state_gp(track_spectrum(states)))
        curve = gp_curve_from_states(states)
        assert np.isnan(curve[-1]) and np.isfinite(curve[:-1]).all()

    def test_undefined_without_kept_branch(self):
        # branch 0 of a unit-trace state has lambda >= 1/n, so only an end state whose every eigenvalue is below
        # EPS_LAMBDA leaves no branch with weight at both ends
        states = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.5 * EPS_LAMBDA, 0.0]).astype(complex)]
        assert track_spectrum(states).kept_branches == ()
        assert np.isnan(mixed_state_gp(track_spectrum(states)))
        assert np.isnan(gp_curve_from_states(states)).all()


@pytest.mark.parametrize("eps", [1e-6, 1e-8, 1e-10, 0.0])
def test_one_visibility_rule(eps):
    # a quarter great arc ending eps short of orthogonal: the overlap of its ends is sin(eps), and the three
    # functions drop the phase at the same eps and give 0 elsewhere
    states = []
    for t in np.linspace(0.0, math.pi / 2.0 - eps, 11):
        psi = np.array([math.cos(t), math.sin(t), 0.0], dtype=complex)
        states.append(np.outer(psi, psi.conj()))
    phases = [mixed_state_gp(track_spectrum(states)), gp_curve_from_states(states)[-1],
              two_point_phases(states[0], states[-1:])[0]]
    if math.sin(eps) <= EPS_VIS:
        assert np.isnan(phases).all()
    else:
        assert np.abs(phases).max() <= 1e-15


def test_visibility_at_eps_vis_is_undefined():
    phases = _phase_or_nan(np.array([EPS_VIS, np.nextafter(EPS_VIS, 1.0)], dtype=complex))
    assert np.isnan(phases[0]) and phases[1] == 0.0


def mixed_with(psi, weight=0.7):
    """3x3 state whose dominant eigenvector is the unit vector psi: weight on psi, the rest on a vector orthogonal to it."""
    e = np.eye(3)[np.argmin(np.abs(psi))]
    perp = e - np.vdot(psi, e) * psi
    perp /= np.linalg.norm(perp)
    return weight * np.outer(psi, psi.conj()) + (1.0 - weight) * np.outer(perp, perp.conj())


class TestPancharatnam:
    def test_identical_states(self):
        rho = mixed_with(np.array([0.6, 0.8j, 0.0]))
        assert np.array_equal(two_point_phases(rho, [rho, rho]), [0.0, 0.0])

    @pytest.mark.parametrize("phi", [math.pi / 3, -2.0, 3.0])
    def test_relative_phase(self, phi):
        # psi1 carries e^{i phi} on its |01> amplitude, so <psi0|psi1> = c^2 + s^2 e^{i phi};
        # the global phase on psi1 is gauged away
        c, s = math.cos(0.4), math.sin(0.4)
        psi0 = np.array([c, s, 0.0])
        psi1 = np.exp(0.7j) * np.array([c, s * np.exp(1j * phi), 0.0])
        [phase] = two_point_phases(mixed_with(psi0), [mixed_with(psi1, 0.9)])
        assert abs(phase - math.atan2(s * s * math.sin(phi), c * c + s * s * math.cos(phi))) <= 1e-12

    def test_orthogonal_member_undefined(self):
        psi = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
        orth = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
        states = [mixed_with(psi), mixed_with(orth), mixed_with(psi)]
        phases = two_point_phases(mixed_with(psi), states)
        assert np.isnan(phases[1])
        assert np.isfinite(phases[[0, 2]]).all()

    def test_entry_independent_of_stack(self):
        # the fig4 Bell-window construction on 31 points of delta1
        ref, *states = sample_path(PathSpec(BELL, "delta1", 0.0, 3.0, 31))
        full = two_point_phases(ref, states)
        assert full.shape == (30,) and np.all(np.abs(full) > 0.0)
        for j, rho in enumerate(states):
            assert two_point_phases(ref, [rho])[0] == full[j]
        for k in range(0, 30, 7):
            np.testing.assert_array_equal(two_point_phases(ref, states[k:k + 7]), full[k:k + 7])


class TestFixGlobalPhase:
    def test_first_component_made_real(self):
        psi = np.array([0.6j, 0.0, -0.8])
        np.testing.assert_allclose(fix_global_phase(psi), [0.6, 0.0, 0.8j], atol=1e-15)

    @pytest.mark.parametrize("first, pivot", [(GAUGE_TOL, 2), (2.0 * GAUGE_TOL, 0)])
    def test_falls_back_to_largest_component(self, first, pivot):
        psi = np.array([first * 1j, 0.6, 0.8j])
        out = fix_global_phase(psi)
        assert out[pivot].imag == 0.0 and out[pivot].real > 0.0
        np.testing.assert_allclose(np.abs(out), np.abs(psi), atol=1e-15)

    def test_stack_equals_per_vector_calls(self, rng):
        psi = rng.normal(size=(4, 5, 3)) + 1j * rng.normal(size=(4, 5, 3))
        psi[:, ::2, 0] = GAUGE_TOL * np.exp(1j * rng.uniform(0.0, 2 * math.pi, size=(4, 3)))
        psi[1, 1, 0] = 0.0
        stacked = fix_global_phase(psi)
        for v, out in zip(psi.reshape(-1, 3), stacked.reshape(-1, 3)):
            np.testing.assert_array_equal(out, fix_global_phase(v))
            pivot = 0 if abs(v[0]) > GAUGE_TOL else int(np.argmax(np.abs(v)))
            np.testing.assert_array_equal(out, v * (abs(v[pivot]) / v[pivot]))


class TestGpCurve:
    def test_two_point_curve_matches_definition(self):
        spec = PathSpec(BELL, "delta1", -0.5, 0.5, 2)
        curve = gp_curve_from_states(sample_path(spec))
        assert curve[0] == 0.0
        pair = mixed_state_gp(track_spectrum(sample_path(spec)))
        assert abs(curve[1] - pair) <= 1e-12

    def test_multi_point_curve_ends_at_mixed_state_gp(self):
        # the fig5 ab path: the curve's last point is the phase of the whole path
        spec = PathSpec(BELL, "delta1", -3.0, 3.0, 601)
        end = gp_curve_from_states(sample_path(spec))[-1]
        full = mixed_state_gp(track_spectrum(sample_path(spec)))
        assert abs(math.remainder(end - full, 2 * math.pi)) <= 1e-12

    @pytest.mark.parametrize("count", [0, 1])
    def test_fewer_than_two_states_is_all_gaps(self, count):
        curve = gp_curve_from_states(np.full((count, 3, 3), np.eye(3) / 3.0))
        assert curve.shape == (count,) and np.isnan(curve).all()

    def test_anchor_is_exactly_zero(self):
        curve = gp_curve_from_states(sample_path(PathSpec(BELL, "delta1", -3.0, 3.0, 51)))
        assert curve[0] == 0.0

    def test_unwrap_removes_artificial_jump(self):
        series = [0.0, 0.1, 0.2, 0.2 + 2 * math.pi, 0.3 + 2 * math.pi]
        out = unwrap_phases(series)
        np.testing.assert_allclose(out, [0.0, 0.1, 0.2, 0.2, 0.3], atol=1e-12)

    def test_unwrap_passes_gaps_through(self):
        out = unwrap_phases([0.0, None, 0.1])
        assert math.isnan(out[1])

    def test_reversal_antisymmetry(self):
        states = sample_path(PathSpec(BELL, "delta1", -2.0, 2.0, 201))
        fwd = gp_curve_from_states(states)[-1]
        rev = gp_curve_from_states(states[::-1])[-1]
        assert circular_delta(fwd, -rev) <= 1e-6

    def test_gauge_invariance_under_rephasing(self, rng):
        states = sample_path(PathSpec(BELL, "delta1", -3.0, 3.0, 51))
        traj = track_spectrum(states)
        base = mixed_state_gp(traj)
        for _ in range(5):
            phases = np.exp(1j * rng.uniform(0, 2 * math.pi, size=traj.eigenvectors.shape[::2]))
            rephased = SpectralTrajectory(
                traj.eigenvalues,
                traj.eigenvectors * phases[:, None, :],
                traj.kept_branches,
                traj.resolution_warning,
                traj.min_overlap,
            )
            assert abs(mixed_state_gp(rephased) - base) <= 1e-9

    def test_pure_state_consistency_parallel_frames(self):
        # real frames are parallel transported (zero connection), so the
        # trajectory phase must equal the endpoint Pancharatnam phase
        states = []
        for t in np.linspace(0.0, 1.0, 41):
            psi = np.array([math.cos(t), math.sin(t)], dtype=complex)
            states.append(np.outer(psi, psi.conj()))
        traj = track_spectrum(states)
        gamma = mixed_state_gp(traj)
        psi0 = np.array([1.0, 0.0], dtype=complex)
        psi1 = np.array([math.cos(1.0), math.sin(1.0)], dtype=complex)
        assert abs(gamma - np.angle(np.vdot(psi0, psi1))) <= 1e-10

    def test_pure_state_transport_correction(self):
        # single kept branch: gamma_g = endpoint Pancharatnam phase minus the
        # accumulated connection of the sampled frame
        states = circle_states(math.pi / 3, 201)
        traj = track_spectrum(states)
        gamma = mixed_state_gp(traj)
        k = traj.kept_branches[0]
        acc = 0.0
        for j in range(len(states) - 1):
            acc += np.angle(np.vdot(traj.eigenvectors[j][:, k], traj.eigenvectors[j + 1][:, k]))
        endpoint = np.angle(np.vdot(traj.eigenvectors[0][:, k], traj.eigenvectors[-1][:, k]))
        assert circular_delta(gamma, endpoint - acc) <= 1e-12

    def test_refinement_convergence(self):
        # doubling the sample count must shrink the discretization error at
        # least linearly (empirical log-log slope >= 1)
        values = {}
        for m in (100, 200, 400, 800, 1600):
            curve = gp_curve_from_states(sample_path(PathSpec(BELL, "delta1", -3.0, 3.0, m + 1)))
            values[m] = curve[-1]
        diffs = [abs(values[2 * m] - values[m]) for m in (100, 200, 400, 800)]
        slope = np.polyfit(np.log([100, 200, 400, 800]), np.log(diffs), 1)[0]
        assert slope <= -1.0


class TestGpDerivative:
    def test_linear_series(self):
        s = np.linspace(0, 1, 11)
        deriv = gp_derivative(list(2.0 * s), s[1] - s[0])
        np.testing.assert_allclose(deriv, 2.0, atol=1e-12)

    def test_quadratic_exact_inside(self):
        s = np.linspace(-1, 1, 21)
        deriv = gp_derivative(list(3.0 * s * s), s[1] - s[0])
        np.testing.assert_allclose(deriv, 6.0 * s, atol=1e-10)

    def test_gaps_give_all_nan_and_short_input_raises(self):
        assert np.isnan(gp_derivative([0.0, None, 0.2, 0.3], 0.1)).all()
        assert np.isnan(gp_derivative([0.0, 0.1, np.nan], 0.1)).all()
        with pytest.raises(ValueError):
            gp_derivative([0.0, 0.1], 0.1)
