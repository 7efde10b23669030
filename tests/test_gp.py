import cmath
import math

import numpy as np
import pytest

from gpdiag.cascade import SystemParams
from gpdiag.gp import (
    EPS_LAMBDA,
    EPS_VIS,
    GAUGE_TOL,
    PathSpec,
    SpectralTrajectory,
    UndefinedPhaseError,
    fix_global_phase,
    gp_curve_from_states,
    gp_derivative,
    mixed_state_gp,
    pancharatnam_phase,
    sample_path,
    track_spectrum,
    unwrap_phases,
)
from gpdiag.linops import DegenerateSteadyStateError

BELL = SystemParams.scheme_i(6.0, 6.0)


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
        base = SystemParams.scheme_ii(0.0, 0.0)
        with pytest.raises(DegenerateSteadyStateError) as err:
            sample_path(PathSpec(base, "delta1", -1.0, 1.0, 3))
        assert "sample 0" in str(err.value)


class TestTrackSpectrum:
    def test_constant_pure_projector(self):
        psi = np.array([0.6, 0.0, 0.8], dtype=complex)
        states = [np.outer(psi, psi.conj())] * 5
        traj = track_spectrum(states)
        assert traj.kept_branches == (0,)
        assert traj.min_overlap >= 1.0 - 1e-12
        assert not traj.resolution_warning

    def test_scheme_ii_resonant_single_branch(self):
        base = SystemParams.scheme_ii(6.0, 6.0)
        states = sample_path(PathSpec(base, "omega1", 4.0, 6.0, 11))
        traj = track_spectrum(states)
        assert traj.kept_branches == (0,)
        np.testing.assert_allclose(traj.eigenvalues[:, 0], 1.0, atol=1e-9)

    def test_matching_follows_eigenvectors_through_crossing(self):
        states = [np.diag([0.6, 0.3, 0.1]).astype(complex),
                  np.diag([0.3, 0.6, 0.1]).astype(complex)]
        traj = track_spectrum(states)
        # branch 0 starts on e0 (lambda 0.6) and stays on e0 (lambda 0.3)
        np.testing.assert_allclose(traj.eigenvalues[1], [0.3, 0.6, 0.1], atol=1e-14)
        assert abs(traj.eigenvectors[1][0, 0]) == 1.0

    def test_ambiguous_matching_warns_without_abort(self):
        c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
        u = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        rho0 = np.diag([0.5, 0.3, 0.2]).astype(complex)
        states = [rho0, u @ rho0 @ u.T]
        traj = track_spectrum(states)
        assert traj.resolution_warning

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
        result = mixed_state_gp(track_spectrum(states))
        assert abs(result.gamma_g) <= 1e-12

    def test_qubit_circle_solid_angle(self):
        for theta in (math.pi / 6, math.pi / 3):
            states = circle_states(theta, 2001)
            result = mixed_state_gp(track_spectrum(states))
            expected = -2.0 * math.pi * math.sin(theta / 2.0) ** 2
            assert circular_delta(result.gamma_g, expected) <= 1e-3

    def test_visibility_and_branch_terms(self):
        states = sample_path(PathSpec(BELL, "delta1", -3.0, 3.0, 101))
        result = mixed_state_gp(track_spectrum(states))
        assert set(result.branch_terms) == {0, 1, 2}
        assert result.visibility > 0.1
        total = sum(result.branch_terms.values())
        assert abs(result.gamma_g - np.angle(total)) <= 1e-15

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
        with pytest.raises(UndefinedPhaseError):
            mixed_state_gp(track_spectrum(states))

    def test_undefined_without_kept_branch(self):
        # the weight moves entirely from e0 to e1, so no branch has it at both ends
        states = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
        assert track_spectrum(states).kept_branches == ()
        with pytest.raises(UndefinedPhaseError, match="no branch carries weight"):
            mixed_state_gp(track_spectrum(states))


class TestPancharatnam:
    def test_identical_states(self):
        psi = np.array([0.6, 0.8j], dtype=complex)
        assert pancharatnam_phase(psi, psi) == 0.0

    def test_global_phase(self):
        psi = np.array([1.0, 0.0], dtype=complex)
        assert abs(pancharatnam_phase(psi, np.exp(1j * math.pi / 3) * psi) - math.pi / 3) <= 1e-12

    def test_orthogonal_undefined(self):
        with pytest.raises(UndefinedPhaseError):
            pancharatnam_phase(np.array([1.0, 0.0]), np.array([0.0, 1.0]))

    def test_normalization_checked(self):
        with pytest.raises(ValueError):
            pancharatnam_phase(np.array([2.0, 0.0]), np.array([1.0, 0.0]))


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


class TestGpCurve:
    def test_two_point_curve_matches_definition(self):
        spec = PathSpec(BELL, "delta1", -0.5, 0.5, 2)
        curve = gp_curve_from_states(sample_path(spec))
        assert curve[0] == 0.0
        pair = mixed_state_gp(track_spectrum(sample_path(spec)))
        assert abs(curve[1] - pair.gamma_g) <= 1e-12

    def test_multi_point_curve_ends_at_mixed_state_gp(self):
        # the fig5 ab path: the curve's last point is the phase of the whole path
        spec = PathSpec(BELL, "delta1", -3.0, 3.0, 601)
        end = gp_curve_from_states(sample_path(spec))[-1]
        full = mixed_state_gp(track_spectrum(sample_path(spec))).gamma_g
        assert abs(math.remainder(end - full, 2 * math.pi)) <= 1e-12

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
        base = mixed_state_gp(traj).gamma_g
        for _ in range(5):
            phases = np.exp(1j * rng.uniform(0, 2 * math.pi, size=traj.eigenvectors.shape[::2]))
            rephased = SpectralTrajectory(
                traj.eigenvalues,
                traj.eigenvectors * phases[:, None, :],
                traj.kept_branches,
                traj.resolution_warning,
                traj.min_overlap,
            )
            assert abs(mixed_state_gp(rephased).gamma_g - base) <= 1e-9

    def test_pure_state_consistency_parallel_frames(self):
        # real frames are parallel transported (zero connection), so the
        # trajectory phase must equal the endpoint Pancharatnam phase
        states = []
        for t in np.linspace(0.0, 1.0, 41):
            psi = np.array([math.cos(t), math.sin(t)], dtype=complex)
            states.append(np.outer(psi, psi.conj()))
        traj = track_spectrum(states)
        result = mixed_state_gp(traj)
        psi0 = np.array([1.0, 0.0], dtype=complex)
        psi1 = np.array([math.cos(1.0), math.sin(1.0)], dtype=complex)
        assert abs(result.gamma_g - pancharatnam_phase(psi0, psi1)) <= 1e-10

    def test_pure_state_transport_correction(self):
        # single kept branch: gamma_g = endpoint Pancharatnam phase minus the
        # accumulated connection of the sampled frame
        states = circle_states(math.pi / 3, 201)
        traj = track_spectrum(states)
        result = mixed_state_gp(traj)
        k = traj.kept_branches[0]
        acc = 0.0
        for j in range(len(states) - 1):
            acc += np.angle(np.vdot(traj.eigenvectors[j][:, k], traj.eigenvectors[j + 1][:, k]))
        endpoint = np.angle(np.vdot(traj.eigenvectors[0][:, k], traj.eigenvectors[-1][:, k]))
        assert circular_delta(result.gamma_g, endpoint - acc) <= 1e-12

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

    def test_rejects_gaps_and_short_input(self):
        with pytest.raises(ValueError):
            gp_derivative([0.0, None, 0.2], 0.1)
        with pytest.raises(ValueError):
            gp_derivative([0.0, 0.1], 0.1)
