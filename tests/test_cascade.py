import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density, random_params
from gpdiag.cascade import (SystemParams, _max_stable_dt, _rk4_step_matrix, build_hamiltonian, evolve,
                            lindblad_rhs, liouvillian, steady_state)
from gpdiag.linops import DegenerateSteadyStateError, hermitian_eig, unvec, vec


def ket(i):
    v = np.zeros(3, dtype=complex)
    v[i] = 1.0
    return v


def projector(i):
    return np.outer(ket(i), ket(i).conj())


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            SystemParams(-1.0, 1.0)
        with pytest.raises(ValueError):
            SystemParams(1.0, 1.0, gamma2=-0.1)
        with pytest.raises(ValueError):
            SystemParams(float("nan"), 1.0)

    def test_derived_accessors(self):
        p = SystemParams(3.0, 4.0, 1.0, 0.5, gamma2=6.0)
        assert p.two_photon_detuning == 1.5
        assert p.total_rabi == 5.0
        assert abs(p.mixing_angle - math.atan2(3.0, 4.0)) < 1e-15
        assert abs(p.delta_bar - 1.5 / 5.0) < 1e-15
        assert abs(p.gamma21 - 0.6) < 1e-15

    def test_scheme_constructors(self):
        assert SystemParams.scheme_i(6, 6).gamma3 == 1.0
        assert SystemParams.scheme_ii(6, 6).gamma3 == 0.0


class TestHamiltonian:
    def test_all_zero(self):
        h = build_hamiltonian(SystemParams(0, 0, 0, 0))
        assert np.all(h == 0)

    def test_resonant_eigenvalues(self):
        h = build_hamiltonian(SystemParams(3, 4, 0, 0))
        w, _ = hermitian_eig(h)
        np.testing.assert_allclose(w, [-5, 0, 5], atol=1e-12)

    def test_hermitian_no_direct_13(self, rng):
        for _ in range(10):
            p = random_params(rng)
            h = build_hamiltonian(p)
            assert np.max(np.abs(h - h.conj().T)) == 0
            assert h[0, 2] == 0 and h[2, 0] == 0


class TestLindbladRhs:
    def test_ground_dark_without_drive(self):
        p = SystemParams(0, 0, 0, 0, 6.0, 1.0)
        out = lindblad_rhs(p, projector(0))
        assert np.max(np.abs(out)) == 0

    def test_trace_preserved(self, rng):
        for _ in range(20):
            p = random_params(rng)
            rho = random_density(rng, 3)
            assert abs(np.trace(lindblad_rhs(p, rho))) <= 1e-12

    def test_pure_cascade_decay(self):
        p = SystemParams(0, 0, 0, 0, gamma2=6.0, gamma3=1.0)
        out = lindblad_rhs(p, projector(2))
        expected = p.gamma3 * (projector(1) - projector(2))
        np.testing.assert_allclose(out, expected, atol=1e-14)


class TestLiouvillian:
    def test_matches_rhs_on_random_states(self, rng):
        for _ in range(20):
            p = random_params(rng, scheme="I" if rng.uniform() < 0.5 else "II")
            rho = random_density(rng, 3)
            direct = lindblad_rhs(p, rho)
            via_super = (liouvillian(p) @ vec(rho)).reshape(3, 3)
            assert np.max(np.abs(direct - via_super)) <= 1e-12

    def test_zero_params_zero_matrix(self):
        ell = liouvillian(SystemParams(0, 0, 0, 0, gamma2=0.0, gamma3=0.0))
        assert np.all(ell == 0)

    def test_trace_preservation_row(self, rng):
        p = random_params(rng)
        ell = liouvillian(p)
        row = vec(np.eye(3)).conj() @ ell
        assert np.max(np.abs(row)) <= 1e-12


def _edge_or(lo, hi):
    """A value in [lo, hi], drawn with a fair chance of the box edge 0."""
    return st.one_of(st.just(0.0), st.floats(lo, hi, allow_nan=False, allow_infinity=False))


_box_params = st.builds(SystemParams, omega1=_edge_or(0.0, 6.0), omega2=_edge_or(0.0, 6.0),
                        delta1=_edge_or(-6.0, 6.0), delta2=_edge_or(-6.0, 6.0),
                        gamma2=_edge_or(0.0, 6.0), gamma3=_edge_or(0.0, 6.0))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(p=_box_params, seed=st.integers(0, 2**32 - 1), dt_fraction=st.floats(0.01, 1.0))
def test_generator_on_parameter_box(p, seed, dt_fraction):
    """liouvillian() against the matrix-form oracle, and the RK4 step built from it,
    over the box including undriven points and vanishing decay rates."""
    ell = liouvillian(p)
    rho = random_density(np.random.default_rng(seed), 3)
    scale = max(1.0, p.omega1, p.omega2, abs(p.delta1), abs(p.delta2), p.gamma2, p.gamma3)
    assert np.max(np.abs(unvec(ell @ vec(rho), 3) - lindblad_rhs(p, rho))) <= 1e-12 * scale
    assert np.max(np.abs(vec(np.eye(3)).conj() @ ell)) <= 1e-12 * scale

    dt = dt_fraction * _max_stable_dt(p)
    a = dt * ell
    taylor = np.eye(9) + a + a @ a / 2 + a @ a @ a / 6 + a @ a @ a @ a / 24
    assert np.max(np.abs(_rk4_step_matrix(p, dt) - taylor)) <= 1e-12


class TestSteadyState:
    def test_scheme_ii_dark_state(self):
        p = SystemParams.scheme_ii(6.0, 6.0)
        rho = steady_state(p)
        w, v = hermitian_eig(rho)
        np.testing.assert_allclose(np.sort(w), [0.0, 0.0, 1.0], atol=1e-10)
        dark = np.array([1.0, 0.0, -1.0]) / math.sqrt(2.0)  # atomic basis
        fidelity = abs(np.vdot(dark, v[:, -1])) ** 2
        assert fidelity >= 1.0 - 1e-10

    def test_undriven_scheme_i_ground(self):
        rho = steady_state(SystemParams(0, 0, 0, 0, 6.0, 1.0))
        np.testing.assert_allclose(rho, projector(0), atol=1e-12)

    def test_undriven_scheme_ii_degenerate(self):
        with pytest.raises(DegenerateSteadyStateError):
            steady_state(SystemParams(0, 0, 0, 0, 6.0, 0.0))

    def test_matches_long_time_evolution(self):
        p = SystemParams.scheme_i(6.0, 6.0)
        direct = steady_state(p)
        dt = 0.01 / 6.0
        evolved = evolve(p, projector(0), 50.0, dt)
        assert np.max(np.abs(direct - evolved)) <= 1e-6

    def test_positivity_grid(self):
        for gamma3 in (1.0, 0.0):
            for d1 in np.linspace(-6, 6, 20):
                for o1 in np.linspace(0.5, 6, 20):
                    rho = steady_state(SystemParams(o1, 6.0, d1, 0.0, 6.0, gamma3))
                    w, _ = hermitian_eig(rho)
                    assert w.min() >= -1e-10

    def test_dark_state_family(self):
        for x in np.linspace(0.03, math.pi / 2 - 0.03, 50):
            p = SystemParams.scheme_ii(6.0 * math.sin(x), 6.0 * math.cos(x))
            w, v = hermitian_eig(steady_state(p))
            assert abs(w[-1] - 1.0) <= 1e-8
            dark = np.array([math.cos(x), 0.0, -math.sin(x)])  # atomic basis
            assert abs(np.vdot(dark, v[:, -1])) ** 2 >= 1.0 - 1e-8

    def test_fixed_point_residual(self, rng):
        for _ in range(10):
            p = random_params(rng, scheme="I" if rng.uniform() < 0.5 else "II")
            rho = steady_state(p)
            assert np.max(np.abs(lindblad_rhs(p, rho))) <= 1e-8

    def test_scheme_i_purity_peaks_on_resonance(self):
        deltas = np.linspace(-2, 2, 41)
        largest = []
        for d in deltas:
            w, _ = hermitian_eig(steady_state(SystemParams.scheme_i(6.0, 6.0, d, 0.0)))
            largest.append(w[-1])
        largest = np.array(largest)
        assert deltas[np.argmax(largest)] == 0.0
        assert largest.max() < 1.0


class TestEvolve:
    def test_zero_horizon_returns_input(self, rng):
        p = random_params(rng)
        rho0 = random_density(rng, 3)
        np.testing.assert_array_equal(evolve(p, rho0, 0.0, 1e-3), rho0)

    def test_exponential_decay(self):
        p = SystemParams(0, 0, 0, 0, gamma2=6.0, gamma3=1.0)
        rho = evolve(p, projector(1), 1.0, 0.01 / 6.0)
        assert abs(rho[1, 1].real - math.exp(-6.0)) <= 1e-6

    def test_rk4_order_of_convergence(self):
        p = SystemParams.scheme_i(3.0, 4.0, 1.0, 0.0)
        rho0 = projector(0)
        dt = 0.01 / 6.0
        coarse = evolve(p, rho0, 2.0, dt, renormalize=False)
        mid = evolve(p, rho0, 2.0, dt / 2.0, renormalize=False)
        fine = evolve(p, rho0, 2.0, dt / 4.0, renormalize=False)
        err_coarse = np.max(np.abs(coarse - mid))
        err_mid = np.max(np.abs(mid - fine))
        ratio = err_coarse / err_mid
        assert 10.0 < ratio < 25.0, f"expected ~16x error reduction, got {ratio:.1f}"

    def test_step_and_horizon_validation(self):
        p = SystemParams.scheme_i(6.0, 6.0)
        with pytest.raises(ValueError):
            evolve(p, projector(0), 1.0, 0.01)  # above stability bound
        with pytest.raises(ValueError):
            evolve(p, projector(0), -1.0, 1e-3)
        with pytest.raises(ValueError):
            evolve(p, projector(0), 1.0, 0.0)

    def test_drift_per_unit_time(self):
        p = SystemParams.scheme_i(6.0, 6.0, 1.0, 0.0)
        raw = evolve(p, projector(0), 10.0, 0.01 / 6.0, renormalize=False)
        assert abs(np.trace(raw).real - 1.0) <= 1e-9 * 10.0
        assert abs(np.trace(raw).imag) <= 1e-9 * 10.0
        assert np.max(np.abs(raw - raw.conj().T)) <= 1e-9 * 10.0
