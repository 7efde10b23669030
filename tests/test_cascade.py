import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ideal_oracle as oracle
from conftest import edge_or, random_density, random_params
from gpdiag.cascade import (DEFAULT_GAMMA2, DEFAULT_GAMMA3_IDEAL, DEFAULT_GAMMA3_REAL, ConfigError, SystemParams,
                            build_hamiltonian, lindblad_rhs, liouvillian, steady_state)
from gpdiag.linops import NoSteadyStateError, hermitian_eig
from gpdiag.photons import concurrence, purity
from kron_oracle import coordinates, kron_liouvillian, kron_steady_state, lift, unit_scaled, unvec, vec
from rk4_oracle import _max_stable_dt, _rk4_step_matrix, evolve


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

    # every field must be finite, and every field but the detunings >= 0
    @pytest.mark.parametrize("field, value, rule", [
        (field, value, rule) for field in ("omega1", "omega2", "delta1", "delta2", "gamma2", "gamma3")
        for value, rule in ((-1.0, ">= 0"), (math.nan, "finite"), (math.inf, "finite"), (-math.inf, "finite"))
        if rule == "finite" or not field.startswith("delta")])
    def test_every_field_is_checked_by_name(self, field, value, rule):
        # the one check of a parameter value: the CLI, the sweep config and the recipes all print this message
        with pytest.raises(ConfigError) as err:
            replace(SystemParams(1.0, 1.0), **{field: value})
        assert type(err.value) is ConfigError
        assert str(err.value) == f"{field} must be {rule}, got {value!r}"

    def test_two_photon_detuning_must_be_finite(self):
        with pytest.raises(ConfigError, match="^delta1 \\+ delta2 must be finite, got 1e\\+308 \\+ 1e\\+308$"):
            SystemParams(1.0, 1.0, delta1=1e308, delta2=1e308)
        assert oracle.two_photon_detuning(SystemParams(1.0, 1.0, delta1=1e308, delta2=-1e308)) == 0.0

    def test_derived_accessors(self):
        p = SystemParams(3.0, 4.0, 1.0, 0.5, gamma2=6.0)
        assert oracle.two_photon_detuning(p) == 1.5
        assert oracle.total_rabi(p) == 5.0
        assert abs(oracle.mixing_angle(p) - math.atan2(3.0, 4.0)) < 1e-15
        assert abs(oracle.delta_bar(p) - 1.5 / 5.0) < 1e-15
        assert abs(oracle.gamma21(p) - 0.6) < 1e-15

    def test_default_rates_are_scheme_i(self):
        p = SystemParams(6, 6)
        assert (p.gamma2, p.gamma3) == (DEFAULT_GAMMA2, DEFAULT_GAMMA3_REAL) == (6.0, 1.0)
        assert DEFAULT_GAMMA3_IDEAL == 0.0


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
            direct = lindblad_rhs(unit_scaled(p), rho)
            via_super = (lift(liouvillian(p)) @ vec(rho)).reshape(3, 3)
            assert np.max(np.abs(direct - via_super)) <= 1e-12

    def test_zero_params_zero_matrix(self):
        ell = liouvillian(SystemParams(0, 0, 0, 0, gamma2=0.0, gamma3=0.0))
        assert np.all(ell == 0)

    def test_trace_preservation_row(self, rng):
        p = random_params(rng)
        ell = liouvillian(p)
        row = coordinates(np.eye(3)) @ ell
        assert np.max(np.abs(row)) <= 1e-12

    @pytest.mark.parametrize("p, largest, smallest", [pytest.param(p, *s, id=repr(p)) for p, s in [
        (SystemParams(1.7e308, 1.7e308), ("2.675e+00", "1.620e-309")),
        (SystemParams(1.7e308, 0.0), ("1.891e+00", "5.563e-309")),
        (SystemParams(0.0, 1.7e308, delta1=1.7e308, delta2=-1.7e308), ("2.115e+00", "0.000e+00")),
    ]])
    def test_overflowing_generator_is_no_steady_state(self, p, largest, smallest):
        # the scaled generator is finite, and beside drives at the float limit the decay rates fall below the
        # rank threshold; the suite turns a RuntimeWarning into an error, so this also checks that nothing warns
        assert np.isfinite(liouvillian(p)).all()
        with pytest.raises(NoSteadyStateError) as err:
            steady_state(p)
        assert type(err.value) is NoSteadyStateError
        assert str(err.value) == (f"null space has dimension 3 (singular values <= 1e-09 x largest {largest}, "
                                  f"smallest {smallest})")


_box_params = st.builds(SystemParams, omega1=edge_or(0.0, 6.0), omega2=edge_or(0.0, 6.0),
                        delta1=edge_or(-6.0, 6.0), delta2=edge_or(-6.0, 6.0),
                        gamma2=edge_or(0.0, 6.0), gamma3=edge_or(0.0, 6.0))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(p=_box_params, seed=st.integers(0, 2**32 - 1), dt_fraction=st.floats(0.01, 1.0))
def test_generator_on_parameter_box(p, seed, dt_fraction):
    """liouvillian() against the matrix-form oracle, and the RK4 step of the kron form against it,
    over the box including undriven points and vanishing decay rates; both oracles run at the parameters
    that unit_scaled divides by the generator's power of two."""
    q = unit_scaled(p)
    ell = lift(liouvillian(p))
    rho = random_density(np.random.default_rng(seed), 3)
    scale = max(1.0, q.omega1, q.omega2, abs(q.delta1), abs(q.delta2), q.gamma2, q.gamma3)
    assert np.max(np.abs(unvec(ell @ vec(rho), 3) - lindblad_rhs(q, rho))) <= 1e-12 * scale
    assert np.max(np.abs(coordinates(np.eye(3)) @ liouvillian(p))) <= 1e-12 * scale

    dt = dt_fraction * _max_stable_dt(q)
    a = dt * ell
    taylor = np.eye(9) + a + a @ a / 2 + a @ a @ a / 6 + a @ a @ a @ a / 24
    assert np.max(np.abs(_rk4_step_matrix(q, dt) - taylor)) <= 1e-12


_EDGE_POINTS = [
    SystemParams(3.0, 4.0, 0.5, -1.5, gamma2=0.0, gamma3=0.0),
    SystemParams(0.0, 0.0, 0.0, 0.0, gamma2=0.0, gamma3=0.0),
    SystemParams(0.0, 0.0, 1.0, 2.0),
    SystemParams(0.0, 6.0, -2.0, 0.0),
    SystemParams(6.0, 0.0, 0.0, -2.0, gamma3=0.0),
    SystemParams(3.0, 4.0, -0.0, -0.0),
    SystemParams(3.0, 4.0, -0.0, 0.0, gamma3=0.0),
    SystemParams(3.0, 4.0, 0.0, -0.0),
    SystemParams(3.0, 4.0, -2.5, -3.5),
    SystemParams(3.0, 4.0, -2.5, 2.5, gamma3=0.0),
    SystemParams(1e308, 1e308),
]


def _check_against_kron_form(p):
    """T L T^dag is the kron form at the same power-of-two scale, and the real generator has its singular values."""
    q = unit_scaled(p)
    ell, kron = liouvillian(p), kron_liouvillian(q)
    scale = max(1.0, q.omega1, q.omega2, abs(q.delta1), abs(q.delta2), q.gamma2, q.gamma3)
    assert ell.dtype == np.float64
    assert np.max(np.abs(lift(ell) - kron)) <= 4e-15 * scale
    np.testing.assert_allclose(np.linalg.svd(ell, compute_uv=False), np.linalg.svd(kron, compute_uv=False),
                               rtol=0.0, atol=2e-14 * scale)


@pytest.mark.parametrize("p", _EDGE_POINTS, ids=repr)
def test_liouvillian_is_the_kron_form_at_edges(p):
    _check_against_kron_form(p)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(p=_box_params)
def test_liouvillian_is_the_kron_form_on_parameter_box(p):
    _check_against_kron_form(p)


def _steady_state_points():
    """50 seeded points: schemes I and II, each at and off two-photon resonance."""
    rng = np.random.default_rng(20261018)
    points = []
    for k in range(50):
        p = random_params(rng, scheme="I" if k % 2 == 0 else "II")
        points.append(replace(p, delta2=-p.delta1) if k % 4 < 2 else p)
    return points


def test_steady_state_matches_kron_oracle():
    points = _steady_state_points()
    assert sum(oracle.two_photon_detuning(p) == 0.0 for p in points) == 26
    for p in points:
        assert np.max(np.abs(steady_state(p) - kron_steady_state(p))) <= 1e-13


def _outcome(solve, p):
    try:
        return solve(p)
    except NoSteadyStateError as err:
        return type(err)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(p=_box_params)
def test_steady_state_matches_kron_oracle_on_parameter_box(p):
    """Same exception class as the complex solve, else the same state within 64 eps s_0 / s_-2,
    the first-order bound on the null vector's rounding (s_-2 is the gap to the next singular value)."""
    got, expected = _outcome(steady_state, p), _outcome(kron_steady_state, p)
    if isinstance(expected, type):
        assert got is expected
        return
    assert not isinstance(got, type), f"{got.__name__} where the complex solve finds a steady state"
    s = np.linalg.svd(kron_liouvillian(p), compute_uv=False)
    assert np.max(np.abs(got - expected)) <= 64 * np.finfo(float).eps * s[0] / s[-2]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(p=_box_params, j=st.sampled_from([-1000, -40, 1, 40, 1000]))
def test_steady_state_is_scale_free(p, j):
    """Multiplying the six coefficients by 2^j scales the generator exactly, so wherever no scaled coefficient
    is subnormal (or rounds to 0) the steady state is bitwise the same, or both points have none."""
    coefficients = (p.omega1, p.omega2, p.delta1, p.delta2, p.gamma2, p.gamma3)
    q = SystemParams(*(math.ldexp(v, j) for v in coefficients))
    assume(all(v == 0.0 or abs(math.ldexp(v, j)) >= np.finfo(float).tiny
               for v in coefficients + (p.delta1 + p.delta2,)))
    got, expected = _outcome(steady_state, q), _outcome(steady_state, p)
    if isinstance(expected, type):
        assert got is expected
        return
    assert not isinstance(got, type), f"{got.__name__} where the unscaled point has a steady state"
    assert got.tobytes() == expected.tobytes()


# rho -> U rho* U with U = diag(1, -1, 1) flips the sign of these hermitian_basis(3) coordinates:
# the symmetric (1, 2) and (2, 3) ones and the antisymmetric (1, 3) one
_MIRROR = np.diag([1.0, 1.0, 1.0, -1.0, 1.0, 1.0, -1.0, -1.0, 1.0])
_U = np.diag([1.0, -1.0, 1.0])


def _check_detuning_mirror(p):
    """Negating both detunings conjugates the generator by pure sign flips, so the steady state becomes
    U rho* U, with the same gap decision, concurrence and purity."""
    q = replace(p, delta1=-p.delta1, delta2=-p.delta2)
    np.testing.assert_array_equal(liouvillian(q), _MIRROR @ liouvillian(p) @ _MIRROR)
    rho, mirrored = _outcome(steady_state, p), _outcome(steady_state, q)
    if isinstance(rho, type):
        assert mirrored is rho
        return
    assert not isinstance(mirrored, type), f"{mirrored.__name__} at the mirror of a steady state"
    np.testing.assert_allclose(mirrored, _U @ rho.conj() @ _U, rtol=0.0, atol=1e-13)
    assert abs(concurrence(mirrored) - concurrence(rho)) <= 1e-13
    assert abs(purity(mirrored) - purity(rho)) <= 1e-13


@pytest.mark.parametrize("scheme", ["I", "II"])
def test_detuning_mirror_in_the_studied_regime(scheme, rng):
    for _ in range(100):
        _check_detuning_mirror(random_params(rng, scheme))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(p=_box_params)
def test_detuning_mirror_on_parameter_box(p):
    _check_detuning_mirror(p)


class TestSteadyState:
    def test_scheme_ii_dark_state(self):
        p = SystemParams(6.0, 6.0, gamma3=0.0)
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
        with pytest.raises(NoSteadyStateError, match="null space has dimension 4 "):
            steady_state(SystemParams(0, 0, 0, 0, 6.0, 0.0))

    def test_matches_long_time_evolution(self):
        p = SystemParams(6.0, 6.0)
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
            p = SystemParams(6.0 * math.sin(x), 6.0 * math.cos(x), gamma3=0.0)
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
            w, _ = hermitian_eig(steady_state(SystemParams(6.0, 6.0, d, 0.0)))
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
        p = SystemParams(3.0, 4.0, 1.0, 0.0)
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
        p = SystemParams(6.0, 6.0)
        with pytest.raises(ValueError):
            evolve(p, projector(0), 1.0, 0.01)  # above stability bound
        with pytest.raises(ValueError):
            evolve(p, projector(0), -1.0, 1e-3)
        with pytest.raises(ValueError):
            evolve(p, projector(0), 1.0, 0.0)

    def test_drift_per_unit_time(self):
        p = SystemParams(6.0, 6.0, 1.0, 0.0)
        raw = evolve(p, projector(0), 10.0, 0.01 / 6.0, renormalize=False)
        assert abs(np.trace(raw).real - 1.0) <= 1e-9 * 10.0
        assert abs(np.trace(raw).imag) <= 1e-9 * 10.0
        assert np.max(np.abs(raw - raw.conj().T)) <= 1e-9 * 10.0
