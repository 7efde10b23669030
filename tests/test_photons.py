import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density
from gpdiag.cascade import SystemParams, steady_state
from gpdiag.linops import hermitian_eig
from gpdiag.photons import atomic_to_photon, concurrence, embed_two_qubit, purity
from wootters import wootters_concurrence


def bell_projector():
    psi = np.array([-1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    return np.outer(psi, psi.conj())


def test_relabel_ground_to_11():
    rho = np.zeros((3, 3), dtype=complex)
    rho[0, 0] = 1.0
    out = atomic_to_photon(rho)
    assert out[2, 2] == 1.0
    assert np.trace(out) == 1.0


def test_relabel_preserves_spectrum(rng):
    rho = random_density(rng, 3)
    out = atomic_to_photon(rho)
    assert abs(np.trace(out) - np.trace(rho)) <= 1e-14
    np.testing.assert_allclose(
        hermitian_eig(out).eigenvalues, hermitian_eig(rho).eigenvalues, atol=1e-12
    )


def test_relabel_stack_equals_member_calls_bitwise(rng):
    stack = np.array([random_density(rng, 3) for _ in range(5)])
    out = atomic_to_photon(stack)
    assert out.shape == (5, 3, 3)
    for member, rho in zip(out, stack):
        assert np.array_equal(member, atomic_to_photon(rho))


def test_scheme_ii_dark_state_sign_structure():
    # steady state at two-photon resonance must be -sin(X)|00> + cos(X)|11>
    for x in (0.3, math.pi / 4, 1.1):
        p = SystemParams(6.0 * math.sin(x), 6.0 * math.cos(x), gamma3=0.0)
        rho = atomic_to_photon(steady_state(p))
        dark = np.array([-math.sin(x), 0.0, math.cos(x)])
        np.testing.assert_allclose(rho, np.outer(dark, dark), atol=1e-9)


def test_embed_basic():
    rho3 = np.diag([0.0, 0.0, 1.0]).astype(complex)
    out = embed_two_qubit(rho3)
    np.testing.assert_array_equal(out, np.diag([0, 0, 0, 1.0]))


def test_embed_keeps_trace_and_rank(rng):
    rho3 = random_density(rng, 3)
    out = embed_two_qubit(rho3)
    assert abs(np.trace(out) - 1.0) <= 1e-12
    assert np.all(out[2, :] == 0) and np.all(out[:, 2] == 0)
    w = np.linalg.eigvalsh(out)
    assert np.sum(w > 1e-12) <= 3


def test_embed_bell_regime():
    dark = np.array([-1.0, 0.0, 1.0]) / math.sqrt(2.0)
    out = embed_two_qubit(np.outer(dark, dark))
    np.testing.assert_allclose(out, bell_projector(), atol=1e-15)


def test_concurrence_bell_and_product():
    assert abs(wootters_concurrence(bell_projector()) - 1.0) <= 1e-12
    assert wootters_concurrence(np.diag([0.0, 0.0, 0.0, 1.0]).astype(complex)) == 0.0
    # spin-flipped diag(1/2,0,0,1/2) equals itself; sqrt eigenvalues (1/2,1/2,0,0)
    assert wootters_concurrence(np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)) == 0.0


def test_concurrence_superposition_law(rng):
    for _ in range(100):
        a = rng.normal() + 1j * rng.normal()
        b = rng.normal() + 1j * rng.normal()
        norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
        a, b = a / norm, b / norm
        psi = np.array([a, 0.0, 0.0, b])
        rho = np.outer(psi, psi.conj())
        assert abs(wootters_concurrence(rho) - 2.0 * abs(a) * abs(b)) <= 1e-10


def test_concurrence_matches_sin_2x():
    xs = np.linspace(0.05, math.pi / 2 - 0.05, 25)
    for x in xs:
        p = SystemParams(6.0 * math.sin(x), 6.0 * math.cos(x), gamma3=0.0)
        rho = atomic_to_photon(steady_state(p))
        assert abs(concurrence(rho) - math.sin(2 * x)) <= 1e-6


def test_concurrence_local_phase_invariance(rng):
    rho3 = random_density(rng, 3)
    rho = embed_two_qubit(rho3)
    base = wootters_concurrence(rho)
    for _ in range(10):
        theta, phi = rng.uniform(0, 2 * math.pi, size=2)
        u = np.kron(np.diag([1.0, np.exp(1j * theta)]), np.diag([1.0, np.exp(1j * phi)]))
        rotated = u @ rho @ u.conj().T
        assert abs(wootters_concurrence(rotated) - base) <= 1e-10


def test_concurrence_rejects_two_qubit_embedding():
    rho3 = random_density(np.random.default_rng(7), 3)
    with pytest.raises(ValueError, match="3x3"):
        concurrence(embed_two_qubit(rho3))


def _on_levels(rho2, levels):
    """A 2x2 density matrix placed on two photon levels of the 3x3 state."""
    out = np.zeros((3, 3), dtype=complex)
    out[np.ix_(levels, levels)] = rho2
    return out


_seed = st.integers(0, 2**32 - 1)
_unit = st.floats(0.1, 6.0)
# two-photon detuning exactly 0 or at least 1e-3 in size: nearer resonance a
# scheme-II state has eigenvalues between the oracle's 1e-13 clip and about
# 1e-8, whose square roots carry roundoff above 1e-14 into the oracle
# (1.8e-14 at a detuning of 1e-5)
_two_photon_detuning = st.one_of(st.just(0.0), st.floats(-6.0, 6.0).filter(lambda d: abs(d) >= 1e-3))


def _steady_photon_state(omega1, omega2, delta1, detuning, gamma2, scheme_ii):
    p = SystemParams(omega1, omega2, delta1, detuning - delta1, gamma2, 0.0 if scheme_ii else 1.0)
    return atomic_to_photon(steady_state(p))


def _no_coherence(seed, weight, upper):
    # a state on {|00>, |01>} plus |11>, or on {|01>, |11>} plus |00>: rho_{00,11} = 0
    rho2 = random_density(np.random.default_rng(seed), 2)
    rest = np.diag([1.0, 0.0, 0.0] if upper else [0.0, 0.0, 1.0]).astype(complex)
    return weight * _on_levels(rho2, [1, 2] if upper else [0, 1]) + (1.0 - weight) * rest


_photon_states = st.one_of(
    st.builds(lambda seed, rank: random_density(np.random.default_rng(seed), 3, rank),
              _seed, st.integers(1, 3)),
    st.builds(_steady_photon_state, _unit, _unit, st.floats(-6.0, 6.0), _two_photon_detuning,
              _unit, st.booleans()),
    st.builds(lambda seed, rank: _on_levels(random_density(np.random.default_rng(seed), 2, rank), [0, 2]),
              _seed, st.integers(1, 2)),
    st.builds(_no_coherence, _seed, st.floats(0.0, 1.0), st.booleans()),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(rho3=_photon_states)
def test_concurrence_is_wootters_without_10_level(rho3):
    """2 |rho_{00,11}| equals the spin-flip concurrence of the embedded state: random
    states of rank 1-3, scheme-I/II steady states, no |01> population, no coherence."""
    # the oracle clips eigenvalues below 1e-13 to zero, and a clipped eigenvalue
    # may move rho_{00,11} by its size; a solver state can carry such small ones
    # of either sign (down to -2.5e-12 at drives and gamma2 of 0.1, scheme II)
    w = np.linalg.eigvalsh(rho3)
    tol = 1e-14 + 2.0 * np.abs(w[w < 1e-13]).sum()
    assert abs(concurrence(rho3) - wootters_concurrence(embed_two_qubit(rho3))) <= tol


def test_purity():
    dark = np.array([-0.6, 0.0, 0.8])
    assert abs(purity(np.outer(dark, dark)) - 1.0) <= 1e-12
    assert abs(purity(np.eye(3) / 3.0) - 1.0 / 3.0) <= 1e-14


def test_purity_matches_eigenvalue_sum():
    rho = atomic_to_photon(steady_state(SystemParams(6.0, 6.0)))
    w, _ = hermitian_eig(rho)
    assert 1.0 / 3.0 < purity(rho) < 1.0
    assert abs(purity(rho) - np.sum(w**2)) <= 1e-12


def test_concurrence_and_purity_take_stacks():
    rhos = np.array([np.outer(v, v) for v in ([-0.6, 0.0, 0.8], [1.0, 0.0, 0.0])])
    np.testing.assert_allclose(concurrence(rhos), [0.96, 0.0], atol=1e-15)
    np.testing.assert_allclose(purity(rhos), [1.0, 1.0], atol=1e-15)
    with pytest.raises(ValueError, match="3x3"):
        concurrence(np.zeros((2, 4, 4)))


# steady states at omega1 = 0 have rho_{00,11} exactly 0
_steady_stacks = st.lists(st.builds(_steady_photon_state, st.one_of(st.just(0.0), _unit), _unit,
                                    st.floats(-6.0, 6.0), st.floats(-6.0, 6.0), _unit, st.booleans()),
                          min_size=1, max_size=8)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(states=_steady_stacks)
def test_stacked_calls_equal_single_calls_bitwise(states):
    """purity, concurrence and hermitian_eig on a stack give each member's own call, bit for bit,
    and concurrence is 2 abs(rho[0, 2]) with the scalar abs, as the per-point pipeline wrote it."""
    rhos = np.array(states)
    assert np.array_equal(purity(rhos), [purity(rho) for rho in states])
    assert np.array_equal(concurrence(rhos), [concurrence(rho) for rho in states])
    assert np.array_equal(concurrence(rhos), [2.0 * float(abs(rho[0, 2])) for rho in states])
    eig = hermitian_eig(rhos)
    for i, rho in enumerate(states):
        single = hermitian_eig(rho)
        assert np.array_equal(eig.eigenvalues[i], single.eigenvalues)
        assert np.array_equal(eig.eigenvectors[i], single.eigenvectors)
