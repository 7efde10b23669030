import numpy as np
import pytest
from hypothesis import strategies as st

import gpdiag.sweep
from gpdiag.cascade import SystemParams


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)


@pytest.fixture
def worker_calls(monkeypatch):
    """Run sweep's worker processes in-process; returns (workers, function name, payloads) per parallel map."""
    calls = []

    def recording_map(fn, payloads, workers):
        calls.append((workers, fn.__name__, len(payloads)))
        return [fn(*p) for p in payloads]

    monkeypatch.setattr(gpdiag.sweep, "_map_in_workers", recording_map)
    return calls


def random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (a + a.conj().T)


def random_density(rng, n, rank=None):
    """Density matrix from a random purification."""
    rank = rank or n
    a = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_params(rng, scheme="I"):
    """Random drive parameters in the studied regime (detunings and Rabi <= 6)."""
    gamma3 = 1.0 if scheme == "I" else 0.0
    return SystemParams(
        omega1=rng.uniform(0.5, 6.0),
        omega2=rng.uniform(0.5, 6.0),
        delta1=rng.uniform(-3.0, 3.0),
        delta2=rng.uniform(-3.0, 3.0),
        gamma2=6.0,
        gamma3=gamma3,
    )


def edge_or(lo, hi):
    """A value in [lo, hi], drawn with a fair chance of the box edge 0."""
    return st.one_of(st.just(0.0), st.floats(lo, hi, allow_nan=False, allow_infinity=False))
