"""Driven three-level cascade: rotating-frame Hamiltonian, master equation, steady state.

Atomic basis ordering is (|1>, |2>, |3>) = (ground, intermediate, top), indices
0, 1, 2.  All rates and frequencies are dimensionless, in units of gamma = 1 MHz.
The ground state is stable (no decay out of |1>).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from gpdiag.linops import hermitian_basis, null_space_unit_trace

DEFAULT_GAMMA2 = 6.0   # 5P_3/2 linewidth of 87Rb in MHz
DEFAULT_GAMMA3_REAL = 1.0   # metastable top level ("scheme I")
DEFAULT_GAMMA3_IDEAL = 0.0  # infinitely long-lived top level ("scheme II")

_I3 = np.eye(3, dtype=complex)
_LOWER_21 = np.outer(_I3[0], _I3[1])   # |1><2|
_LOWER_32 = np.outer(_I3[1], _I3[2])   # |2><3|


class ConfigError(ValueError):
    """An invalid parameter value, path, sweep configuration or recipe argument, in one line."""


def as_count(name: str, value) -> int:
    """value as an int where it is an integer (a numpy integer too); anything else raises ConfigError naming it."""
    try:
        return operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class SystemParams:
    """Control and decay parameters of the driven cascade (units of gamma = 1 MHz); the one check of a value.

    Every field is finite, so is delta1 + delta2, and the drives omega1, omega2 and the decay rates gamma2, gamma3
    are >= 0; any other value raises ConfigError, naming the field and the value.
    """

    omega1: float
    omega2: float
    delta1: float = 0.0
    delta2: float = 0.0
    gamma2: float = DEFAULT_GAMMA2
    gamma3: float = DEFAULT_GAMMA3_REAL

    def __post_init__(self):
        for name in ("omega1", "omega2", "delta1", "delta2", "gamma2", "gamma3"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        if not math.isfinite(self.delta1 + self.delta2):
            raise ConfigError(f"delta1 + delta2 must be finite, got {self.delta1!r} + {self.delta2!r}")
        for name in ("omega1", "omega2", "gamma2", "gamma3"):
            if (value := getattr(self, name)) < 0:
                raise ConfigError(f"{name} must be >= 0, got {value!r}")


def build_hamiltonian(p: SystemParams) -> np.ndarray:
    """Rotating-frame Hamiltonian (hbar = 1).

    H = -delta1 |2><2| - (delta1 + delta2) |3><3|
        + omega1 (|2><1| + |1><2|) + omega2 (|3><2| + |2><3|)

    The frame rotates at the two drive frequencies, so optical carriers drop
    out; there is no direct 1<->3 dipole coupling.
    """
    h = np.zeros((3, 3), dtype=complex)
    h[0, 1] = h[1, 0] = p.omega1
    h[1, 2] = h[2, 1] = p.omega2
    h[1, 1] = -p.delta1
    h[2, 2] = -(p.delta1 + p.delta2)
    return h


def lindblad_rhs(p: SystemParams, rho: np.ndarray) -> np.ndarray:
    """rho_dot = -i[H, rho] + gamma2 D[|1><2|] rho + gamma3 D[|2><3|] rho, for a state or an (..., 3, 3) stack.

    D[L] rho = L rho L^dag - (L^dag L rho + rho L^dag L) / 2.  Trace-preserving
    by construction.
    """
    h = build_hamiltonian(p)
    rho = np.asarray(rho, dtype=complex)
    out = -1j * (h @ rho - rho @ h)
    for rate, c in ((p.gamma2, _LOWER_21), (p.gamma3, _LOWER_32)):
        cdc = c.conj().T @ c
        out += rate * (c @ rho @ c.conj().T - 0.5 * (cdc @ rho + rho @ cdc))
    return out


def _generator_table() -> np.ndarray:
    """(81, 6) real G with liouvillian(p) = (G @ theta).reshape(9, 9), theta = (omega1, omega2, delta1,
    delta1 + delta2, gamma2, gamma3): lindblad_rhs is linear in theta, so column k is the generator at
    theta = e_k, read off lindblad_rhs on the nine basis matrices of hermitian_basis(3)."""
    t = hermitian_basis(3)
    basis = t.T.reshape(9, 3, 3)
    units = [SystemParams(w1, w2, d1, d12 - d1, g2, g3) for w1, w2, d1, d12, g2, g3 in np.eye(6).tolist()]
    images = np.array([lindblad_rhs(u, basis).reshape(9, 9).T for u in units])  # column j: vec of L B_j
    return (t.conj().T @ images).real.reshape(6, 81).T.copy()


_GENERATORS = _generator_table()


def liouvillian(p: SystemParams) -> np.ndarray:
    """Real 9x9 generator in the coordinates of linops.hermitian_basis(3), divided by 2^k.

    k is the binary exponent of max |theta_k| (math.frexp), so no entry
    overflows, and a positive factor changes neither the null space nor the
    ratios of the singular values.  The scaling is exact except for a
    coefficient that it makes subnormal.  With T that basis, 2^k T @ L @ T^dag
    is the superoperator of lindblad_rhs on the row-major vec.
    """
    d12 = p.delta1 + p.delta2
    shift = -math.frexp(max(p.omega1, p.omega2, abs(p.delta1), abs(d12), p.gamma2, p.gamma3))[1]
    # ldexp per coefficient: the factor 2^-k alone overflows when max |theta_k| is subnormal
    theta = np.array([math.ldexp(p.omega1, shift), math.ldexp(p.omega2, shift), math.ldexp(p.delta1, shift),
                      math.ldexp(d12, shift), math.ldexp(p.gamma2, shift), math.ldexp(p.gamma3, shift)])
    return (_GENERATORS @ theta).reshape(9, 9)


def steady_state(p: SystemParams) -> np.ndarray:
    """Unique fixed point of the master equation, as a 3x3 atomic density matrix.

    Solved exactly from the null space of the real Liouvillian, which
    liouvillian() scales by a power of two, so the state depends only on the
    direction of theta.  Raises NoSteadyStateError where
    linops.null_space_unit_trace finds no positive semidefinite state.
    """
    return null_space_unit_trace(liouvillian(p))
