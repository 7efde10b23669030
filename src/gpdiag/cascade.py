"""Driven three-level cascade: rotating-frame Hamiltonian, dissipators, steady state.

Atomic basis ordering is (|1>, |2>, |3>) = (ground, intermediate, top), indices
0, 1, 2.  All rates and frequencies are dimensionless, in units of gamma = 1 MHz.
The ground state is stable (no decay out of |1>).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from gpdiag.linops import NoSteadyStateError, null_space_unit_trace, unvec, vec

DEFAULT_GAMMA2 = 6.0   # 5P_3/2 linewidth of 87Rb in MHz
DEFAULT_GAMMA3_REAL = 1.0   # metastable top level ("scheme I")
DEFAULT_GAMMA3_IDEAL = 0.0  # infinitely long-lived top level ("scheme II")

_I3 = np.eye(3, dtype=complex)
_LOWER_21 = np.outer(_I3[0], _I3[1])   # |1><2|
_LOWER_32 = np.outer(_I3[1], _I3[2])   # |2><3|


def _dissipator(c: np.ndarray) -> np.ndarray:
    """D[c] rho = c rho c^dag - (c^dag c rho + rho c^dag c) / 2 on the row-major vec."""
    cdc = c.conj().T @ c
    return np.kron(c, c.conj()) - 0.5 * np.kron(cdc, _I3) - 0.5 * np.kron(_I3, cdc.T)


_D21 = _dissipator(_LOWER_21)
_D32 = _dissipator(_LOWER_32)


@dataclass(frozen=True)
class SystemParams:
    """Control and decay parameters of the driven cascade (units of gamma = 1 MHz)."""

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
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not math.isfinite(self.delta1 + self.delta2):
            raise ValueError(f"delta1 + delta2 must be finite, got {self.delta1!r} + {self.delta2!r}")
        if self.omega1 < 0 or self.omega2 < 0:
            raise ValueError("Rabi frequencies must be >= 0")
        if self.gamma2 < 0 or self.gamma3 < 0:
            raise ValueError("decay rates must be >= 0")

    @classmethod
    def scheme_i(cls, omega1, omega2, delta1=0.0, delta2=0.0,
                 gamma2=DEFAULT_GAMMA2, gamma3=DEFAULT_GAMMA3_REAL) -> "SystemParams":
        """Real system: metastable top level."""
        return cls(omega1, omega2, delta1, delta2, gamma2, gamma3)

    @classmethod
    def scheme_ii(cls, omega1, omega2, delta1=0.0, delta2=0.0,
                  gamma2=DEFAULT_GAMMA2) -> "SystemParams":
        """Ideal system: no decay of the top level, decoherence-free two-photon state."""
        return cls(omega1, omega2, delta1, delta2, gamma2, DEFAULT_GAMMA3_IDEAL)

    def with_value(self, name: str, value: float) -> "SystemParams":
        return replace(self, **{name: value})

    @property
    def two_photon_detuning(self) -> float:
        return self.delta1 + self.delta2

    @property
    def total_rabi(self) -> float:
        """sqrt(omega1^2 + omega2^2)."""
        return math.hypot(self.omega1, self.omega2)

    @property
    def mixing_angle(self) -> float:
        """X = arctan(omega1 / omega2), in [0, pi/2]."""
        return math.atan2(self.omega1, self.omega2)

    @property
    def delta_bar(self) -> float:
        """Two-photon detuning scaled by the total Rabi frequency."""
        return self.two_photon_detuning / self.total_rabi

    @property
    def gamma21(self) -> float:
        """gamma2 / (2 sqrt(omega1^2 + omega2^2))."""
        return self.gamma2 / (2.0 * self.total_rabi)


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
    """rho_dot = -i[H, rho] + gamma2 D[|1><2|] rho + gamma3 D[|2><3|] rho.

    D[L] rho = L rho L^dag - (L^dag L rho + rho L^dag L) / 2.  Trace-preserving
    by construction.
    """
    h = build_hamiltonian(p)
    rho = np.asarray(rho, dtype=complex)
    out = -1j * (h @ rho - rho @ h)
    for rate, c in ((p.gamma2, _LOWER_21), (p.gamma3, _LOWER_32)):
        if rate == 0.0:
            continue
        cdc = c.conj().T @ c
        out += rate * (c @ rho @ c.conj().T - 0.5 * (cdc @ rho + rho @ cdc))
    return out


def liouvillian(p: SystemParams) -> np.ndarray:
    """9x9 superoperator L with unvec(L vec(rho)) = lindblad_rhs(p, rho)."""
    h = build_hamiltonian(p)
    return -1j * (np.kron(h, _I3) - np.kron(_I3, h.T)) + p.gamma2 * _D21 + p.gamma3 * _D32


def steady_state(p: SystemParams) -> np.ndarray:
    """Unique fixed point of the master equation, as a 3x3 atomic density matrix.

    Solved exactly from the null space of the Liouvillian.  Raises
    NoSteadyStateError from linops when the null space is not one-dimensional
    (DegenerateSteadyStateError, its subclass, when it is larger), and
    NoSteadyStateError when the null vector is not positive semidefinite.
    """
    rho = null_space_unit_trace(liouvillian(p))
    low = float(np.linalg.eigvalsh(rho).min())
    if low < -1e-10:
        raise NoSteadyStateError(f"steady state not positive semidefinite (min eigenvalue {low:.3e})")
    return rho


def _max_stable_dt(p: SystemParams) -> float:
    return 0.01 / max(1.0, p.omega1, p.omega2,
                      abs(p.delta1) + abs(p.delta2), p.gamma2, p.gamma3)


def _rk4_step_matrix(p: SystemParams, dt: float) -> np.ndarray:
    # The generator is linear in rho, so one classical RK4 step is the fixed
    # linear map I + A + A^2/2 + A^3/6 + A^4/24 with A = dt L, in Horner form.
    a = dt * liouvillian(p)
    step = np.eye(9, dtype=complex)
    for k in (4, 3, 2, 1):
        step = np.eye(9) + a @ step / k
    return step


def evolve(p: SystemParams, rho0: np.ndarray, t_final: float, dt: float,
           renormalize: bool = True) -> np.ndarray:
    """Classical fixed-step RK4 integration of liouvillian(p) from rho0 to t_final.

    Kept as an independent check on the null-space (SVD) steady state.  The step
    must satisfy dt <= 0.01 / max(1, omega1, omega2, |delta1|+|delta2|,
    gamma2, gamma3); the actual step is shrunk so that t_final is hit exactly.
    With renormalize=True (default) the output is re-Hermitized and rescaled
    to unit trace; the raw propagated state is returned otherwise, so tests
    can bound the trace and Hermiticity drift.
    """
    if t_final < 0:
        raise ValueError(f"t_final must be >= 0, got {t_final}")
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    limit = _max_stable_dt(p)
    if dt > limit * (1 + 1e-12):
        raise ValueError(f"dt = {dt:.3e} exceeds the stability bound {limit:.3e}")
    rho0 = np.asarray(rho0, dtype=complex)
    if t_final == 0.0:
        return rho0.copy()
    n_steps = max(1, math.ceil(t_final / dt - 1e-12))
    step = _rk4_step_matrix(p, t_final / n_steps)
    v = vec(rho0)
    for _ in range(n_steps):
        v = step @ v
    rho = unvec(v, 3)
    if renormalize:
        rho = 0.5 * (rho + rho.conj().T)
        rho = rho / np.trace(rho).real
    return rho
