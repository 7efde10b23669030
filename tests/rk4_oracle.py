"""Fixed-step RK4 integration of the master equation: the tests' steady-state oracle.

`cascade.steady_state` solves for the fixed point exactly, from the null space
of the Liouvillian.  This module integrates the same generator in time, so
tests can check that solve against a long-time evolution.  It steps the
kron form of `kron_oracle`, an assembly of the generator that the pipeline
does not share.
"""

import math

import numpy as np

from gpdiag.cascade import SystemParams
from kron_oracle import kron_liouvillian, unvec, vec


def _max_stable_dt(p: SystemParams) -> float:
    return 0.01 / max(1.0, p.omega1, p.omega2,
                      abs(p.delta1) + abs(p.delta2), p.gamma2, p.gamma3)


def _rk4_step_matrix(p: SystemParams, dt: float) -> np.ndarray:
    # The generator is linear in rho, so one classical RK4 step is the fixed
    # linear map I + A + A^2/2 + A^3/6 + A^4/24 with A = dt L, in Horner form.
    a = dt * kron_liouvillian(p)
    step = np.eye(9, dtype=complex)
    for k in (4, 3, 2, 1):
        step = np.eye(9) + a @ step / k
    return step


def evolve(p: SystemParams, rho0: np.ndarray, t_final: float, dt: float,
           renormalize: bool = True) -> np.ndarray:
    """Classical fixed-step RK4 integration of kron_liouvillian(p) from rho0 to t_final.

    An independent check on the null-space (SVD) steady state.  The step
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
