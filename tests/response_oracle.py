"""Parameter derivatives of the steady state by linear response: the tests' oracle of exact slopes.

`cascade.liouvillian` is linear in theta = (omega1, omega2, delta1,
delta1 + delta2, gamma2, gamma3): column k of `cascade._GENERATORS` is
dL/dtheta_k.  Differentiating L x = 0 with tr x = 1 gives

    L dx = -(dL/dtheta) x,    dx[0] + dx[1] + dx[2] = 0

in the coordinates x of `linops.hermitian_basis(3)`, whose first three are
the diagonal.  L has rank 8 at a unique steady state and every generator
preserves the trace, so the bordered 10x9 system is consistent and has one
solution, found by least squares.  A parameter enters theta through the
columns below: delta1 through both delta1 and delta1 + delta2.
"""

import numpy as np

from gpdiag.cascade import _GENERATORS, SystemParams, steady_state
from gpdiag.linops import hermitian_basis

COLUMNS = {"omega1": [0], "omega2": [1], "delta1": [2, 3], "delta2": [3], "gamma2": [4], "gamma3": [5]}

_T = hermitian_basis(3)
_TRACE_ROW = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])


def steady_state_derivative(p: SystemParams, parameter: str) -> np.ndarray:
    """d rho / d parameter of the steady state at p, as a traceless Hermitian 3x3 matrix."""
    x = (_T.conj().T @ steady_state(p).reshape(9)).real
    theta = np.array([p.omega1, p.omega2, p.delta1, p.delta1 + p.delta2, p.gamma2, p.gamma3])
    ell = (_GENERATORS @ theta).reshape(9, 9)
    d_ell = _GENERATORS[:, COLUMNS[parameter]].sum(axis=1).reshape(9, 9)
    bordered = np.vstack([ell, _TRACE_ROW])
    dx = np.linalg.lstsq(bordered, np.append(-d_ell @ x, 0.0), rcond=None)[0]
    return (_T @ dx).reshape(3, 3)
