"""Closed forms of the ideal cascade that only the tests read: the tests' reference forms.

`gpdiag.ideal` keeps what the fig4 recipe runs (`pure_concurrence`,
`beta_coefficient`, `taylor_gp`).  This module holds the forms the tests
compare the pipeline and those closed forms against: the resonant dark
state, the first-order density matrix, the independently rederived `beta`,
the resonant concurrence of either scheme, and the derived parameters X,
delta_bar, gamma21, Omega and delta1 + delta2 of a `SystemParams`.
"""

import math

import numpy as np

from gpdiag.cascade import SystemParams


def two_photon_detuning(p: SystemParams) -> float:
    return p.delta1 + p.delta2


def total_rabi(p: SystemParams) -> float:
    """Omega = sqrt(omega1^2 + omega2^2)."""
    return math.hypot(p.omega1, p.omega2)


def mixing_angle(p: SystemParams) -> float:
    """X = arctan(omega1 / omega2), in [0, pi/2]."""
    return math.atan2(p.omega1, p.omega2)


def delta_bar(p: SystemParams) -> float:
    """Two-photon detuning scaled by the total Rabi frequency."""
    return two_photon_detuning(p) / total_rabi(p)


def gamma21(p: SystemParams) -> float:
    """gamma2 / (2 sqrt(omega1^2 + omega2^2))."""
    return p.gamma2 / (2.0 * total_rabi(p))


def dark_state(X: float) -> np.ndarray:
    """Pure steady state at two-photon resonance: (-sin X, 0, cos X) in the photon basis."""
    return np.array([-math.sin(X), 0.0, math.cos(X)], dtype=complex)


def ideal_density_matrix(X: float, delta_bar: float, gamma21: float) -> np.ndarray:
    """First-order-in-delta_bar two-photon density matrix of the ideal system.

    Valid for |delta_bar| << 1 (any value is accepted).  The (1,1) element is
    zero at this order.  Note the sign of the imaginary part of the (0,2)
    coherence: the master equation gives -S C (1 + i gamma21 delta_bar), which
    the gauge-fixed phase expansion of `gpdiag.ideal.taylor_gp` is consistent
    with.
    """
    s, c = math.sin(X), math.cos(X)
    rho = np.zeros((3, 3), dtype=complex)
    rho[0, 0] = s * s
    rho[0, 1] = delta_bar * c * s * s
    rho[0, 2] = -s * c * (1.0 + 1j * gamma21 * delta_bar)
    rho[1, 2] = -delta_bar * c * c * s
    rho[2, 2] = c * c
    rho[1, 0] = np.conj(rho[0, 1])
    rho[2, 0] = np.conj(rho[0, 2])
    rho[2, 1] = np.conj(rho[1, 2])
    return rho


def beta_coefficient_rederived(X: float, gamma21: float) -> float:
    """`gpdiag.ideal.beta_coefficient` from second-order perturbation of ideal_density_matrix.

    Expanding the gauge-fixed overlap of the dominant eigenvectors at (0, X)
    and (delta, X) to second order gives

        Re<psi(0)|psi(delta)> = 1 - (cos^2 X (gamma21^2 + sin^2 X) / 2) delta^2

    so beta = -cos^2 X (gamma21^2 + sin^2 X) / 2.
    """
    c = math.cos(X)
    s = math.sin(X)
    return -0.5 * c * c * (gamma21 * gamma21 + s * s)


def resonant_concurrence(p: SystemParams) -> float:
    """Concurrence of the photon pair's steady state at delta1 = delta2 = 0, in closed form.

    With F1 = g2^2 g3 + 4 g2 w2^2 + 8 g3 w1^2 and
    F2 = g2 g3 + g3^2 + 4 w1^2 + 4 w2^2,

        C = 8 w1 w2 |4 g3 w1^2 - g2 g3 (g2 + g3) - 4 g2 w2^2| / (F1 F2).

    At g3 = 0 (scheme II) it is the dark state's 2 w1 w2 / (w1^2 + w2^2) =
    sin 2X; for g3 > 0 the state is exactly separable on the curve
    4 g3 w1^2 = g2 g3 (g2 + g3) + 4 g2 w2^2.  The detunings of `p` are not read.
    """
    w1, w2, g2, g3 = p.omega1, p.omega2, p.gamma2, p.gamma3
    f1 = g2 * g2 * g3 + 4 * g2 * w2 * w2 + 8 * g3 * w1 * w1
    f2 = g2 * g3 + g3 * g3 + 4 * w1 * w1 + 4 * w2 * w2
    return 8 * w1 * w2 * abs(4 * g3 * w1 * w1 - g2 * g3 * (g2 + g3) - 4 * g2 * w2 * w2) / (f1 * f2)
