"""Closed forms for the ideal (decoherence-free) cascade near two-photon resonance.

All expressions are functions of the mixing angle X = arctan(omega1/omega2),
the scaled two-photon detuning delta_bar, and gamma21 = gamma2 / (2 sqrt(
omega1^2 + omega2^2)).  They cross-validate the numerical pipeline in the
regime |delta_bar| << 1.

The "geometric phase" expanded here (taylor_gp) is the two-point phase
Arg<psi(0)|psi(delta_bar)> of the dominant photon eigenvector, each vector
gauge-fixed so its |00> component is real and nonnegative, relative to the
resonant state.  This is the quantity of acceptance criteria 06 and 08 and of
the fig4 recipe.  It is not the transported mixed-state gamma_g of gp.py.
"""

from __future__ import annotations

import math

import numpy as np


def dark_state(X: float) -> np.ndarray:
    """Pure steady state at two-photon resonance: (-sin X, 0, cos X) in the photon basis."""
    return np.array([-math.sin(X), 0.0, math.cos(X)], dtype=complex)


def pure_concurrence(X: float) -> float:
    """Concurrence of the resonant dark state: sin(2X), maximal at X = pi/4."""
    return math.sin(2.0 * X)


def ideal_density_matrix(X: float, delta_bar: float, gamma21: float) -> np.ndarray:
    """First-order-in-delta_bar two-photon density matrix of the ideal system.

    Valid for |delta_bar| << 1 (any value is accepted).  The (1,1) element is
    zero at this order.  Note the sign of the imaginary part of the (0,2)
    coherence: the master equation gives -S C (1 + i gamma21 delta_bar), which
    the gauge-fixed phase expansion below is consistent with.
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


def beta_coefficient(X: float, gamma21: float) -> float:
    """Quadratic detuning coefficient of the phase-expansion denominator.

    Closed form (with C = sin 2X):

        beta = -(1/8) cos^4 X (4 + 16 g^2 - (5 + 8 g^2) cos 2X + cos 4X)
               + C^2 ((1 + 8 g^2) cos 2X + cos 4X) / 16

    This expression disagrees with the independent perturbation-theory result
    in beta_coefficient_rederived; both are exposed so the discrepancy stays
    visible (see the diagnostic test).
    """
    g2 = gamma21 * gamma21
    conc = math.sin(2.0 * X)
    return (-(1.0 / 8.0) * math.cos(X) ** 4
            * (4.0 + 16.0 * g2 - (5.0 + 8.0 * g2) * math.cos(2.0 * X) + math.cos(4.0 * X))
            + conc * conc * ((1.0 + 8.0 * g2) * math.cos(2.0 * X) + math.cos(4.0 * X)) / 16.0)


def beta_coefficient_rederived(X: float, gamma21: float) -> float:
    """Same coefficient from second-order perturbation of ideal_density_matrix.

    Expanding the gauge-fixed overlap of the dominant eigenvectors at (0, X)
    and (delta, X) to second order gives

        Re<psi(0)|psi(delta)> = 1 - (cos^2 X (gamma21^2 + sin^2 X) / 2) delta^2

    so beta = -cos^2 X (gamma21^2 + sin^2 X) / 2.
    """
    c = math.cos(X)
    s = math.sin(X)
    return -0.5 * c * c * (gamma21 * gamma21 + s * s)


def taylor_gp(X: float, delta: float, dX: float, gamma21: float) -> float:
    """Second-order expansion of the near-resonance phase about (delta_bar = 0, X).

    The phase is the two-point |00>-gauge phase of the dominant eigenvector
    relative to the resonant state (see the module docstring), not gp.py's
    transported gamma_g.

    gamma = Arctan2(-g cos^2 X delta - g C delta dX / 4,
                    1 - dX^2 / 2 + beta delta^2),    C = sin 2X.

    The two-argument arctangent keeps the branch correct when the denominator
    leaves the vicinity of 1.  The leading term is -gamma21 cos^2 X * delta.
    """
    num = -gamma21 * math.cos(X) ** 2 * delta \
        - gamma21 * pure_concurrence(X) * delta * dX / 4.0
    den = 1.0 - dX * dX / 2.0 + beta_coefficient(X, gamma21) * delta * delta
    return math.atan2(num, den)
