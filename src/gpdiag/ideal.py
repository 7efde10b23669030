"""Closed forms for the ideal (decoherence-free) cascade near two-photon resonance.

All expressions are functions of the mixing angle X = arctan(omega1/omega2),
the scaled two-photon detuning delta_bar, and gamma21 = gamma2 / (2 sqrt(
omega1^2 + omega2^2)).  They cross-validate the numerical pipeline in the
regime |delta_bar| << 1.  fig4 runs these three; the forms only the tests
read (dark state, first-order density matrix, rederived beta, and X,
delta_bar and gamma21 of a SystemParams) are in tests/ideal_oracle.py.

The "geometric phase" expanded here (taylor_gp) is the two-point phase
Arg<psi(0)|psi(delta_bar)> of the dominant photon eigenvector, each vector
gauge-fixed so its |00> component is real and nonnegative, relative to the
resonant state.  This is the quantity of acceptance criteria 06 and 08 and of
the fig4 recipe.  It is not the transported mixed-state gamma_g of gp.py.
"""

from __future__ import annotations

import math


def pure_concurrence(X: float) -> float:
    """Concurrence of the resonant dark state: sin(2X), maximal at X = pi/4."""
    return math.sin(2.0 * X)


def beta_coefficient(X: float, gamma21: float) -> float:
    """Quadratic detuning coefficient of the phase-expansion denominator.

    Closed form (with C = sin 2X):

        beta = -(1/8) cos^4 X (4 + 16 g^2 - (5 + 8 g^2) cos 2X + cos 4X)
               + C^2 ((1 + 8 g^2) cos 2X + cos 4X) / 16

    This expression disagrees with the independent perturbation-theory result
    beta_coefficient_rederived of tests/ideal_oracle.py; the tests keep both
    so the discrepancy stays visible (see the diagnostic test).
    """
    g2 = gamma21 * gamma21
    conc = math.sin(2.0 * X)
    return (-(1.0 / 8.0) * math.cos(X) ** 4
            * (4.0 + 16.0 * g2 - (5.0 + 8.0 * g2) * math.cos(2.0 * X) + math.cos(4.0 * X))
            + conc * conc * ((1.0 + 8.0 * g2) * math.cos(2.0 * X) + math.cos(4.0 * X)) / 16.0)


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
