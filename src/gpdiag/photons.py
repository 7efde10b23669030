"""Two-photon state derived from the atomic state: purity, concurrence, embedding.

Photon basis ordering is (|00>, |01>, |11>) for the 3x3 two-photon state and
(|00>, |01>, |10>, |11>) for the 4x4 two-qubit embedding.  The cascade emits
mode 2 before mode 1, so a mode-2-only photon (|10>) never occurs, and the
embedding serves only checks against general two-qubit formulas.
"""

from __future__ import annotations

import numpy as np

from gpdiag.linops import ContractViolationError


def atomic_to_photon(rho: np.ndarray) -> np.ndarray:
    """Relabel the atomic basis to the photon basis: |3> -> |00|, |2> -> |01>, |1> -> |11>.

    The atom still being excited means no photons emitted yet, so the map is
    the index reversal; entries are permuted with no numerical change.
    """
    rho = np.asarray(rho, dtype=complex)
    return rho[::-1, ::-1].copy()


def embed_two_qubit(rho3: np.ndarray) -> np.ndarray:
    """Embed the rank-3 two-photon state into the two-qubit space (|10> row/column zero)."""
    rho3 = np.asarray(rho3, dtype=complex)
    out = np.zeros((4, 4), dtype=complex)
    idx = np.array([0, 1, 3])
    out[np.ix_(idx, idx)] = rho3
    return out


def concurrence(rho3: np.ndarray):
    """Concurrence 2 |rho_{00,11}| of a 3x3 two-photon state (atomic 2 |rho_13|) or an (..., 3, 3) stack.

    With the |10> level empty, the spin-flip (Wootters) concurrence reduces
    exactly to this.  Any other trailing shape raises ContractViolationError.
    hypot rounds as the scalar abs does; np.abs on an array can differ by one ulp.
    """
    rho3 = np.asarray(rho3)
    if rho3.shape[-2:] != (3, 3):
        raise ContractViolationError(f"expected a 3x3 two-photon state, got shape {rho3.shape}")
    z = rho3[..., 0, 2]
    return 2.0 * np.hypot(z.real, z.imag)


def purity(rho: np.ndarray):
    """Tr(rho^2) of a matrix or of each member of an (..., n, n) stack (|rho|_F^2 if Hermitian)."""
    rho = np.asarray(rho, dtype=complex)
    return np.trace(rho @ rho, axis1=-2, axis2=-1).real
