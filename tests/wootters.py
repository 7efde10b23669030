"""Spin-flip (Wootters) concurrence of a general two-qubit state: the tests' oracle.

Wootters, PRL 80, 2245 (1998).  The pipeline computes the concurrence of its
3x3 two-photon states as 2 |rho_{00,11}|, which this general form reduces to
when the |10> level is empty; tests apply it to `embed_two_qubit(rho3)`.
"""

import numpy as np

# sigma_y (x) sigma_y in the computational basis, used by the spin flip
YY = np.array([
    [0.0, 0.0, 0.0, -1.0],
    [0.0, 0.0, 1.0, 0.0],
    [0.0, 1.0, 0.0, 0.0],
    [-1.0, 0.0, 0.0, 0.0],
], dtype=complex)


def wootters_concurrence(rho4: np.ndarray) -> float:
    """Spin-flip (Wootters) concurrence of a two-qubit density matrix.

    C = max(0, sqrt(mu1) - sqrt(mu2) - sqrt(mu3) - sqrt(mu4)) with mu_i the
    descending eigenvalues of rho (Y x Y) rho* (Y x Y).  The square roots are
    obtained as the singular values of sqrt(rho) (Y x Y) sqrt(rho)*, which is
    similar to that product but avoids the O(sqrt(eps)) noise of extracting
    near-zero eigenvalues from a non-normal matrix.  Negative eigenvalues of
    rho from roundoff are clipped at zero when the square root is formed.
    """
    rho4 = np.asarray(rho4, dtype=complex)
    w, v = np.linalg.eigh(0.5 * (rho4 + rho4.conj().T))
    # roundoff-scale eigenvalues must clip to exactly zero, or their square
    # roots inject O(1e-8) noise into the singular values
    w = np.where(w < 1e-13, 0.0, w)
    root = (v * np.sqrt(w)) @ v.conj().T
    sigma = np.linalg.svd(root @ YY @ root.conj(), compute_uv=False)
    return float(max(0.0, sigma[0] - sigma[1] - sigma[2] - sigma[3]))
