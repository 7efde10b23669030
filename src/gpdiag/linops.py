"""Dense complex linear algebra shared by the cascade simulator.

Everything here acts on small matrices (3x3 states, 9x9 superoperators), so
plain LAPACK through numpy is both the simplest and the most robust choice.
Vectorization is row-major throughout: vec(rho)[n*i + j] = rho[i, j].
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

HERMITICITY_TOL = 1e-12
RANK_EPS = 1e-9


class ContractViolationError(ValueError):
    """An input broke a documented precondition (e.g. non-Hermitian matrix)."""


class NoSteadyStateError(RuntimeError):
    """No physical steady state: no usable null vector, or one that is not positive semidefinite."""


class DegenerateSteadyStateError(NoSteadyStateError):
    """The superoperator null space has dimension >= 2, so no steady state is unique."""

    def __init__(self, deficiency: int, message: str | None = None):
        self.deficiency = deficiency
        super().__init__(message or f"null space has dimension {deficiency}")


class EigenSystem(NamedTuple):
    """Eigenvalues in ascending order; eigenvectors[..., :, k] pairs with eigenvalues[..., k]."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _as_square_complex(a, stack=False) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or (a.ndim > 2 and not stack) or a.shape[-1] != a.shape[-2]:
        raise ContractViolationError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ContractViolationError("matrix has non-finite entries")
    return a


def hermitian_eig(a) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix or of an (..., n, n) stack of them.

    Raises ContractViolationError if max |A - A^dag| over the stack exceeds
    HERMITICITY_TOL.  Output is deterministic for identical input (LAPACK
    zheevd order: ascending eigenvalues, orthonormal columns), and each
    member of a stack decomposes exactly as it does alone.
    """
    a = _as_square_complex(a, stack=True)
    a_dag = a.conj().swapaxes(-1, -2)
    dev = np.max(np.abs(a - a_dag))
    if dev > HERMITICITY_TOL:
        raise ContractViolationError(f"matrix is not Hermitian: max |A - A^dag| = {dev:.3e}")
    w, v = np.linalg.eigh(0.5 * (a + a_dag))
    return EigenSystem(w, v)


def vec(m: np.ndarray) -> np.ndarray:
    """Row-major vectorization of a square matrix."""
    return np.asarray(m, dtype=complex).reshape(-1)


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of vec."""
    return np.asarray(v, dtype=complex).reshape(dim, dim)


def null_space_unit_trace(ell) -> np.ndarray:
    """Unique null vector of a superoperator, returned as a unit-trace Hermitian matrix.

    `ell` acts on the row-major vectorization of a dim x dim matrix.  Singular
    values below RANK_EPS times the largest one count as zero.  Exactly one
    zero singular value is required; 0, or an overflowed decomposition, raises
    NoSteadyStateError and >= 2 raises DegenerateSteadyStateError.
    """
    ell = _as_square_complex(ell)
    dim = math.isqrt(ell.shape[0])
    if dim * dim != ell.shape[0]:
        raise ContractViolationError(f"superoperator size {ell.shape[0]} is not a perfect square")
    _, s, vh = np.linalg.svd(ell)
    if not np.isfinite(s[0]):
        raise NoSteadyStateError(f"singular value decomposition overflowed: largest singular value {s[0]}")
    deficiency = int(np.count_nonzero(s <= RANK_EPS * s[0]))
    if deficiency == 0:
        raise NoSteadyStateError(f"no null vector: smallest singular value {s[-1]:.3e}")
    if deficiency >= 2:
        raise DegenerateSteadyStateError(deficiency, f"null space has dimension {deficiency} (singular "
                                         f"values <= {RANK_EPS:g} x largest {s[0]:.3e})")
    m = vh[-1].conj().reshape(dim, dim)
    tr = np.trace(m)
    if abs(tr) < 1e-6:
        raise NoSteadyStateError(f"null vector is traceless (|tr| = {abs(tr):.3e})")
    m = m / tr
    return 0.5 * (m + m.conj().T)
