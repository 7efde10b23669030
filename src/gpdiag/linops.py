"""Dense linear algebra shared by the cascade simulator.

Everything here acts on small matrices (3x3 states, 9x9 superoperators), so
plain LAPACK through numpy is both the simplest and the most robust choice.
Vectorization is row-major throughout: vec(rho)[n*i + j] = rho[i, j].

A superoperator that maps Hermitian matrices to Hermitian matrices (a
Lindblad generator does) is a real matrix in the orthonormal Hermitian basis
of `hermitian_basis`.  That basis change is unitary, so the real matrix has
the singular values of the complex one, and `null_space_unit_trace` solves
the real form with one real SVD.
"""

from __future__ import annotations

import math

import numpy as np

HERMITICITY_TOL = 1e-12
RANK_EPS = 1e-9


class NoSteadyStateError(RuntimeError):
    """No physical steady state: no usable null vector, or one that is not positive semidefinite."""


def hermitian_eig(a):
    """Eigendecomposition of a Hermitian matrix or of an (..., n, n) stack of them.

    Returns numpy's EighResult(eigenvalues, eigenvectors): eigenvalues in
    ascending order, and eigenvectors[..., :, k] pairs with eigenvalues[..., k].
    Raises ValueError if max |A - A^dag| over the stack exceeds
    HERMITICITY_TOL; an empty (0, n, n) stack decomposes, as in eigh.  Output
    is deterministic for identical input (LAPACK zheevd order, orthonormal
    columns), and each member of a stack decomposes exactly as it does alone.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    a_dag = a.conj().swapaxes(-1, -2)
    dev = np.max(np.abs(a - a_dag), initial=0.0)
    if dev > HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian: max |A - A^dag| = {dev:.3e}")
    return np.linalg.eigh(0.5 * (a + a_dag))


def hermitian_basis(dim: int) -> np.ndarray:
    """Unitary map T from real coordinates x to the row-major vec of a dim x dim Hermitian matrix.

    Column k of T is vec(B_k) for the orthonormal basis E_ii (i = 0 .. dim-1),
    then (E_ij + E_ji)/sqrt(2) and i(E_ij - E_ji)/sqrt(2) for each i < j; so
    x[:dim] is the diagonal and its sum the trace.  A superoperator L that
    keeps Hermiticity is the real matrix T^dag L T in these coordinates.
    Read-only.
    """
    t = np.zeros((dim * dim, dim * dim), dtype=complex)
    t[np.arange(dim) * (dim + 1), np.arange(dim)] = 1.0
    k, r = dim, math.sqrt(0.5)
    for i in range(dim):
        for j in range(i + 1, dim):
            t[i * dim + j, k], t[j * dim + i, k] = r, r
            t[i * dim + j, k + 1], t[j * dim + i, k + 1] = 1j * r, -1j * r
            k += 2
    t.flags.writeable = False
    return t


# real rows of hermitian_basis(3).T, read-only as the bytes they view: (x @ _BASIS_ROWS).view(complex) is T @ x
_BASIS_ROWS = np.frombuffer(hermitian_basis(3).T.tobytes()).reshape(9, 18)


def null_space_unit_trace(ell) -> np.ndarray:
    """Unique null vector of the real 9x9 generator, returned as a unit-trace Hermitian 3x3 matrix.

    `ell` acts on the coordinates of `hermitian_basis(3)` of a 3x3 Hermitian
    matrix; any other shape raises ValueError.  Singular values below
    RANK_EPS times the largest one count as zero.  Exactly one zero singular
    value is required; any other count, an overflowed decomposition, a
    traceless null vector or a state with an eigenvalue below -1e-10 raises
    NoSteadyStateError: every gap decision of a steady state is made here.
    """
    ell = np.asarray(ell)
    if ell.shape != (9, 9):
        raise ValueError(f"expected the 9x9 real generator, got shape {ell.shape}")
    if ell.dtype.kind == "c":
        raise ValueError(f"expected a real matrix, got dtype {ell.dtype}")
    # svd may not return on an infinite entry, so non-finite entries are caught first: the sum of squares is
    # finite when every entry is finite and below about 1e154, and the entrywise check runs only when it is not
    if not math.isfinite(np.vdot(ell, ell)) and not np.isfinite(ell).all():
        raise ValueError("matrix has non-finite entries")
    _, s, vh = np.linalg.svd(ell)
    if not math.isfinite(s[0]):
        raise NoSteadyStateError(f"singular value decomposition overflowed: largest singular value {s[0]}")
    # s descends, so exactly one singular value is zero when the last one is and the one before it is not
    cut = RANK_EPS * s[0]
    if not (s[-1] <= cut and s[-2] > cut):
        raise NoSteadyStateError(f"null space has dimension {np.count_nonzero(s <= cut)} (singular values <= "
                                 f"{RANK_EPS:g} x largest {abs(s[0]):.3e}, smallest {abs(s[-1]):.3e})")
    x = vh[-1]
    tr = x[0] + x[1] + x[2]
    if abs(tr) < 1e-6:
        raise NoSteadyStateError(f"null vector is traceless (|tr| = {abs(tr):.3e})")
    # a real combination of the Hermitian basis is Hermitian exactly: entries (i, j) and (j, i) are conjugates
    rho = ((x / tr) @ _BASIS_ROWS).view(complex).reshape(3, 3)
    low = float(np.linalg.eigvalsh(rho)[0])  # eigvalsh ascends
    if low < -1e-10:
        raise NoSteadyStateError(f"steady state not positive semidefinite (min eigenvalue {low:.3e})")
    return rho
