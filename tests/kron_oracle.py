"""The generator in its complex kron form and the complex-SVD null-space solve: the tests' oracle of the kernel.

`cascade.liouvillian` is a real 9x9 matrix in the coordinates of
`linops.hermitian_basis(3)`, read off `lindblad_rhs` and divided by a power
of two.  This module assembles the same generator independently, as kron
products acting on the row-major vec (vec(rho)[3*i + j] = rho[i, j]), finds
that power of two on its own (`unit_scaled`), and solves the null space with
one complex SVD under the same rank, trace and positivity tests as the
pipeline.  It also keeps the complex-product form of the pipeline's state
assembly.
"""

import math

import numpy as np

from gpdiag.cascade import SystemParams, build_hamiltonian
from gpdiag.linops import RANK_EPS, NoSteadyStateError, hermitian_basis

_I3 = np.eye(3, dtype=complex)


def vec(m: np.ndarray) -> np.ndarray:
    """Row-major vectorization of a square matrix."""
    return np.asarray(m, dtype=complex).reshape(-1)


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of vec."""
    return np.asarray(v, dtype=complex).reshape(dim, dim)


def coordinates(m: np.ndarray) -> np.ndarray:
    """Real coordinates of a Hermitian matrix in linops.hermitian_basis, on which liouvillian() acts."""
    return (hermitian_basis(len(m)).conj().T @ vec(m)).real


def lift(ell: np.ndarray) -> np.ndarray:
    """T @ L @ T^dag: a real superoperator in hermitian_basis coordinates, as a matrix on the row-major vec."""
    t = hermitian_basis(math.isqrt(len(ell)))
    return t @ ell @ t.conj().T


def unit_trace_state(x: np.ndarray) -> np.ndarray:
    """The unit-trace matrix of real hermitian_basis coordinates x as one complex product, the trace summed by numpy.

    This is how null_space_unit_trace once assembled its state from the null vector x.
    """
    dim = math.isqrt(len(x))
    return (hermitian_basis(dim) @ (x / x[:dim].sum())).reshape(dim, dim)


def _dissipator(c):
    cdc = c.conj().T @ c
    return np.kron(c, c.conj()) - 0.5 * np.kron(cdc, _I3) - 0.5 * np.kron(_I3, cdc.T)


_D21 = _dissipator(np.outer(_I3[0], _I3[1]))
_D32 = _dissipator(np.outer(_I3[1], _I3[2]))


def unit_scaled(p: SystemParams) -> SystemParams:
    """p with its six coefficients times 2^-k, k the binary exponent (math.frexp) of max |theta_k| over
    theta = (omega1, omega2, delta1, delta1 + delta2, gamma2, gamma3).

    The generator is linear in theta, so kron_liouvillian(unit_scaled(p)) is the kron form scaled as
    cascade.liouvillian scales it, to the rounding of a coefficient that the scaling makes subnormal.
    """
    coefficients = (p.omega1, p.omega2, p.delta1, p.delta2, p.gamma2, p.gamma3)
    _, k = math.frexp(max(abs(v) for v in coefficients + (p.delta1 + p.delta2,)))
    return SystemParams(*(math.ldexp(v, -k) for v in coefficients))


def kron_liouvillian(p: SystemParams) -> np.ndarray:
    """Complex 9x9 generator on the row-major vec: -i(kron(H, I) - kron(I, H^T)) + gamma2 D21 + gamma3 D32."""
    h = build_hamiltonian(p)
    return -1j * (np.kron(h, _I3) - np.kron(_I3, h.T)) + p.gamma2 * _D21 + p.gamma3 * _D32


def kron_steady_state(p: SystemParams) -> np.ndarray:
    """The steady state from one complex SVD of kron_liouvillian(p), raising as cascade.steady_state does."""
    _, s, vh = np.linalg.svd(kron_liouvillian(p))
    if not np.isfinite(s[0]):
        raise NoSteadyStateError(f"singular value decomposition overflowed: largest singular value {s[0]}")
    dimension = int(np.count_nonzero(s <= RANK_EPS * s[0]))
    if dimension != 1:
        raise NoSteadyStateError(f"null space has dimension {dimension}")
    m = unvec(vh[-1].conj(), 3)
    tr = m.trace()
    if abs(tr) < 1e-6:
        raise NoSteadyStateError(f"null vector is traceless (|tr| = {abs(tr):.3e})")
    m = m / tr
    rho = 0.5 * (m + m.conj().T)
    low = float(np.linalg.eigvalsh(rho).min())
    if low < -1e-10:
        raise NoSteadyStateError(f"steady state not positive semidefinite (min eigenvalue {low:.3e})")
    return rho
