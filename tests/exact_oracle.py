"""The steady state in exact rational arithmetic: the tests' oracle of the kernel's digits and of its gaps.

`cascade.steady_state` takes the null vector of a float generator from one
SVD and rejects it on float thresholds.  This module solves the same fixed
point over `fractions.Fraction`, so it has neither rounding nor a threshold.
It reads each coefficient of the generator off `lindblad_rhs` at the six
unit values of theta = (omega1, omega2, delta1, delta1 + delta2, gamma2,
gamma3), as `cascade._generator_table` does.  The coefficients are exact
small dyadics, so the generator at any float theta is exact.  Eight of the
nine real equations of L rho = 0 and the trace row then form a 9x9 system
with a unique solution exactly when the null space of L is one-dimensional.

Coordinates are those of the unnormalised Hermitian basis E_ii, then
E_ij + E_ji and i(E_ij - E_ji) for each i < j, in the order of
`linops.hermitian_basis(3)`: x = (rho_00, rho_11, rho_22, Re rho_01,
Im rho_01, Re rho_02, Im rho_02, Re rho_12, Im rho_12).
"""

from fractions import Fraction

import numpy as np

from gpdiag.cascade import SystemParams, lindblad_rhs

_PAIRS = ((0, 1), (0, 2), (1, 2))
_COEFFICIENTS = {Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(1), Fraction(-1), Fraction(2), Fraction(-2)}


def _basis() -> list[np.ndarray]:
    basis = []
    for i in range(3):
        b = np.zeros((3, 3), dtype=complex)
        b[i, i] = 1.0
        basis.append(b)
    for i, j in _PAIRS:
        b = np.zeros((3, 3), dtype=complex)
        b[i, j] = b[j, i] = 1.0
        basis.append(b)
        b = np.zeros((3, 3), dtype=complex)
        b[i, j], b[j, i] = 1j, -1j
        basis.append(b)
    return basis


def _coordinates(m: np.ndarray) -> list[Fraction]:
    """Exact coordinates of a Hermitian float matrix: its diagonal, then Re and Im of each upper entry."""
    values = [m[i, i].real for i in range(3)]
    for i, j in _PAIRS:
        values += [m[i, j].real, m[i, j].imag]
    return [Fraction(v) for v in values]


def _generator_table() -> list[list[list[Fraction]]]:
    """table[k][r][c]: row r, column c of the generator at theta = e_k, in exact coordinates."""
    units = [SystemParams(w1, w2, d1, d12 - d1, g2, g3) for w1, w2, d1, d12, g2, g3 in np.eye(6).tolist()]
    table = []
    for unit in units:
        images = []
        for b in _basis():
            image = lindblad_rhs(unit, b)
            assert np.array_equal(image, image.conj().T), "lindblad_rhs left the Hermitian matrices"
            images.append(_coordinates(image))
        table.append([list(row) for row in zip(*images)])  # column c is the image of basis element c
    found = {v for generator in table for row in generator for v in row}
    assert found <= _COEFFICIENTS, f"coefficients outside {{0, +-1/2, +-1, +-2}}: {sorted(found - _COEFFICIENTS)}"
    return table


GENERATOR_TABLE = _generator_table()


def theta(p: SystemParams) -> list[Fraction]:
    """(omega1, omega2, delta1, delta1 + delta2, gamma2, gamma3) as exact fractions; the sum is exact too."""
    return [Fraction(p.omega1), Fraction(p.omega2), Fraction(p.delta1), Fraction(p.delta1) + Fraction(p.delta2),
            Fraction(p.gamma2), Fraction(p.gamma3)]


def generator(p: SystemParams) -> list[list[Fraction]]:
    """The exact 9x9 generator sum_k theta_k table[k], acting on the coordinates of this module."""
    t = theta(p)
    return [[sum((t[k] * GENERATOR_TABLE[k][r][c] for k in range(6)), Fraction(0)) for c in range(9)]
            for r in range(9)]


def exact_coordinates(p: SystemParams) -> list[Fraction] | None:
    """The unit-trace steady state's nine exact coordinates, or None when the system below is singular.

    Row 0 of L x = 0 (the rho_00 equation) is replaced by the trace row
    x_0 + x_1 + x_2 = 1.  The population rows of a trace-preserving L sum
    to zero, so the system is singular exactly when the null space of L is
    not one-dimensional or its element is traceless.
    """
    a = generator(p)
    a[0] = [Fraction(1)] * 3 + [Fraction(0)] * 6
    rows = [row + [Fraction(int(r == 0))] for r, row in enumerate(a)]
    for c in range(9):  # Gauss-Jordan elimination, any nonzero pivot: the arithmetic is exact
        pivot = next((r for r in range(c, 9) if rows[r][c] != 0), None)
        if pivot is None:
            return None
        rows[c], rows[pivot] = rows[pivot], rows[c]
        lead = rows[c][c]
        rows[c] = [v / lead for v in rows[c]]
        for r in range(9):
            if r != c and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[c])]
    return [row[9] for row in rows]


def to_matrix(x: list[Fraction]) -> np.ndarray:
    """The complex 3x3 matrix of exact coordinates x, each entry rounded once to the nearest float."""
    m = np.diag([float(v) for v in x[:3]]).astype(complex)
    for n, (i, j) in enumerate(_PAIRS):
        m[i, j] = complex(float(x[3 + 2 * n]), float(x[4 + 2 * n]))
        m[j, i] = m[i, j].conjugate()
    return m


def principal_minors(x: list[Fraction]) -> tuple[list[Fraction], list[Fraction], Fraction]:
    """The exact diagonal, the three 2x2 principal minors and the determinant of the matrix of x.

    A Hermitian 3x3 matrix is positive semidefinite exactly when all seven are >= 0.
    """
    diagonal = x[:3]
    upper = {pair: (x[3 + 2 * n], x[4 + 2 * n]) for n, pair in enumerate(_PAIRS)}
    square = {pair: re * re + im * im for pair, (re, im) in upper.items()}
    minors = [diagonal[i] * diagonal[j] - square[i, j] for i, j in _PAIRS]
    (a, b), (c, d), (e, f) = upper[0, 1], upper[1, 2], upper[0, 2]
    # Re(rho_01 rho_12 rho_20) with rho_20 = conj(rho_02)
    cycle = (a * c - b * d) * e + (a * d + b * c) * f
    det = (diagonal[0] * diagonal[1] * diagonal[2] + 2 * cycle - diagonal[0] * square[1, 2]
           - diagonal[1] * square[0, 2] - diagonal[2] * square[0, 1])
    return diagonal, minors, det
