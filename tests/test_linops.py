import numpy as np
import pytest

from conftest import random_density, random_hermitian
from gpdiag.cascade import SystemParams, build_hamiltonian, liouvillian
from gpdiag.linops import (
    NoSteadyStateError,
    hermitian_basis,
    hermitian_eig,
    _BASIS_ROWS,
    null_space_unit_trace,
)
from kron_oracle import coordinates, unit_trace_state, unvec, vec


def test_identity_spectrum():
    es = hermitian_eig(np.eye(3))
    np.testing.assert_allclose(es.eigenvalues, [1.0, 1.0, 1.0], atol=1e-14)


def test_pauli_x_spectrum():
    es = hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(es.eigenvalues, [-1.0, 1.0], atol=1e-14)


def test_resonant_cascade_spectrum():
    # characteristic polynomial lambda (lambda^2 - (3^2 + 4^2)) = 0
    h = build_hamiltonian(SystemParams(3.0, 4.0, 0.0, 0.0))
    es = hermitian_eig(h)
    np.testing.assert_allclose(es.eigenvalues, [-5.0, 0.0, 5.0], atol=1e-12)


def test_non_hermitian_rejected():
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="non-finite"):
        hermitian_eig(np.array([[np.inf, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="square matrix"):
        hermitian_eig(np.ones((2, 3)))


@pytest.mark.parametrize("shape", [(), (4,), (0,)], ids=["single", "stack", "empty-stack"])
def test_returns_numpys_eigh_result_in_ascending_pairs(rng, shape):
    # numpy's own EighResult: eigenvalues ascend, and eigenvectors[..., :, k] pairs with eigenvalues[..., k];
    # an empty stack decomposes as in np.linalg.eigh, with no member and so no Hermiticity deviation either
    a = np.zeros(shape + (3, 3), dtype=complex)
    for index in np.ndindex(shape):
        a[index] = random_hermitian(rng, 3)
    result = hermitian_eig(a)
    assert type(result) is type(np.linalg.eigh(np.eye(2)))
    w, v = result
    assert w.shape == shape + (3,) and v.shape == shape + (3, 3)
    assert (np.diff(w, axis=-1) >= 0).all()
    # column k of a @ v is a @ v[..., :, k], which must equal w[..., k] v[..., :, k]
    assert np.max(np.abs(a @ v - v * w[..., None, :]), initial=0.0) <= 1e-12


def test_reconstruction_random(rng):
    for n in range(2, 10):
        a = random_hermitian(rng, n)
        w, v = hermitian_eig(a)
        rebuilt = (v * w) @ v.conj().T
        assert np.max(np.abs(rebuilt - a)) <= 1e-9


def test_eigenpair_residuals(rng):
    for n in (3, 5, 9):
        a = random_hermitian(rng, n)
        w, v = hermitian_eig(a)
        scale = np.max(np.abs(a))
        for k in range(n):
            assert np.max(np.abs(a @ v[:, k] - w[k] * v[:, k])) <= 1e-10 * scale
        gram = v.conj().T @ v
        assert np.max(np.abs(gram - np.eye(n))) <= 1e-10


def test_purification_eigenvalues(rng):
    for _ in range(20):
        rho = random_density(rng, 4)
        w, _ = hermitian_eig(rho)
        assert w.min() >= -1e-10
        assert w.max() <= 1.0 + 1e-10
        assert abs(w.sum() - 1.0) <= 1e-10


def test_null_space_explicit():
    ell = np.diag(np.arange(9.0))
    m = null_space_unit_trace(ell)
    expected = np.zeros((3, 3))
    expected[0, 0] = 1.0
    np.testing.assert_allclose(m, expected, atol=1e-12)


def test_null_space_undriven_scheme_i():
    ell = liouvillian(SystemParams(0.0, 0.0, 0.0, 0.0, gamma2=6.0, gamma3=1.0))
    rho = null_space_unit_trace(ell)
    expected = np.zeros((3, 3))
    expected[0, 0] = 1.0
    np.testing.assert_allclose(rho, expected, atol=1e-12)


def test_null_space_undriven_scheme_ii_degenerate():
    ell = liouvillian(SystemParams(0.0, 0.0, 0.0, 0.0, gamma2=6.0, gamma3=0.0))
    with pytest.raises(NoSteadyStateError, match="null space has dimension 4 "):
        null_space_unit_trace(ell)


def test_overflowing_decomposition_is_no_steady_state():
    # finite entries whose singular values overflow to inf; every s <= RANK_EPS * inf
    # would otherwise count as zero and report a 9-dimensional null space
    ell = np.full((9, 9), 1e308)
    assert np.all(np.isfinite(ell))
    with pytest.raises(NoSteadyStateError, match="overflowed"):
        null_space_unit_trace(ell)


@pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(np.inf, 0.0), complex(0.0, np.nan),
                                 complex(0.0, -np.inf)], ids=["real nan", "real inf", "imag nan", "imag -inf"])
def test_non_finite_real_or_imaginary_part_rejected(rng, bad):
    # the generator is real, so it takes the non-finite part; a Hermitian stack takes the complex entry
    ell = liouvillian(SystemParams(6.0, 6.0))
    ell[4, 2] = bad.real if bad.imag == 0.0 else bad.imag
    with pytest.raises(ValueError, match="matrix has non-finite entries"):
        null_space_unit_trace(ell)
    stack = np.array([random_hermitian(rng, 3) for _ in range(4)])
    stack[2, 1, 1] = bad
    with pytest.raises(ValueError, match="matrix has non-finite entries"):
        hermitian_eig(stack)


def _only_off_diagonal_null_coordinate():
    # coordinate 3 of hermitian_basis(3) is (E_01 + E_10)/sqrt(2), which has no diagonal, so no trace
    ell = np.eye(9)
    ell[3, 3] = 0.0
    return ell


def _unit_trace_null_vector_diag_1_1_minus_1():
    # its one null vector is (1, 1, -1, 0, ..., 0) / sqrt(3), whose unit-trace state is diag(1, 1, -1)
    v = np.r_[1.0, 1.0, -1.0, np.zeros(6)] / np.sqrt(3.0)
    return np.eye(9) - np.outer(v, v)


# every failure branch of null_space_unit_trace: input, exact exception class, exact message
_FAILURES = {
    "overflow": (lambda: np.full((9, 9), 1e308), NoSteadyStateError,
                 "singular value decomposition overflowed: largest singular value inf"),
    "dimension 0": (lambda: np.eye(9), NoSteadyStateError,
                    "null space has dimension 0 (singular values <= 1e-09 x largest 1.000e+00, smallest 1.000e+00)"),
    "dimension 3": (lambda: np.diag([0.0] * 3 + [1.0] * 6), NoSteadyStateError,
                    "null space has dimension 3 (singular values <= 1e-09 x largest 1.000e+00, smallest 0.000e+00)"),
    "dimension 4": (lambda: liouvillian(SystemParams(0.0, 0.0, gamma2=6.0, gamma3=0.0)), NoSteadyStateError,
                    "null space has dimension 4 (singular values <= 1e-09 x largest 1.061e+00, smallest 0.000e+00)"),
    "traceless": (_only_off_diagonal_null_coordinate, NoSteadyStateError, "null vector is traceless (|tr| = 0.000e+00)"),
    "not positive semidefinite": (_unit_trace_null_vector_diag_1_1_minus_1, NoSteadyStateError,
                                  "steady state not positive semidefinite (min eigenvalue -1.000e+00)"),
    "shape 1x1": (lambda: np.ones((1, 1)), ValueError, "expected the 9x9 real generator, got shape (1, 1)"),
    "shape 2x2": (lambda: np.zeros((2, 2)), ValueError, "expected the 9x9 real generator, got shape (2, 2)"),
    "shape 4x4": (lambda: np.diag([0.0, 1.0, 2.0, 3.0]), ValueError,
                  "expected the 9x9 real generator, got shape (4, 4)"),
}


@pytest.mark.parametrize("case", list(_FAILURES))
def test_failure_branch_class_and_message(case):
    make, cls, message = _FAILURES[case]
    ell = make()
    with pytest.raises(cls) as err:
        null_space_unit_trace(ell)
    # the class is compared exactly, so a subclass of the expected one does not pass
    assert type(err.value) is cls
    assert str(err.value) == message


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entry_anywhere_rejected(bad):
    # caught before the SVD: with an infinite entry in column 0, svd does not return
    for i in range(9):
        for j in range(9):
            ell = liouvillian(SystemParams(6.0, 6.0))
            ell[i, j] = bad
            with pytest.raises(ValueError) as err:
                null_space_unit_trace(ell)
            assert str(err.value) == "matrix has non-finite entries"


def test_null_residual_invariant(rng):
    for _ in range(10):
        p = SystemParams(rng.uniform(0.5, 6), rng.uniform(0.5, 6),
                         rng.uniform(-3, 3), rng.uniform(-3, 3), 6.0, 1.0)
        ell = liouvillian(p)
        m = null_space_unit_trace(ell)
        residual = np.max(np.abs(ell @ coordinates(m)))
        assert residual <= 1e-8 * np.max(np.abs(ell))


def test_vec_unvec_roundtrip(rng):
    a = random_hermitian(rng, 3)
    np.testing.assert_array_equal(unvec(vec(a), 3), a)


def test_deterministic_for_identical_input(rng):
    a = random_hermitian(rng, 5)
    w1, v1 = hermitian_eig(a)
    w2, v2 = hermitian_eig(a.copy())
    np.testing.assert_array_equal(w1, w2)
    np.testing.assert_array_equal(v1, v2)


def test_stack_equals_per_matrix_calls_bitwise(rng):
    stack = np.array([random_hermitian(rng, 3) for _ in range(7)])
    w, v = hermitian_eig(stack)
    assert w.shape == (7, 3) and v.shape == (7, 3, 3)
    for k, a in enumerate(stack):
        wk, vk = hermitian_eig(a)
        np.testing.assert_array_equal(w[k], wk)
        np.testing.assert_array_equal(v[k], vk)


def test_stack_with_one_non_hermitian_member_rejected(rng):
    stack = np.array([random_hermitian(rng, 3) for _ in range(5)])
    stack[3, 0, 1] += 1e-9
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eig(stack)


def test_null_space_rejects_stack():
    ell = liouvillian(SystemParams(6.0, 6.0))
    with pytest.raises(ValueError) as err:
        null_space_unit_trace(np.array([ell, ell]))
    assert str(err.value) == "expected the 9x9 real generator, got shape (2, 9, 9)"


def test_null_space_rejects_complex_superoperator():
    with pytest.raises(ValueError) as err:
        null_space_unit_trace(liouvillian(SystemParams(6.0, 6.0)).astype(complex))
    assert str(err.value) == "expected a real matrix, got dtype complex128"


def test_hermitian_basis_is_unitary_with_the_diagonal_first(rng):
    for dim in (2, 3, 4):
        t = hermitian_basis(dim)
        assert np.max(np.abs(t.conj().T @ t - np.eye(dim * dim))) <= 1e-15
        x = coordinates(random_hermitian(rng, dim))
        m = unvec(t @ x, dim)
        assert np.array_equal(m, m.conj().T)
        assert np.array_equal(np.diag(m).real, x[:dim])
    assert not hermitian_basis(3).flags.writeable


def test_state_assembly_equals_the_complex_form_bitwise(rng, monkeypatch):
    vectors = []
    for _ in range(300):
        x = rng.standard_normal(9) * 10.0 ** rng.integers(-12, 3, 9)
        x[rng.random(9) < 0.2] = rng.choice([0.0, -0.0, 5e-324])
        if abs(x[:3].sum()) >= 1e-6:
            vectors.append(x)
    # diagonals whose float sum depends on the order of the additions
    for diagonal in ((1.0, 1e-16, 1e-16), (0.1, 0.2, 0.3), (1e-16, 1e-16, 1.0)):
        x = rng.standard_normal(9)
        x[:3] = diagonal
        vectors.append(x)
    assert (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3) and (1.0 + 1e-16) + 1e-16 != 1.0 + (1e-16 + 1e-16)
    for x in vectors:
        # an SVD whose last right singular vector is exactly x, and every other singular value 1
        s = np.r_[np.ones(8), 0.0]
        vh = np.r_[np.zeros((8, 9)), x[None]]
        monkeypatch.setattr(np.linalg, "svd", lambda a: (None, s, vh))
        # and a positivity check that passes, so that a draw with a negative eigenvalue still returns its state
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.zeros(3))
        rho = null_space_unit_trace(np.eye(9))
        expected = unit_trace_state(x)
        assert rho.dtype == expected.dtype and rho.shape == expected.shape
        assert rho.tobytes() == expected.tobytes()
    assert not _BASIS_ROWS.flags.writeable
