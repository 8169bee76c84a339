"""Tests for the dense linear-algebra kernel."""

import numpy as np
import pytest

from conftest import load_fixture, taylor_expm

from opscale.dft import IndexScheme
from opscale.linalg import (
    HermitianEigenDecomposition,
    ParityEigenDecomposition,
    ParityUnitary,
    hermitian_eig,
    identity_residual,
    parity_eig,
    unitary_from_eig,
)
from opscale.operators import OperatorSet, operator_set


def _random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


@pytest.mark.parametrize("n", [0, 1, 7, 128])
def test_identity_residual_matches_subtracting_an_identity_bit_for_bit(n):
    rng = np.random.default_rng(n)
    q, _ = np.linalg.qr(_random_complex(rng, n))
    for p in (q.conj().T @ q, _random_complex(rng, n)):
        expected = abs(p - np.eye(n)).max(initial=0.0)
        assert identity_residual(p.copy()) == expected


class TestHermitianEig:
    def test_fixture_eigenvalues_match_exact_charpoly_roots(self):
        # Frozen oracle: eigenvalues of a random 6x6 Hermitian matrix
        # computed from its exact rational characteristic polynomial with
        # 60-digit root finding, written once into the fixture file.
        payload = load_fixture("hermitian6.json")
        a = np.array(payload["matrix_re"]) + 1j * np.array(payload["matrix_im"])
        expected = np.array(payload["eigenvalues"])
        eig = hermitian_eig(a)
        assert np.max(np.abs(np.sort(eig.eigenvalues) - np.sort(expected))) < 1e-12

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(11)
        raw = _random_complex(rng, 8)
        a = (raw + raw.conj().T) / 2
        eig = hermitian_eig(a)
        v = eig.eigenvectors
        gram = v.conj().T @ v
        assert np.max(np.abs(gram - np.eye(8))) < 1e-10
        recon = (v * eig.eigenvalues) @ v.conj().T
        assert np.max(np.abs(recon - a)) < 1e-10

    def test_eigenvalues_are_real_and_ascending(self):
        rng = np.random.default_rng(13)
        raw = _random_complex(rng, 6)
        a = (raw + raw.conj().T) / 2
        eig = hermitian_eig(a)
        assert eig.eigenvalues.dtype == np.float64
        assert np.all(np.diff(eig.eigenvalues) >= 0)

    def test_rejects_non_hermitian(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError):
            hermitian_eig(a)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            hermitian_eig(np.zeros((3, 4)))

    def test_rejects_non_finite(self):
        a = np.array([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(ValueError):
            hermitian_eig(a)

    def test_decomposition_is_frozen(self):
        a = np.diag([1.0, 2.0])
        eig = hermitian_eig(a)
        assert isinstance(eig, HermitianEigenDecomposition)
        with pytest.raises(AttributeError):
            eig.eigenvalues = np.zeros(2)


class TestUnitaryFromEig:
    def test_theta_zero_gives_identity(self):
        a = np.diag([1.0, -2.0, 3.0])
        eig = hermitian_eig(a)
        got = unitary_from_eig(eig, 0.0)
        assert np.max(np.abs(got - np.eye(3))) < 1e-12

    def test_result_is_unitary(self):
        rng = np.random.default_rng(3)
        raw = _random_complex(rng, 7)
        a = (raw + raw.conj().T) / 2
        eig = hermitian_eig(a)
        m = unitary_from_eig(eig, 1.7)
        assert np.max(np.abs(m @ m.conj().T - np.eye(7))) < 1e-10

    def test_unitary_with_degenerate_eigenvalues(self):
        a = np.diag([2.0, 2.0, 5.0])
        eig = hermitian_eig(a)
        m = unitary_from_eig(eig, 0.9)
        assert np.max(np.abs(m @ m.conj().T - np.eye(3))) < 1e-12

    def test_thetas_compose_additively(self):
        rng = np.random.default_rng(5)
        raw = _random_complex(rng, 5)
        a = (raw + raw.conj().T) / 2
        eig = hermitian_eig(a)
        m1 = unitary_from_eig(eig, 0.4)
        m2 = unitary_from_eig(eig, 1.1)
        m12 = unitary_from_eig(eig, 1.5)
        assert np.max(np.abs(m1 @ m2 - m12)) < 1e-10


def test_unitary_function_matches_taylor_series():
    # Independent oracle: exp(-1j*theta*a) by plain truncated Taylor
    # summation, valid because theta * ||a|| is small here.
    rng = np.random.default_rng(17)
    raw = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    a = (raw + raw.conj().T) / 2
    theta = 0.05
    expected = taylor_expm(-1j * theta * a, terms=30)
    got = unitary_from_eig(hermitian_eig(a), theta)
    assert np.max(np.abs(got - expected)) < 1e-12


class TestParityEig:
    @staticmethod
    def _generator(n, scheme):
        return np.array(operator_set(n, scheme).generator)

    @pytest.mark.parametrize(
        "n, scheme", [(1, IndexScheme.ORDINARY), (2, IndexScheme.CENTERED),
                      (7, IndexScheme.ORDINARY), (8, IndexScheme.CENTERED)],
    )
    def test_blocks_have_the_spectrum_of_the_matrix(self, n, scheme):
        g = self._generator(n, scheme)
        eig = parity_eig(g)
        assert isinstance(eig, ParityEigenDecomposition)
        assert len(eig.even.eigenvalues) == (n + 1) // 2
        assert len(eig.odd.eigenvalues) == n // 2
        blocks = np.sort(np.concatenate([eig.even.eigenvalues, eig.odd.eigenvalues]))
        assert np.max(np.abs(blocks - np.linalg.eigvalsh(g))) < 1e-12

    @pytest.mark.parametrize("n, scheme", [(8, IndexScheme.CENTERED), (7, IndexScheme.ORDINARY)])
    def test_rejects_one_perturbed_entry(self, n, scheme):
        g = self._generator(n, scheme)
        g[1, 2] += 1e-6
        with pytest.raises(ArithmeticError, match="index reversal"):
            parity_eig(g)
        # The operator set of a symmetric grid runs the same check on the
        # generator it forms.  A real part on one diagonal of D keeps D
        # Hermitian Toeplitz but makes it not odd under index reversal.
        ops = operator_set(n, scheme)
        column = ops.d_column.copy()
        column[1] += 1e-6
        tampered = OperatorSet(ops.grid, ops.u_diagonal, column)
        assert tampered.grid_symmetric
        assert abs(tampered.generator - tampered.generator[::-1, ::-1]).max() > 1e-7
        with pytest.raises(ArithmeticError, match="index reversal"):
            tampered.generator_eig

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            parity_eig(np.zeros((3, 4)))

    @staticmethod
    def _symmetric(n):
        # A random Hermitian matrix made reversal-symmetric: (A + J A J)/2.
        rng = np.random.default_rng(n)
        a = _random_complex(rng, n)
        a = a + a.conj().T
        return (a + a[::-1, ::-1]) / 2

    @pytest.mark.parametrize("n", [1, 2, 5, 6])
    def test_assembly_matches_dense_assembly(self, n):
        a = self._symmetric(n)
        got = unitary_from_eig(parity_eig(a), 0.7)
        assert isinstance(got, ParityUnitary)
        assert got.even.shape == ((n + 1) // 2,) * 2 and got.odd.shape == (n // 2,) * 2
        assert not got.even.flags.writeable and not got.odd.flags.writeable
        assert got.nbytes == got.even.nbytes + got.odd.nbytes
        dense = got.dense()
        assert dense.dtype == np.complex128 and dense.flags.c_contiguous
        expected = unitary_from_eig(hermitian_eig(a), 0.7)
        assert np.max(np.abs(dense - expected)) < 1e-13


class TestParityUnitary:
    @staticmethod
    def _unitary(n):
        return unitary_from_eig(parity_eig(TestParityEig._symmetric(n)), 0.7)

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 7, 32, 33])
    def test_blockwise_product_matches_dense_product(self, n):
        u = self._unitary(n)
        dense = u.dense()
        rng = np.random.default_rng(100 + n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = u @ x
        assert y.shape == (n,) and y.dtype == np.complex128
        assert np.max(np.abs(y - dense @ x)) < 1e-14 * np.linalg.norm(x)
        # A real operand is promoted, as with the dense matrix.
        assert np.max(np.abs(u @ x.real - dense @ x.real)) < 1e-14 * np.linalg.norm(x)

    def test_blockwise_product_leaves_its_operand_alone(self):
        u = self._unitary(6)
        x = np.arange(6, dtype=complex)
        x.setflags(write=False)
        u @ x
        assert np.array_equal(x, np.arange(6))

    @pytest.mark.parametrize("shape", [(5,), (7,), (6, 2), ()])
    def test_rejects_operand_that_is_not_an_n_vector(self, shape):
        with pytest.raises(ValueError, match="expected"):
            self._unitary(6) @ np.zeros(shape)

    def test_dense_is_a_new_read_only_array_each_call(self):
        u = self._unitary(5)
        first = u.dense()
        assert not first.flags.writeable
        assert u.dense() is not first
        assert u.dense().tobytes() == first.tobytes()

    def test_dense_of_theta_zero_is_the_identity(self):
        u = unitary_from_eig(parity_eig(TestParityEig._symmetric(7)), 0.0)
        assert np.max(np.abs(u.dense() - np.eye(7))) < 1e-13
