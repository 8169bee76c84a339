"""Tests for the dense linear-algebra kernel."""

import numpy as np
import pytest

from conftest import load_fixture, matmul_triple_loop, taylor_expm

from opscale.dft import IndexScheme
from opscale.linalg import (
    HermitianEigenDecomposition,
    ParityEigenDecomposition,
    adjoint,
    hermitian_eig,
    matmul,
    parity_eig,
    unitary_from_eig,
    unitary_function_of_hermitian,
)
from opscale.operators import OperatorSet, operator_set


def _random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_matmul_matches_triple_loop_oracle():
    rng = np.random.default_rng(42)
    a = _random_complex(rng, 5)
    b = _random_complex(rng, 5)
    expected = matmul_triple_loop(a, b)
    got = matmul(a, b)
    assert np.max(np.abs(got - expected)) < 1e-12


def test_matmul_rejects_nonconformable():
    a = np.zeros((3, 4))
    b = np.zeros((3, 4))
    with pytest.raises(ValueError):
        matmul(a, b)


def test_adjoint_is_conjugate_transpose_entrywise():
    rng = np.random.default_rng(7)
    a = _random_complex(rng, 4)
    got = adjoint(a)
    for i in range(4):
        for j in range(4):
            assert got[i, j] == complex(a[j, i]).conjugate()


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
    got = unitary_function_of_hermitian(a, theta)
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
        # The operator set of a symmetric grid runs the same check.
        ops = operator_set(n, scheme)
        tampered = OperatorSet(ops.grid, ops.f, ops.u, ops.d, g)
        assert tampered.grid_symmetric
        with pytest.raises(ArithmeticError, match="index reversal"):
            tampered.generator_eig

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            parity_eig(np.zeros((3, 4)))

    @pytest.mark.parametrize("n", [1, 2, 5, 6])
    def test_assembly_matches_dense_assembly(self, n):
        # A random Hermitian matrix made reversal-symmetric: (A + J A J)/2.
        rng = np.random.default_rng(n)
        a = _random_complex(rng, n)
        a = a + a.conj().T
        a = (a + a[::-1, ::-1]) / 2
        got = unitary_from_eig(parity_eig(a), 0.7)
        expected = unitary_from_eig(hermitian_eig(a), 0.7)
        assert got.dtype == np.complex128 and got.flags.c_contiguous
        assert np.max(np.abs(got - expected)) < 1e-13
