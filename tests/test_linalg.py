"""Tests for the dense linear-algebra kernel."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load_fixture, taylor_expm

from opscale import linalg
from opscale.dft import IndexScheme
from opscale.linalg import (
    UNITARITY_TOL,
    HermitianEigenDecomposition,
    ParityEigenDecomposition,
    ParityUnitary,
    apply_from_eig,
    hermitian_eig,
    identity_residual,
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

    def test_keeps_the_residuals_it_checked(self):
        rng = np.random.default_rng(19)
        raw = _random_complex(rng, 9)
        a = (raw + raw.conj().T) / 2
        a[0, 1] += 1e-13  # a Hermiticity residual the check still accepts
        eig = hermitian_eig(a)
        v, lam = eig.eigenvectors, eig.eigenvalues
        assert eig.hermiticity_residual == abs(a - a.conj().T).max() > 0
        assert eig.gram_residual == identity_residual(v.conj().T @ v)
        assert eig.reconstruction_residual == abs(a @ v - v * lam).max()
        for resid in (eig.hermiticity_residual, eig.gram_residual,
                      eig.reconstruction_residual, eig.unitarity_bound):
            assert type(resid) is float

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
    def _parity_eig(a):
        """The reversal fold of ``a``, each block decomposed with every check."""
        even, odd, reversal_resid = linalg._reversal_fold(a)
        return ParityEigenDecomposition(hermitian_eig(even), hermitian_eig(odd), reversal_resid)

    @staticmethod
    def _generator(n, scheme):
        return np.array(operator_set(n, scheme).generator)

    @pytest.mark.parametrize(
        "n, scheme", [(1, IndexScheme.ORDINARY), (2, IndexScheme.CENTERED),
                      (7, IndexScheme.ORDINARY), (8, IndexScheme.CENTERED)],
    )
    def test_blocks_have_the_spectrum_of_the_matrix(self, n, scheme):
        g = self._generator(n, scheme)
        eig = self._parity_eig(g)
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
            self._parity_eig(g)
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
            self._parity_eig(np.zeros((3, 4)))

    def test_keeps_the_reversal_residual(self):
        a = self._symmetric(6)
        a[0, 0] += 1e-13  # a reversal residual the check still accepts
        eig = self._parity_eig(a)
        assert type(eig.reversal_residual) is float
        assert eig.reversal_residual == abs(a - a[::-1, ::-1]).max() > 0

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
        got = unitary_from_eig(self._parity_eig(a), 0.7)
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
        return unitary_from_eig(TestParityEig._parity_eig(TestParityEig._symmetric(n)), 0.7)

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
        u = unitary_from_eig(TestParityEig._parity_eig(TestParityEig._symmetric(7)), 0.0)
        assert np.max(np.abs(u.dense() - np.eye(7))) < 1e-13


def _blocks(eig):
    if isinstance(eig, ParityEigenDecomposition):
        return [eig.even, eig.odd]
    return [eig]


def _assembled(eig, theta):
    out = unitary_from_eig(eig, theta)
    return [out.even, out.odd] if isinstance(out, ParityUnitary) else [out]


def _unitarity_residual(block):
    return identity_residual(block.conj().T @ block)


def _hand_built(v, eigenvalues):
    """A decomposition of an arbitrary V, carrying V's measured gram residual."""
    v.setflags(write=False)
    gram = identity_residual(v.conj().T @ v)
    return HermitianEigenDecomposition(eigenvalues, v, 0.0, gram, 0.0)


def _concentrated(k, eps):
    """``V = F (I + eps*ones)``, F the unitary DFT.

    ``V^H V - I`` is about ``2 eps`` in every entry, and F gathers its
    k-fold 2-norm into the (0, 0) entry of ``V V^H - I``, so at theta = 0
    the block's unitarity residual comes within a few per cent of the
    bound's leading term ``2 k delta``.
    """
    f = np.fft.fft(np.eye(k)) / math.sqrt(k)
    return _hand_built(f @ (np.eye(k) + eps * np.ones((k, k))), np.linspace(-3, 3, k))


class TestUnitarityCertificate:
    """``unitarity_bound`` against measured residuals, and where it lets the check be skipped."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(min_value=1, max_value=256),
        scheme=st.sampled_from(list(IndexScheme)),
        ln_m=st.floats(min_value=-3.0, max_value=3.0),
    )
    def test_bound_covers_the_measured_residual(self, n, scheme, ln_m):
        eig = operator_set(n, scheme).generator_eig
        for block, m in zip(_blocks(eig), _assembled(eig, 2 * math.pi * ln_m)):
            assert block.unitarity_bound >= _unitarity_residual(m)
            assert block.unitarity_bound < UNITARITY_TOL

    @pytest.mark.parametrize("scheme", list(IndexScheme))
    @pytest.mark.parametrize("n", [509, 512, 1021, 1024])
    def test_bound_covers_the_measured_residual_on_large_grids(self, n, scheme):
        # The primes run their FFTs through Bluestein's plan, whose bound
        # the real form's transform error carries.
        eig = operator_set(n, scheme).generator_eig
        for block, m in zip(_blocks(eig), _assembled(eig, 2 * math.pi * math.log(1.7))):
            assert block.unitarity_bound >= _unitarity_residual(m)
            # Blocks up to 512 are certified; the whole 1021 and 1024 are not.
            assert (block.unitarity_bound < UNITARITY_TOL) == (eig.block_size <= 512)

    @pytest.mark.parametrize("theta", [0.0, 0.7])
    def test_bound_covers_eigenvectors_far_from_orthonormal(self, theta):
        eig = _concentrated(64, 1e-13)
        assert eig.unitarity_bound < UNITARITY_TOL
        (m,) = _assembled(eig, theta)
        assert eig.unitarity_bound >= _unitarity_residual(m) > 50 * eig.gram_residual

    def test_bound_covers_the_rounding_of_the_gram_residual(self):
        # Even a measured residual of 0 leaves the exact one up to gamma_{k+2}.
        k = 512
        u = np.finfo(float).eps / 2
        gamma = (k + 2) * u / (1 - (k + 2) * u)
        eig = HermitianEigenDecomposition(np.zeros(k), np.eye(k), 0.0, 0.0, 0.0)
        assert eig.unitarity_bound >= (1 + k * gamma) ** 2 - 1

    def test_empty_block_has_a_zero_bound(self):
        eig = operator_set(1, IndexScheme.ORDINARY).generator_eig
        assert eig.odd.unitarity_bound == 0.0

    def test_uncertified_block_runs_the_full_check_and_raises(self):
        eig = _concentrated(64, 1e-12)
        assert eig.unitarity_bound >= UNITARITY_TOL
        with pytest.raises(ArithmeticError, match="lost unitarity"):
            unitary_from_eig(eig, 0.0)

    def test_full_check_runs_only_on_uncertified_blocks(self, monkeypatch):
        rng = np.random.default_rng(23)
        q, _ = np.linalg.qr(_random_complex(rng, 64))
        # Columns scaled by 1 +- 1e-12: a gram residual that the bound
        # does not certify, on a block that is unitary to about 4e-12.
        uncertified = _hand_built(q * (1 + 1e-12 * rng.choice([-1, 1], 64)), np.arange(64.0))
        assert uncertified.unitarity_bound >= UNITARITY_TOL
        certified = operator_set(64, IndexScheme.ORDINARY).generator_eig
        assert certified.unitarity_bound < UNITARITY_TOL
        calls = []

        def counting(p):
            calls.append(p.shape)
            return identity_residual(p)

        monkeypatch.setattr(linalg, "identity_residual", counting)
        unitary_from_eig(certified, 0.7)
        assert calls == []
        unitary_from_eig(uncertified, 0.7)
        assert calls == [(64, 64)]

    def test_assembly_and_its_check_keep_one_temporary_beside_the_block(self):
        # The block, then v p or the check's gram beside it, and half a
        # block for |gram - I|: no k x k copy of v^H or M^H on top.
        k = 512
        rng = np.random.default_rng(k)
        q, _ = np.linalg.qr(_random_complex(rng, k))
        eig = _hand_built(q * (1 + 1e-12 * rng.choice([-1, 1], k)), np.linspace(-1.0, 1.0, k))
        assert eig.unitarity_bound >= UNITARITY_TOL  # the dense check runs
        tracemalloc.start()
        try:
            m = unitary_from_eig(eig, 0.7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert _unitarity_residual(m) < UNITARITY_TOL
        assert peak < 2.75 * m.nbytes


def _norm_error(y, x):
    """``| ||y||^2 / ||x||^2 - 1 |``, what ``factored_bound`` bounds."""
    return abs(np.vdot(y, y).real / np.vdot(x, x).real - 1.0)


class TestFactoredApply:
    """``apply_from_eig``: the operator applied as ``V (p * V^H x)``, and its certificate."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(min_value=1, max_value=256),
        scheme=st.sampled_from(list(IndexScheme)),
        ln_m=st.floats(min_value=-3.0, max_value=3.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_bound_covers_the_measured_norm_error(self, n, scheme, ln_m, seed):
        eig = operator_set(n, scheme).generator_eig
        assert eig.factored_certified
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = apply_from_eig(eig, 2 * math.pi * ln_m, x)
        assert max(b.factored_bound for b in _blocks(eig)) >= _norm_error(y, x)
        assert all(b.factored_bound < UNITARITY_TOL for b in _blocks(eig))

    @pytest.mark.parametrize("scheme", list(IndexScheme))
    @pytest.mark.parametrize("n", [512, 1024])
    def test_certifies_the_blocks_the_assembly_certifies(self, n, scheme):
        eig = operator_set(n, scheme).generator_eig
        blocks = _blocks(eig)
        assert eig.block_size == blocks[0].block_size == max(b.block_size for b in blocks)
        assert eig.factored_certified == all(b.unitarity_bound < UNITARITY_TOL for b in blocks)
        # N = 1024 ordinary is one dense block of 1024: neither bound certifies it.
        assert eig.factored_certified == (n == 512 or scheme is IndexScheme.CENTERED)

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 33])
    def test_matches_the_assembled_product(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for eig in (hermitian_eig(TestParityEig._symmetric(n)),
                    TestParityEig._parity_eig(TestParityEig._symmetric(n))):
            y = apply_from_eig(eig, 0.7, x)
            assert y.shape == (n,) and y.dtype == np.complex128
            assert np.max(np.abs(y - unitary_from_eig(eig, 0.7) @ x)) < 1e-14 * np.linalg.norm(x)
            # A real operand is promoted, as with the assembled operator.
            got = apply_from_eig(eig, 0.7, x.real)
            assert np.max(np.abs(got - unitary_from_eig(eig, 0.7) @ x.real)) < 1e-14 * n

    def test_leaves_its_operand_alone(self):
        eig = TestParityEig._parity_eig(TestParityEig._symmetric(6))
        x = np.arange(6, dtype=complex)
        x.setflags(write=False)
        apply_from_eig(eig, 0.7, x)
        assert np.array_equal(x, np.arange(6))

    @pytest.mark.parametrize("shape", [(5,), (7,), (6, 2), ()])
    def test_rejects_operand_that_is_not_an_n_vector(self, shape):
        for eig in (hermitian_eig(TestParityEig._symmetric(6)),
                    TestParityEig._parity_eig(TestParityEig._symmetric(6))):
            with pytest.raises(ValueError, match="expected"):
                apply_from_eig(eig, 0.7, np.zeros(shape))

    def test_rejects_non_finite_theta(self):
        with pytest.raises(ValueError, match="finite"):
            apply_from_eig(hermitian_eig(np.eye(2)), math.inf, np.ones(2))

    @pytest.mark.parametrize("theta", [0.0, 0.7])
    def test_bound_covers_eigenvectors_far_from_orthonormal(self, theta):
        eig = _concentrated(64, 1e-13)
        assert eig.factored_certified
        # x along the column of V V^H - I that F gathers the error into.
        x = np.zeros(64, dtype=complex)
        x[0] = 1.0
        y = apply_from_eig(eig, theta, x)
        assert eig.factored_bound >= _norm_error(y, x) > 50 * eig.gram_residual

    def test_uncertified_block_is_refused(self):
        eig = _concentrated(64, 1e-12)
        assert eig.factored_bound >= UNITARITY_TOL and not eig.factored_certified
        with pytest.raises(ArithmeticError, match="not certified"):
            apply_from_eig(eig, 0.7, np.ones(64))
        parity = ParityEigenDecomposition(eig, hermitian_eig(np.eye(63)), 0.0)
        assert not parity.factored_certified
        with pytest.raises(ArithmeticError, match="not certified"):
            apply_from_eig(parity, 0.7, np.ones(127))



class TestFftErrorModel:
    """``fft_error``: the bound the real-form certificate assumes for numpy's FFT."""

    SIZES = list(range(1, 130)) + [211, 256, 331, 509, 512, 614, 640, 1000, 1013, 1019, 1021,
                                   1024, 2039, 2048]

    @pytest.mark.parametrize("n", SIZES)
    def test_bound_covers_the_measured_error(self, n):
        # Against the same transform in long double, on Cooley-Tukey sizes
        # and on the primes and large-factor sizes pocketfft runs through
        # Bluestein's algorithm.
        rng = np.random.default_rng(n)
        x = rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))
        exact = np.fft.fft(x.astype(np.clongdouble))
        err = np.linalg.norm((np.fft.fft(x) - exact).astype(complex), axis=1)
        assert np.all(err <= linalg.fft_error(n) * np.linalg.norm(exact.astype(complex), axis=1))

    def test_chirp_spectrum_stays_below_its_assumed_bound(self):
        # kappa of Bluestein's plan: the padded chirp's spectrum over sqrt(n).
        worst = 0.0
        for n in range(50, 4097):
            n2 = linalg._good_size(2 * n - 1)
            m = np.arange(n)
            chirp = np.exp(1j * np.pi * ((m * m) % (2 * n)) / n)
            padded = np.zeros(n2, dtype=complex)
            padded[:n] = chirp
            padded[n2 - n + 1:] = chirp[:0:-1]
            worst = max(worst, float(np.abs(np.fft.fft(padded)).max()) / math.sqrt(n))
        assert 2.0 < worst <= linalg._CHIRP_SPECTRUM

    @pytest.mark.parametrize("n, expected", [(1, 1), (1017, 1024), (1227, 1232), (2041, 2048)])
    def test_good_size_is_the_next_11_smooth_length(self, n, expected):
        assert linalg._good_size(n) == expected

    def test_the_bound_grows_with_the_largest_prime_factor(self):
        # Cooley-Tukey on a power of two; Bluestein on a large prime costs more.
        assert linalg.fft_error(1) == 0.0
        assert linalg.fft_error(1024) < linalg.fft_error(1021) < 20 * linalg.fft_error(1024)
