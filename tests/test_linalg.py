"""Tests for the dense linear-algebra kernel."""

import dataclasses
import json
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    eigh_unitary,
    fixture_matrix,
    load_fixture,
    pair_residual,
    parity_basis,
    taylor_expm,
)

from opscale import ScalingSpec, linalg, scaling_matrix
from opscale.dft import IndexScheme
from opscale.linalg import (
    UNITARITY_TOL,
    GridDecomposition,
    GridUnitary,
    HermitianEigenDecomposition,
    apply_from_eig,
    identity_residual,
    real_form_eig,
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


def _random_symmetric(rng, n):
    raw = rng.standard_normal((n, n))
    return (raw + raw.T) / 2


def _copy(x, out, axis):
    """The transform ``Z = I``, in the protocol a decomposition keeps."""
    out[...] = x
    return out


def _real_form(a):
    """:func:`real_form_eig` of a real symmetric ``a`` with ``Z = I``: its real form is a itself.

    The solver overwrites the array ``form()`` returns, so it is given a copy.
    """
    return real_form_eig(lambda: a.copy(), len(a), _copy, 0.0)


def _whole(block):
    """A grid of one block, on the identity fold."""
    return GridDecomposition((block,), None)


def _assemble(block, theta):
    """The assembled matrix of one block, as a whole grid's operator keeps it."""
    return unitary_from_eig(_whole(block), theta).blocks[0]


class TestRealFormEig:
    @pytest.mark.parametrize("n", [6, 7])
    def test_generator_eigenvalues_match_exact_charpoly_roots(self, n):
        # Frozen oracle: the generator of N = 6 ordinary (one whole block)
        # and N = 7 ordinary (two paired blocks), with eigenvalues computed
        # from its exact rational characteristic polynomial with 60-digit
        # root finding, written once into the fixture file.
        payload = load_fixture("generator_6_7_ordinary.json")[str(n)]
        ops = operator_set(n, IndexScheme.ORDINARY)
        assert np.array_equal(ops.generator, fixture_matrix(payload))
        eig = ops.generator_eig
        assert len(eig.blocks) == (2 if n == 7 else 1)
        got = np.sort(np.concatenate([block.eigenvalues for block in eig.blocks]))
        assert np.max(np.abs(got - payload["eigenvalues"])) < 1e-12

    def test_reconstruction_and_orthonormality(self):
        a = _random_symmetric(np.random.default_rng(11), 8)
        eig = _real_form(a)
        v = eig.eigenvectors
        gram = v.conj().T @ v
        assert np.max(np.abs(gram - np.eye(8))) < 1e-10
        recon = (v * eig.eigenvalues) @ v.conj().T
        assert np.max(np.abs(recon - a)) < 1e-10

    def test_eigenvalues_are_real_and_ascending(self):
        eig = _real_form(_random_symmetric(np.random.default_rng(13), 6))
        assert eig.eigenvalues.dtype == np.float64
        assert np.all(np.diff(eig.eigenvalues) >= 0)

    @pytest.mark.parametrize("a", [
        np.array([[1.0, 2.0], [3.0, 4.0]]),  # not Hermitian
        np.zeros((3, 4)),  # not square
        np.array([[1.0, np.nan], [np.nan, 1.0]]),  # not finite
        np.zeros(3),  # not a matrix
    ], ids=["non-hermitian", "non-square", "non-finite", "vector"])
    def test_rejects_what_is_not_a_finite_hermitian_matrix(self, a):
        with pytest.raises(ValueError):
            _real_form(a)

    def test_keeps_the_residuals_it_checked(self):
        a = _random_symmetric(np.random.default_rng(19), 9)
        a[0, 1] += 1e-13  # a Hermiticity residual the check still accepts
        eig = _real_form(a)
        v, lam, residuals = eig.eigenvectors, eig.eigenvalues, eig.residuals
        assert residuals["hermiticity_residual"] == abs(a - a.T).max() > 0
        assert residuals["realness_residual"] == 0.0  # the real form of a real matrix
        # The gram and reconstruction residuals are bounds on the measured ones.
        assert identity_residual(v.conj().T @ v) <= residuals["gram_residual"]
        assert abs(a @ v - v * lam).max() <= residuals["reconstruction_residual"]
        for resid in (*residuals.values(), eig.unitarity_bound):
            assert type(resid) is float

    @pytest.mark.parametrize("n", [4, 5, 64, 97, 200])
    @pytest.mark.parametrize("scheme", list(IndexScheme))
    def test_each_column_has_its_largest_entry_positive(self, n, scheme):
        for block in operator_set(n, scheme).generator_eig.blocks:
            q = block.basis
            largest = np.argmax(np.abs(q), axis=0)  # the first one on ties
            assert (q[largest, np.arange(q.shape[1])] > 0).all()

    def test_a_reconstruction_bound_over_the_tolerance_is_refused(self, monkeypatch):
        # Eigenvalues off by 1e-6: Q is still orthonormal and its transform
        # keeps its column norms, so only the bound on max|A V - V lam| fails.
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda s: (eigh(s)[0] + 1e-6, eigh(s)[1]))
        with pytest.raises(ArithmeticError, match="residual bound .* exceeds tolerance"):
            _real_form(_random_symmetric(np.random.default_rng(31), 9))

    def test_signs_are_the_only_change_to_the_solvers_basis(self):
        a = _random_symmetric(np.random.default_rng(29), 150)
        lam, q = np.linalg.eigh(a)
        flip = q[np.argmax(np.abs(q), axis=0), np.arange(150)] < 0
        assert flip.any() and not flip.all()
        q[:, flip] *= -1
        eig = _real_form(a)
        assert eig.eigenvalues.tobytes() == lam.tobytes()
        assert eig.basis.tobytes() == q.tobytes()

    def test_largest_entry_sign_is_read_without_a_k_by_k_temporary(self):
        q = np.random.default_rng(31).standard_normal((400, 400))
        q[:, :100] = np.round(q[:, :100])  # entries of equal magnitude: ties
        q[:, 100] = 0.0
        largest = np.argmax(np.abs(q), axis=0)  # the first maximizer
        expected = q[largest, np.arange(400)] < 0
        tracemalloc.start()
        try:
            negative = linalg._largest_entry_negative(q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert negative.tolist() == expected.tolist()
        assert peak < q.nbytes / 4

    def test_decomposition_is_frozen(self):
        eig = _real_form(np.diag([1.0, 2.0]))
        assert isinstance(eig, HermitianEigenDecomposition)
        with pytest.raises(AttributeError):
            eig.eigenvalues = np.zeros(2)
        with pytest.raises(TypeError):
            eig.residuals["gram_residual"] = 0.0


class TestUnitaryFromEig:
    def test_theta_zero_gives_identity(self):
        got = _assemble(_real_form(np.diag([1.0, -2.0, 3.0])), 0.0)
        assert np.max(np.abs(got - np.eye(3))) < 1e-12

    def test_result_is_unitary(self):
        m = _assemble(_real_form(_random_symmetric(np.random.default_rng(3), 7)), 1.7)
        assert np.max(np.abs(m @ m.conj().T - np.eye(7))) < 1e-10

    def test_unitary_with_degenerate_eigenvalues(self):
        m = _assemble(_real_form(np.diag([2.0, 2.0, 5.0])), 0.9)
        assert np.max(np.abs(m @ m.conj().T - np.eye(3))) < 1e-12

    def test_thetas_compose_additively(self):
        eig = _real_form(_random_symmetric(np.random.default_rng(5), 5))
        m1 = _assemble(eig, 0.4)
        m2 = _assemble(eig, 1.1)
        m12 = _assemble(eig, 1.5)
        assert np.max(np.abs(m1 @ m2 - m12)) < 1e-10


@pytest.mark.parametrize("source", ["real-symmetric", "generator"])
def test_unitary_function_matches_taylor_series(source):
    # Independent oracle: exp(-1j*theta*a) by plain truncated Taylor
    # summation, valid because theta * ||a|| is small here.  A real
    # symmetric matrix is its own real form; the generator of N = 5
    # centered, an asymmetric grid, is decomposed through its Fourier one.
    if source == "real-symmetric":
        a = _random_symmetric(np.random.default_rng(17), 5)
        eig = _whole(_real_form(a))
    else:
        ops = operator_set(5, IndexScheme.CENTERED)
        a, eig = np.array(ops.generator), ops.generator_eig
        assert len(eig.blocks) == 1 and eig.reversal_residual is None
    theta = 0.05
    expected = taylor_expm(-1j * theta * a, terms=30)
    got = unitary_from_eig(eig, theta).dense()
    assert np.max(np.abs(got - expected)) < 1e-12


class TestParityFold:
    """``_fold`` and ``_unfold``, the package's one parity layout, against the basis written out."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(min_value=1, max_value=64), axis=st.sampled_from([0, 1]),
           across=st.integers(min_value=1, max_value=4), seed=st.integers(0, 2**32 - 1))
    def test_fold_is_the_basis_transpose_and_unfold_its_inverse(self, n, axis, across, seed):
        rng = np.random.default_rng(seed)
        shape = (n, across) if axis == 0 else (across, n)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        tol = 1e-15 * np.linalg.norm(x)
        b = parity_basis(n)
        k = n - n // 2
        parts = (b[:, :k], b[:, k:])  # the even basis, then the odd one
        folded = linalg._fold(x, axis)
        for got, basis in zip(folded, parts):
            expected = math.sqrt(2) * (basis.T @ x if axis == 0 else x @ basis)
            assert got.shape == expected.shape
            assert np.max(np.abs(got - expected), initial=0.0) <= tol
        assert np.max(np.abs(linalg._unfold(*folded, axis) - x)) <= tol
        # Either part alone, the other given as zeros, unfolds onto its own basis.
        for parity, basis in enumerate(parts):
            alone = [np.zeros_like(part) for part in folded]
            alone[parity] = folded[parity]
            expected = (basis @ folded[parity] if axis == 0 else folded[parity] @ basis.T)
            got = linalg._unfold(*alone, axis)
            assert np.max(np.abs(got - expected / math.sqrt(2))) <= tol


def _hand_built(q, eigenvalues, reconstruction=0.0, pair_signs=None):
    """A decomposition of a given real basis Q, carrying Q's measured gram residual.

    Z is the identity (``_copy``), exact; ``basis_gram_bound`` is ``k``
    times step 1's bound from the measured residual.  A paired block
    (``pair_signs`` given) gets its rotation table.  The bounds are
    derived where :func:`real_form_eig` derives them (``linalg._certified``).
    """
    k = len(eigenvalues)
    q.setflags(write=False)
    gram = identity_residual(q.T @ q)
    table = (None if pair_signs is None
             else linalg._rotation_table(eigenvalues, pair_signs, np.empty((2, k))))
    return linalg._certified(
        eigenvalues, q, _copy, table, hermiticity_residual=0.0, gram_residual=gram,
        reconstruction_residual=reconstruction, realness_residual=0.0, transform_error=0.0,
        basis_gram_bound=k * linalg._entry_bound(gram, k))


def _paired(a, scale=None):
    """A paired decomposition of a purely imaginary Hermitian ``a = i B``, built by hand.

    From LAPACK's complex solve: for ``j < k//2`` the eigenvector v_j of
    ``lam_j < 0`` gives ``q_j = sqrt(2) Re v_j`` and ``q_{k-1-j} = -sqrt(2)
    Im v_j``, so that ``B q_j = -lam_j q_{k-1-j}``: every ``t_j`` is 1.  The
    middle column of an odd k is the real kernel vector.  The columns are
    scaled by ``scale`` when given; the gram and pair residuals are measured.
    """
    a = np.asarray(a)
    k = a.shape[0]
    lam, v = np.linalg.eigh(a)
    h = k // 2
    q = np.empty((k, k))
    q[:, :h] = math.sqrt(2) * v[:, :h].real
    q[:, ::-1][:, :h] = -math.sqrt(2) * v[:, :h].imag
    if k % 2:
        middle = v[:, h] * np.exp(-1j * np.angle(v[np.argmax(np.abs(v[:, h])), h]))
        q[:, h] = middle.real / np.linalg.norm(middle.real)
    if scale is not None:
        q *= scale
    lam.setflags(write=False)
    signs = np.ones(h)
    recon = pair_residual(a.imag, _hand_built(q, lam, pair_signs=signs))
    return _hand_built(q, lam, recon, signs)


class TestParityEig:
    @staticmethod
    def _parity_eig(a):
        """The reversal fold of ``a``, each block paired by hand (:func:`_paired`)."""
        even, odd, reversal_resid = linalg._reversal_fold(a)
        return GridDecomposition((_paired(even), _paired(odd)), reversal_resid)

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
        even, odd = eig.blocks
        assert len(even.eigenvalues) == (n + 1) // 2 and len(odd.eigenvalues) == n // 2
        assert eig.size == n and eig.block_size == len(even.eigenvalues)
        blocks = np.sort(np.concatenate([even.eigenvalues, odd.eigenvalues]))
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
        # i B, B a random real antisymmetric matrix made reversal-symmetric,
        # (B + J B J)/2: Hermitian and purely imaginary, as the generator is
        # on a symmetric grid.
        rng = np.random.default_rng(n)
        b = rng.standard_normal((n, n))
        b = b - b.T
        return 1j * (b + b[::-1, ::-1]) / 2

    def test_rejects_a_real_part(self):
        # Hermitian and reversal-symmetric, but not purely imaginary: its
        # exponentials would not be real.
        a = self._symmetric(6) + 1e-6 * np.eye(6)
        with pytest.raises(ArithmeticError, match="purely imaginary"):
            self._parity_eig(a)

    @pytest.mark.parametrize("n", [1, 2, 5, 6])
    def test_assembly_matches_dense_assembly(self, n):
        a = self._symmetric(n)
        got = unitary_from_eig(self._parity_eig(a), 0.7)
        assert isinstance(got, GridUnitary)
        even, odd = got.blocks
        assert even.shape == ((n + 1) // 2,) * 2 and odd.shape == (n // 2,) * 2
        assert not even.flags.writeable and not odd.flags.writeable
        assert got.nbytes == even.nbytes + odd.nbytes
        dense = got.dense()
        assert dense.dtype == np.complex128 and dense.flags.c_contiguous
        assert np.max(np.abs(dense - eigh_unitary(a, 0.7))) < 1e-13


class TestGridUnitary:
    """An assembled operator on both folds: two real parity blocks, or one whole block."""

    @staticmethod
    def _unitary(n, kind="parity", theta=0.7):
        if kind == "parity":
            eig = TestParityEig._parity_eig(TestParityEig._symmetric(n))
        else:
            eig = _whole(_real_form(_random_symmetric(np.random.default_rng(n), n)))
        return unitary_from_eig(eig, theta)

    @pytest.mark.parametrize("kind", ["parity", "whole"])
    @pytest.mark.parametrize("n", [1, 2, 3, 6, 7, 32, 33])
    def test_blockwise_product_matches_dense_product(self, n, kind):
        u = self._unitary(n, kind)
        rng = np.random.default_rng(100 + n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for adjoint in (False, True):
            dense = u.dense(adjoint=adjoint)
            y = u.dot(x, adjoint=adjoint)
            assert y.shape == (n,) and y.dtype == np.complex128
            assert np.max(np.abs(y - dense @ x)) < 1e-14 * np.linalg.norm(x)
            # A real operand is promoted, as with the dense matrix.
            got = u.dot(x.real, adjoint=adjoint)
            assert np.max(np.abs(got - dense @ x.real)) < 1e-14 * np.linalg.norm(x)
        assert np.array_equal(u.dense(adjoint=True), u.dense().conj().T)

    @pytest.mark.parametrize("kind", ["parity", "whole"])
    def test_blockwise_product_leaves_its_operand_alone(self, kind):
        u = self._unitary(6, kind)
        x = np.arange(6, dtype=complex)
        x.setflags(write=False)
        u.dot(x)
        u.dot(x, adjoint=True)
        assert np.array_equal(x, np.arange(6))

    @pytest.mark.parametrize("kind", ["parity", "whole"])
    def test_adjoint_product_copies_no_block(self, kind):
        # The adjoint runs on the transposed views, or as conj(conj(x) M):
        # beside its vectors it allocates nothing near a block's bytes.
        u = self._unitary(256, kind)
        x = np.ones(256, dtype=complex)
        u.dot(x, adjoint=True)  # any one-time allocations outside the trace
        _, peak = TestUnitarityCertificate._traced_peak(lambda: u.dot(x, adjoint=True))
        assert peak < min(m.nbytes for m in u.blocks) / 4

    @pytest.mark.parametrize("kind", ["parity", "whole"])
    @pytest.mark.parametrize("shape", [(5,), (7,), (6, 2), ()])
    def test_rejects_operand_that_is_not_an_n_vector(self, shape, kind):
        with pytest.raises(ValueError, match="expected"):
            self._unitary(6, kind).dot(np.zeros(shape))

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 7, 32, 33])
    def test_dense_is_the_blocks_on_the_explicit_parity_basis(self, n):
        u = self._unitary(n)
        k = n - n // 2
        blocks = np.zeros((n, n))
        blocks[:k, :k], blocks[k:, k:] = u.blocks
        b = parity_basis(n)
        assert np.max(np.abs(u.dense() - b @ blocks @ b.T)) < 1e-15
        assert np.max(np.abs(u.dense(adjoint=True) - b @ blocks.T @ b.T)) < 1e-15

    @pytest.mark.parametrize("kind", ["parity", "whole"])
    def test_dense_is_read_only_and_bit_identical_each_call(self, kind):
        u = self._unitary(5, kind)
        for adjoint in (False, True):
            first = u.dense(adjoint=adjoint)
            assert not first.flags.writeable
            assert first.dtype == np.complex128 and first.flags.c_contiguous
            assert u.dense(adjoint=adjoint).tobytes() == first.tobytes()
        # One block is the operator itself; any other dense matrix is new.
        assert (u.dense() is u.dense()) == (kind == "whole")
        assert u.dense(adjoint=True) is not u.dense(adjoint=True)

    @pytest.mark.parametrize("kind", ["parity", "whole"])
    def test_dense_of_theta_zero_is_the_identity(self, kind):
        u = self._unitary(7, kind, theta=0.0)
        for adjoint in (False, True):
            assert np.max(np.abs(u.dense(adjoint=adjoint) - np.eye(7))) < 1e-13

    @pytest.mark.parametrize("n", [1, 2, 7, 8])
    def test_blocks_are_real_and_keep_what_was_measured(self, n):
        u = self._unitary(n)
        assert all(m.dtype == np.float64 for m in u.blocks)
        assert u.nbytes == 8 * (((n + 1) // 2) ** 2 + (n // 2) ** 2)
        assert u.unitarity_residual == (None, None)  # small blocks are certified
        # A real operand with a zero imaginary part comes back with one.
        x = np.arange(n, dtype=float) - 1.5
        assert not u.dot(x).imag.any() and not u.dot(x, adjoint=True).imag.any()
        whole = self._unitary(n, "whole")
        assert whole.blocks[0].dtype == np.complex128 and whole.nbytes == 16 * n * n
        assert whole.unitarity_residual == (None,)

    @pytest.mark.parametrize("n, scheme, checked", [
        # Step 9 certifies whole grids only up to N = 442: at 512 the dense
        # check runs, and its residual is kept.
        (512, IndexScheme.ORDINARY, (True,)),
        (128, IndexScheme.ORDINARY, (False,)),
        (512, IndexScheme.CENTERED, (False, False)),
    ])
    def test_keeps_each_blocks_measured_unitarity(self, n, scheme, checked):
        u = unitary_from_eig(operator_set(n, scheme).generator_eig, 2 * math.pi * math.log(2.0))
        assert tuple(r is not None for r in u.unitarity_residual) == checked
        for m, resid in zip(u.blocks, u.unitarity_residual):
            if resid is not None:
                assert type(resid) is float
                assert resid == linalg._unitarity_residual(m) < 1e-10

    def test_unpaired_blocks_are_refused(self):
        # A whole block has no rotation form, so the reversal fold, whose
        # blocks are assembled real, refuses it; so does any third block.
        paired = _paired(TestParityEig._symmetric(4)[:2, :2])
        for blocks in ((_real_form(np.eye(2)), paired), (paired, _real_form(np.eye(2))),
                       (paired, paired, paired), ()):
            with pytest.raises(ValueError, match="paired"):
                GridDecomposition(blocks, 0.0)


def _unitarity_residual(block):
    return identity_residual(block.conj().T @ block)


def _concentrated(k, eps, paired=False):
    """``Q = H (I + eps*ones)``, H the orthonormal Sylvester Hadamard matrix of k = 2^p.

    ``Q^T Q - I`` is about ``2 eps`` in every entry, and H, whose first
    row is constant, gathers its k-fold 2-norm into the (0, 0) entry of
    ``Q Q^T - I``, so at theta = 0 the block's unitarity residual comes
    within a few per cent of the bound's leading term ``2 k delta``.  Kept
    as a paired block (every ``t_j`` 1) or a whole one.
    """
    h = np.ones((1, 1))
    while len(h) < k:
        h = np.block([[h, h], [h, -h]])
    q = (h / math.sqrt(k)) @ (np.eye(k) + eps * np.ones((k, k)))
    return _hand_built(q, np.linspace(-3, 3, k), pair_signs=np.ones(k // 2) if paired else None)


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
        for block, m in zip(eig.blocks, unitary_from_eig(eig, 2 * math.pi * ln_m).blocks):
            assert block.unitarity_bound >= _unitarity_residual(m)
            assert block.unitarity_bound < UNITARITY_TOL

    @pytest.mark.parametrize("scheme", list(IndexScheme))
    @pytest.mark.parametrize("n", [509, 512, 1021, 1024])
    def test_bound_covers_the_measured_residual_on_large_grids(self, n, scheme):
        # The primes run their FFTs through Bluestein's plan, whose bound
        # the real form's transform error carries.
        eig = operator_set(n, scheme).generator_eig
        for block, m in zip(eig.blocks, unitary_from_eig(eig, 2 * math.pi * math.log(1.7)).blocks):
            assert block.unitarity_bound >= _unitarity_residual(m)
            # Paired blocks up to 512 are certified; whole blocks of 509 and
            # more are not (step 9 certifies them up to about k = 450).
            assert (block.unitarity_bound < UNITARITY_TOL) == (block.rotation is not None)

    @pytest.mark.parametrize(
        "n, scheme, certified",
        [(128, IndexScheme.ORDINARY, True), (442, IndexScheme.ORDINARY, True),
         (443, IndexScheme.CENTERED, False), (512, IndexScheme.ORDINARY, False),
         (1024, IndexScheme.ORDINARY, False)],
    )
    def test_whole_grids_the_assembly_certifies(self, monkeypatch, n, scheme, certified):
        # Step 9's bound grows as k gamma_k: it certifies every whole grid up
        # to N = 442 and none from 460; the rest are checked densely.
        eig = operator_set(n, scheme).generator_eig
        (block,) = eig.blocks
        assert block.rotation is None and block.basis.dtype == np.float64
        assert (block.unitarity_bound < UNITARITY_TOL) == certified
        calls = []
        check = linalg._unitarity_residual
        monkeypatch.setattr(linalg, "_unitarity_residual",
                            lambda m: calls.append(m.shape) or check(m))
        unitary_from_eig(eig, 2 * math.pi * math.log(2.0))
        assert calls == ([] if certified else [(n, n)])

    @pytest.mark.parametrize("paired", [True, False], ids=["paired", "whole"])
    @pytest.mark.parametrize("theta", [0.0, 0.7])
    def test_bound_covers_a_basis_far_from_orthonormal(self, theta, paired):
        # A paired block's bound is that of steps 2-4, a whole block's step 9's.
        eig = _concentrated(64, 1e-13, paired)
        assert eig.unitarity_bound < UNITARITY_TOL
        m = _assemble(eig, theta)
        assert m.dtype == (np.float64 if paired else np.complex128)
        assert eig.unitarity_bound >= _unitarity_residual(m) > 50 * eig.residuals["gram_residual"]

    def test_bound_covers_the_rounding_of_the_gram_residual(self):
        # Even a measured residual of 0 leaves the exact one up to gamma_{k+2}.
        k = 512
        u = np.finfo(float).eps / 2
        gamma = (k + 2) * u / (1 - (k + 2) * u)
        eig = _hand_built(np.eye(k), np.zeros(k))
        assert eig.residuals["gram_residual"] == 0.0
        assert eig.unitarity_bound >= (1 + k * gamma) ** 2 - 1

    def test_empty_block_has_a_zero_bound(self):
        eig = operator_set(1, IndexScheme.ORDINARY).generator_eig
        assert eig.blocks[1].unitarity_bound == 0.0

    def test_uncertified_block_runs_the_full_check_and_raises(self):
        eig = _concentrated(64, 1e-12)
        assert eig.unitarity_bound >= UNITARITY_TOL
        with pytest.raises(ArithmeticError, match="lost unitarity"):
            _assemble(eig, 0.0)

    def test_full_check_runs_only_on_uncertified_blocks(self, monkeypatch):
        rng = np.random.default_rng(23)
        q, _ = np.linalg.qr(rng.standard_normal((64, 64)))
        # Columns scaled by 1 +- 1e-12: a gram residual that the bound
        # does not certify, on a block that is unitary to about 4e-12.
        uncertified = _hand_built(q * (1 + 1e-12 * rng.choice([-1, 1], 64)), np.arange(64.0))
        assert uncertified.unitarity_bound >= UNITARITY_TOL
        certified = operator_set(64, IndexScheme.ORDINARY).generator_eig
        assert certified.blocks[0].unitarity_bound < UNITARITY_TOL
        calls = []
        check = linalg._unitarity_residual

        def counting(m):
            calls.append(m.shape)
            return check(m)

        monkeypatch.setattr(linalg, "_unitarity_residual", counting)
        unitary_from_eig(certified, 0.7)
        assert calls == []
        _assemble(uncertified, 0.7)
        assert calls == [(64, 64)]

    @staticmethod
    def _traced_peak(build):
        tracemalloc.start()
        try:
            result = build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak

    def test_real_assembly_and_its_check_keep_one_temporary_beside_the_block(self):
        # A real block of k = 512: its rows of Q K in two real buffers of 96
        # rows, then the check's two complex buffers of 48 rows, which hold
        # 0.375 times its bytes (1.38 times the block's bytes measured).
        k = 512
        rng = np.random.default_rng(k)
        b = rng.standard_normal((k, k))
        eig = _paired(1j * (b - b.T), scale=1 + 1e-12 * rng.choice([-1, 1], k))
        assert eig.unitarity_bound >= UNITARITY_TOL  # the dense check runs
        empty = _paired(np.zeros((0, 0)))
        u, peak = self._traced_peak(
            lambda: unitary_from_eig(GridDecomposition((eig, empty), 0.0), 0.7))
        even = u.blocks[0]
        assert even.dtype == np.float64 and u.unitarity_residual[0] is not None
        assert u.unitarity_residual[0] == _unitarity_residual(even) < UNITARITY_TOL
        assert peak < 1.6 * even.nbytes

    def test_check_measures_the_whole_gram_from_its_upper_triangle(self):
        rng = np.random.default_rng(29)
        for k in (1, 2, 64, 65, 66, 130, 200):
            q, _ = np.linalg.qr(_random_complex(rng, k))
            m = q * (1 + 1e-9 * rng.standard_normal(k))
            for block in (m, m.real):
                got = linalg._unitarity_residual(block)
                assert got == pytest.approx(_unitarity_residual(block), rel=1e-6, abs=1e-15)


def _norm_error(y, x):
    """``| ||y||^2 / ||x||^2 - 1 |``, what ``factored_bound`` bounds."""
    return abs(np.vdot(y, y).real / np.vdot(x, x).real - 1.0)


class TestFactoredApply:
    """``apply_from_eig``: the operator applied as ``Z (Q (p * (Q^T (Z^H x))))``, and its certificate."""

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
        bounds = [b.residuals["factored_bound"] for b in eig.blocks]
        assert max(bounds) >= _norm_error(y, x)
        assert all(bound < UNITARITY_TOL for bound in bounds)

    @pytest.mark.parametrize("scheme", list(IndexScheme))
    @pytest.mark.parametrize("n", [512, 1024])
    def test_certifies_the_blocks_the_assembly_certifies(self, n, scheme):
        eig = operator_set(n, scheme).generator_eig
        blocks = eig.blocks
        assert eig.block_size == blocks[0].block_size == max(b.block_size for b in blocks)
        assembly_certified = all(b.unitarity_bound < UNITARITY_TOL for b in blocks)
        assert eig.factored_certified or not assembly_certified
        # N = 1024 ordinary is one dense block of 1024: neither bound certifies
        # it.  N = 512 ordinary is applied factored, but its assembly (step 9)
        # is checked densely.
        assert eig.factored_certified == (n == 512 or scheme is IndexScheme.CENTERED)
        assert assembly_certified == (scheme is IndexScheme.CENTERED)

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 33])
    def test_matches_the_assembled_product(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for eig in (_whole(_real_form(_random_symmetric(rng, n))),
                    TestParityEig._parity_eig(TestParityEig._symmetric(n))):
            y = apply_from_eig(eig, 0.7, x)
            assert y.shape == (n,) and y.dtype == np.complex128
            operator = unitary_from_eig(eig, 0.7)
            assert np.max(np.abs(y - operator.dot(x))) < 1e-14 * np.linalg.norm(x)
            # A real operand is promoted, as with the assembled operator.
            got = apply_from_eig(eig, 0.7, x.real)
            assert np.max(np.abs(got - operator.dot(x.real))) < 1e-14 * n

    def test_leaves_its_operand_alone(self):
        eig = TestParityEig._parity_eig(TestParityEig._symmetric(6))
        x = np.arange(6, dtype=complex)
        x.setflags(write=False)
        apply_from_eig(eig, 0.7, x)
        assert np.array_equal(x, np.arange(6))

    @pytest.mark.parametrize("shape", [(5,), (7,), (6, 2), ()])
    def test_rejects_operand_that_is_not_an_n_vector(self, shape):
        for eig in (_whole(_real_form(_random_symmetric(np.random.default_rng(6), 6))),
                    TestParityEig._parity_eig(TestParityEig._symmetric(6))):
            with pytest.raises(ValueError, match="expected"):
                apply_from_eig(eig, 0.7, np.zeros(shape))

    def test_rejects_non_finite_theta(self):
        eig = _whole(_real_form(np.eye(2)))
        with pytest.raises(ValueError, match="finite"):
            apply_from_eig(eig, math.inf, np.ones(2))
        with pytest.raises(ValueError, match="theta must be finite"):
            unitary_from_eig(eig, math.nan)

    @pytest.mark.parametrize("paired", [True, False], ids=["paired", "whole"])
    @pytest.mark.parametrize("theta", [0.0, 0.7])
    def test_bound_covers_a_basis_far_from_orthonormal(self, theta, paired):
        eig = _concentrated(64, 1e-13, paired)
        assert eig.factored_certified
        # x along the column of Q Q^T - I that H gathers the error into.
        x = np.zeros(64, dtype=complex)
        x[0] = 1.0
        y = apply_from_eig(_whole(eig), theta, x)
        residuals = eig.residuals
        assert residuals["factored_bound"] >= _norm_error(y, x) > 50 * residuals["gram_residual"]

    def test_uncertified_block_is_refused(self):
        eig = _concentrated(64, 1e-12)
        assert eig.residuals["factored_bound"] >= UNITARITY_TOL and not eig.factored_certified
        with pytest.raises(ArithmeticError, match="not certified"):
            apply_from_eig(_whole(eig), 0.7, np.ones(64))
        rng = np.random.default_rng(64)
        b = rng.standard_normal((64, 64))
        uncertified = _paired(1j * (b - b.T), scale=1 + 1e-12 * rng.choice([-1, 1], 64))
        assert not uncertified.factored_certified
        parity = GridDecomposition((uncertified, _paired(1j * (b - b.T)[1:, 1:])), 0.0)
        assert not parity.factored_certified
        with pytest.raises(ArithmeticError, match="not certified"):
            apply_from_eig(parity, 0.7, np.ones(127))


class TestKeptRealForm:
    """A real-form decomposition keeps ``(lam, Q, Z)`` and builds V only on request."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(min_value=1, max_value=64),
        scheme=st.sampled_from(list(IndexScheme)),
        ln_m=st.floats(min_value=-math.log(16.0), max_value=math.log(16.0)),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_factored_apply_matches_the_scaling_matrix(self, n, scheme, ln_m, seed):
        spec = ScalingSpec(math.exp(ln_m), n, scheme)
        theta = 2 * math.pi * math.log(spec.m_factor)
        eig = operator_set(n, scheme).generator_eig
        matrix = scaling_matrix(spec)
        rng = np.random.default_rng(seed)
        wide = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
        # Complex, real and strided operands, none of them overwritten.
        for x in (wide[:n].copy(), wide[:n].real.copy(), wide[::2]):
            before = x.copy()
            y = apply_from_eig(eig, theta, x)
            assert y.shape == (n,) and y.dtype == np.complex128
            assert np.linalg.norm(y - matrix @ x) <= 1e-13 * np.linalg.norm(x)
            assert np.array_equal(x, before)
        for block in eig.blocks:
            q, k = block.basis, block.block_size
            assert q.dtype == np.float64 and not q.flags.writeable
            # Z on this block's basis as a dense matrix, from its transform.
            z = block.transform(np.eye(k, dtype=complex), np.empty((k, k), dtype=complex), 0)
            v = block.eigenvectors
            assert v.dtype == np.complex128 and not v.flags.writeable
            assert np.max(np.abs(v - z @ q), initial=0.0) <= 1e-13
            # Bit for bit the transform of the whole Q at once.
            whole = block.transform(q.astype(complex), np.empty((k, k), dtype=complex), 0)
            assert v.tobytes() == whole.tobytes()
            assert block.eigenvectors is not v  # built on each request, not kept

    @pytest.mark.parametrize("n, scheme", [(64, IndexScheme.ORDINARY), (65, IndexScheme.CENTERED),
                                           (64, IndexScheme.CENTERED), (65, IndexScheme.ORDINARY)])
    def test_transform_error_enters_the_factored_bound(self, n, scheme):
        # The same block with Z taken as exact.  Where the transforms run (a
        # whole grid), its factored bound is smaller by about 4 eta, and its
        # assembly's, whose two transforms each act on all k rows or columns,
        # by about 4 sqrt(k) eta; a paired block runs none, so eta enters
        # neither of its bounds.
        for block in operator_set(n, scheme).generator_eig.blocks:
            residuals = block.residuals
            eta = residuals["transform_error"]
            assert eta > 0
            exact = linalg._certified(block.eigenvalues, block.basis, block.transform,
                                      block.rotation, **{**residuals, "transform_error": 0.0})
            if block.rotation is not None:
                assert exact.unitarity_bound == block.unitarity_bound
                assert exact.residuals["factored_bound"] == residuals["factored_bound"]
                continue
            gap = residuals["factored_bound"] - exact.residuals["factored_bound"]
            assert 3.9 * eta < gap < 4.1 * eta
            gap = block.unitarity_bound - exact.unitarity_bound
            assert 3.9 * math.sqrt(n) * eta < gap < 4.1 * math.sqrt(n) * eta

    @pytest.mark.parametrize("scheme", list(IndexScheme))
    def test_one_bound_decides_the_factored_path(self, scheme):
        for n in range(1, 65):
            grid = operator_set(n, scheme).generator_eig
            for block in grid.blocks:
                assert block.factored_certified == (
                    block.residuals["factored_bound"] < UNITARITY_TOL)
            assert grid.factored_certified == all(b.factored_certified for b in grid.blocks)

    @pytest.mark.parametrize("n, scheme", [(596, IndexScheme.ORDINARY),
                                           (597, IndexScheme.CENTERED),
                                           (604, IndexScheme.ORDINARY)])
    def test_applies_the_whole_grids_its_bound_certifies_near_the_edge(self, n, scheme):
        # One block of N whose factored bound is just below 1e-10, 8.9e-11
        # to 9.2e-11 (one or two BLAS threads): such a grid is applied
        # factored, within that bound.
        grid = operator_set(n, scheme).generator_eig
        (eig,) = grid.blocks
        bound = eig.residuals["factored_bound"]
        assert bound < UNITARITY_TOL and eig.factored_certified and grid.factored_certified
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        theta = 2 * math.pi * math.log(1.7)
        y = apply_from_eig(grid, theta, x)
        assert np.linalg.norm(y - unitary_from_eig(grid, theta).dot(x)) <= 1e-12 * np.linalg.norm(x)
        assert _norm_error(y, x) <= bound

    def test_concurrent_applies_match_the_serial_ones_bit_for_bit(self):
        # The kept transforms run per request; they must write only buffers
        # of their own call.  More threads than cores and a short switch
        # interval, so that the threads interleave inside the transforms.
        eigs = [operator_set(96, IndexScheme.CENTERED).generator_eig,  # symmetric: parity blocks
                operator_set(96, IndexScheme.ORDINARY).generator_eig]  # asymmetric: one block
        assert len(eigs[0].blocks) == 2 and eigs[0].blocks[0].rotation is not None
        assert len(eigs[1].blocks) == 1 and eigs[1].blocks[0].transform is not None
        rng = np.random.default_rng(96)
        x = rng.standard_normal(96) + 1j * rng.standard_normal(96)
        thetas = [2 * math.pi * math.log(0.6 + 0.2 * i) for i in range(8)]
        serial = {(i, j): apply_from_eig(eig, theta, x).tobytes()
                  for i, theta in enumerate(thetas) for j, eig in enumerate(eigs)}
        bad = []

        def worker(i):
            for _ in range(40):
                for j, eig in enumerate(eigs):
                    if apply_from_eig(eig, thetas[i], x).tobytes() != serial[i, j]:
                        bad.append((i, j))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert bad == []


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


_DECISIONS = ("unitarity_bound", "block_size", "factored_certified")


def _certificate(eig):
    """Every certificate value of a grid's decomposition, and of each of its blocks."""
    return {"reversal_residual": eig.reversal_residual, "size": eig.size,
            "block_size": eig.block_size, "factored_certified": eig.factored_certified,
            "blocks": [{**{name: getattr(b, name) for name in _DECISIONS}, **b.residuals}
                       for b in eig.blocks]}


def _leaves(tree):
    for value in tree.values():
        if isinstance(value, list):
            for block in value:
                yield from _leaves(block)
        else:
            yield value


@pytest.mark.parametrize("build", [
    lambda: operator_set(64, IndexScheme.CENTERED).generator_eig,  # symmetric: parity blocks
    lambda: operator_set(64, IndexScheme.ORDINARY).generator_eig,  # asymmetric: one real form
    lambda: _whole(_hand_built(np.eye(3), np.arange(3.0))),
    lambda: TestParityEig._parity_eig(TestParityEig._symmetric(7)),
], ids=["symmetric", "asymmetric", "hand-built", "hand-built-parity"])
def test_every_certificate_field_is_a_plain_json_value(build):
    # numpy scalars are not the float and bool the fields promise, and
    # json.dumps refuses numpy.bool.
    eig = build()
    certificate = _certificate(eig)
    assert json.loads(json.dumps(certificate)) == certificate
    for value in _leaves(certificate):
        assert type(value) in (float, bool, int, type(None)), (value, type(value))
    for block in eig.blocks:
        residuals = dict(block.residuals)
        assert json.loads(json.dumps(residuals)) == residuals
        assert all(type(value) is float for value in residuals.values())


class TestRealFormAssemblyMemory:
    """The traced peak of an assembly from a real form: no complex k x k V beside the result."""

    @pytest.mark.parametrize("scheme, limit", [
        # One complex block of 1024, its rows computed 96 at a time, then
        # its columns transformed 48 at a time, in one complex buffer of
        # 96 rows (1.10 measured).
        (IndexScheme.ORDINARY, 1.15),
        # Two real blocks of 512, each assembled beside two real buffers of
        # 96 of its rows (1.22 measured).
        (IndexScheme.CENTERED, 1.4),
    ])
    def test_assembly_at_n_1024_keeps_no_complex_eigenvectors(self, monkeypatch, scheme, limit):
        # Unshared: with BLAS pinned to one thread on two CPUs the helper
        # would take part, and its buffers are pinned by the test below.
        monkeypatch.setattr(linalg, "_beside", lambda here, there: False)
        eig = operator_set(1024, scheme).generator_eig
        u, peak = TestUnitarityCertificate._traced_peak(
            lambda: unitary_from_eig(eig, 2 * math.pi * math.log(1.7)))
        assert peak <= limit * u.nbytes

    @pytest.mark.parametrize("scheme, limit", [
        # The helper takes one complex buffer of 96 rows beside the
        # caller's for each pass, and two of 48 rows for the dense check
        # (1.21 measured).
        (IndexScheme.ORDINARY, 1.25),
        # Paired blocks, certified: nothing is shared (1.22 measured).
        (IndexScheme.CENTERED, 1.4),
    ])
    def test_assembly_at_n_1024_shared_with_the_helper_keeps_the_limit(
            self, two_cpus, helper_posts, scheme, limit):
        eig = operator_set(1024, scheme).generator_eig
        u, peak = TestUnitarityCertificate._traced_peak(
            lambda: unitary_from_eig(eig, 2 * math.pi * math.log(1.7)))
        assert peak <= limit * u.nbytes
        assert bool(helper_posts) == (scheme is IndexScheme.ORDINARY)


#: Sizes about the row blocks' edges: one block below 144 rows, two from
#: 144, and from 193 a last block of 49 rows.
_EDGE_SIZES = [143, 144, 145, 191, 192, 193]


def _sites(n):
    """One entry in the last row block, one in the middle row, one off the diagonal blocks."""
    return {"last-block": (n - 1, n - 3), "middle-row": (n // 2, 2), "off-diagonal": (1, n - 2)}


class TestRowBlockChecks:
    """Each check runs a row block at a time, and still sees a single bad entry anywhere."""

    @staticmethod
    def _hermitian(n):
        rng = np.random.default_rng(n)
        a = _random_complex(rng, n)
        return (a + a.conj().T) / 2

    @pytest.mark.parametrize("site", ["last-block", "middle-row", "off-diagonal"])
    @pytest.mark.parametrize("n", _EDGE_SIZES)
    def test_hermiticity(self, n, site):
        a = self._hermitian(n)
        a[_sites(n)[site]] += 1e-6
        with pytest.raises(ValueError, match="not Hermitian"):
            real_form_eig(lambda: a, n, _copy, 0.0)

    @pytest.mark.parametrize("site", ["last-block", "middle-row", "off-diagonal"])
    @pytest.mark.parametrize("n", _EDGE_SIZES)
    def test_reversal(self, n, site):
        a = TestParityEig._symmetric(n)
        a[_sites(n)[site]] += 1e-6j
        with pytest.raises(ArithmeticError, match="index reversal"):
            linalg._reversal_fold(a)

    @pytest.mark.parametrize("site", ["last-block", "middle-row", "off-diagonal"])
    @pytest.mark.parametrize("n", _EDGE_SIZES)
    def test_purely_imaginary(self, n, site):
        # A real part at an entry and at its mirror, so that A still commutes
        # with reversal.
        a = TestParityEig._symmetric(n)
        i, j = _sites(n)[site]
        a[i, j] += 1e-6
        a[n - 1 - i, n - 1 - j] = a[i, j]
        with pytest.raises(ArithmeticError, match="purely imaginary"):
            linalg._reversal_fold(a)

    @pytest.mark.parametrize("site", ["last-block", "middle-row", "off-diagonal"])
    @pytest.mark.parametrize("n", _EDGE_SIZES)
    def test_realness_of_the_real_form(self, n, site):
        # With Z = I the real form is A itself: a Hermitian A with one
        # imaginary pair is not real.
        a = _random_symmetric(np.random.default_rng(n), n).astype(complex)
        i, j = _sites(n)[site]
        a[i, j] += 1e-6j
        a[j, i] -= 1e-6j
        with pytest.raises(ArithmeticError, match="real form is not real"):
            real_form_eig(lambda: a, n, _copy, 0.0)


def _whole_hermiticity_residual(a):
    """The whole-matrix check that :func:`linalg._hermiticity_residual` runs by row blocks."""
    return 1.0 + float(abs(a).max(initial=0.0)), float(abs(a - a.conj().T).max(initial=0.0))


def _whole_real_form(a, transform, s, scale):
    """``Z conj(A Z)`` by whole-matrix transforms, as :func:`linalg._write_real_form` by slabs."""
    x, y = a.copy(), np.empty_like(a)
    transform(x, y, axis=1)
    np.conjugate(y, out=x)
    transform(x, y, axis=0)
    s[...] = y.real
    return max(float(y.imag.max(initial=0.0)), -float(y.imag.min(initial=0.0)))


def _whole_reversal_fold(a):
    """The fold along the columns of the whole matrix, then the rows, and the whole check."""
    columns = linalg._fold(a, axis=1)
    even, odd = linalg._fold(columns[0])[0], linalg._fold(columns[1])[1]
    even *= 0.5
    odd *= 0.5
    return even, odd, float(abs(a - a[::-1, ::-1]).max(initial=0.0))


def _whole_generator(ops):
    half_sums = np.add.outer(ops.u_diagonal, ops.u_diagonal)
    half_sums *= 0.5
    return ops.d * half_sums


@pytest.mark.parametrize("n", [*range(1, 41), 127, 128, 129])
@pytest.mark.parametrize("scheme", list(IndexScheme))
def test_slab_decomposition_is_bit_identical_to_the_whole_matrix_recipe(monkeypatch, n, scheme):
    # G formed, checked, folded and transformed by row blocks and slabs
    # against the same steps on whole matrices: every array and field kept.
    cached = operator_set(n, scheme)
    got = OperatorSet(cached.grid, cached.u_diagonal, cached.d_column).generator_eig
    monkeypatch.setattr(linalg, "_hermiticity_residual", _whole_hermiticity_residual)
    monkeypatch.setattr(linalg, "_write_real_form", _whole_real_form)
    monkeypatch.setattr(linalg, "_reversal_fold", _whole_reversal_fold)
    monkeypatch.setattr(OperatorSet, "_formed_generator", _whole_generator)
    want = OperatorSet(cached.grid, cached.u_diagonal, cached.d_column).generator_eig
    assert len(got.blocks) == len(want.blocks)
    assert repr(got.reversal_residual) == repr(want.reversal_residual)
    for g, w in zip(got.blocks, want.blocks):
        assert g.eigenvalues.tobytes() == w.eigenvalues.tobytes()
        assert g.basis.tobytes() == w.basis.tobytes()
        for f in dataclasses.fields(g):
            value, expected = getattr(g, f.name), getattr(w, f.name)
            if isinstance(value, (float, int, bool)):
                assert repr(value) == repr(expected), f.name
        assert {name: repr(v) for name, v in g.residuals.items()} == {
            name: repr(v) for name, v in w.residuals.items()}
        if g.rotation is not None:
            assert np.asarray(g.rotation).tobytes() == np.asarray(w.rotation).tobytes()


class TestSymmetricGrids:
    """Paired blocks on the grids whose generator is purely imaginary and reversal-symmetric."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(min_value=1, max_value=64),
           ln_a=st.floats(min_value=-2.0, max_value=2.0),
           ln_b=st.floats(min_value=-2.0, max_value=2.0),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_apply_group_law_and_pairs(self, n, ln_a, ln_b, seed):
        # Even N is symmetric on the centered scheme, odd N on the ordinary one.
        ops = operator_set(n, IndexScheme.CENTERED if n % 2 == 0 else IndexScheme.ORDINARY)
        eig = ops.generator_eig
        assert len(eig.blocks) == 2
        theta_a, theta_b = 2 * math.pi * ln_a, 2 * math.pi * ln_b
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        u_a = unitary_from_eig(eig, theta_a)
        y = apply_from_eig(eig, theta_a, x)
        assert np.linalg.norm(y - u_a.dot(x)) <= 1e-13 * np.linalg.norm(x)
        u_b, u_ab = unitary_from_eig(eig, theta_b), unitary_from_eig(eig, theta_a + theta_b)
        for m_a, m_b, m_ab in zip(u_a.blocks, u_b.blocks, u_ab.blocks):
            assert np.max(np.abs(m_a @ m_b - m_ab), initial=0.0) <= 1e-12
        even, odd, _ = linalg._reversal_fold(ops.generator)
        for block, decomposed in zip((even, odd), eig.blocks):
            assert (pair_residual(block.imag, decomposed)
                    <= decomposed.residuals["reconstruction_residual"])
