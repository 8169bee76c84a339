"""Tests for the coordinate/differentiation operator pair and the generator."""

import dataclasses
import inspect
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    forked_exit_code,
    explicit_summation_dual,
    fixture_matrix,
    load_fixture,
    package_env,
    pair_residual,
    parity_basis,
)

from opscale import cache, dft, operators
from opscale.dft import IndexScheme, dft_matrix, index_grid
from opscale.linalg import (
    _parity_transform,
    _reversal_fold,
    real_form_eig,
)
from opscale.operators import (
    OperatorSet,
    _diff_column,
    _HalfDft,
    diff_matrix,
    operator_set,
)


class TestCoordMatrix:
    def test_entries_match_scalar_formula(self):
        for n in (4, 7, 16):
            for scheme in IndexScheme:
                ops = operator_set(n, scheme)
                u = ops.u
                for k, label in enumerate(ops.grid.indices):
                    expected = (math.sqrt(n) / math.pi) * math.sin(math.pi * label / n)
                    assert abs(u[k, k] - expected) < 1e-15

    def test_is_real_diagonal(self):
        u = operator_set(12, IndexScheme.CENTERED).u
        assert not np.iscomplexobj(u)
        assert np.count_nonzero(u - np.diag(np.diag(u))) == 0

    def test_diagonal_converges_to_physical_coordinate(self):
        # For a fixed physical coordinate u0 = n*h the correction factor
        # sin(x)/x -> 1 as N grows, so the diagonal entry approaches u0;
        # within |u0| <= 1 the relative error is already below 1% at
        # N = 1024.
        n = 1024
        grid = index_grid(n, IndexScheme.ORDINARY)
        u = operator_set(n, IndexScheme.ORDINARY).u_diagonal
        mask = (np.abs(grid.coordinates) <= 1.0) & (grid.indices != 0)
        rel = np.abs(u[mask] - grid.coordinates[mask]) / np.abs(grid.coordinates[mask])
        assert np.max(rel) < 1e-2

    def test_agrees_with_naive_coordinates_to_third_order(self):
        # n*h - U[n, n] = (sqrt(N)/pi)*(x - sin x) at x = pi*n/N, and
        # x - sin x is an alternating series bounded by its leading term
        # x^3/6, so the gap never exceeds pi^2*n^3/(6*N^2.5) — cubic near
        # the center, O(1) at the grid edge.
        n_samples = 64
        grid = index_grid(n_samples, IndexScheme.ORDINARY)
        u = operator_set(n_samples, IndexScheme.ORDINARY).u_diagonal
        gap = np.abs(grid.coordinates - u)
        bound = np.pi**2 * np.abs(grid.indices) ** 3 / (6 * n_samples**2.5)
        assert np.all(gap <= bound + 1e-15)
        edge_gap = abs(u[0] - grid.coordinates[0])
        assert edge_gap > 0.5


class TestDiffMatrix:
    def test_matches_frozen_explicit_summation_fixture(self):
        # Frozen oracle: D at N=4 (ordinary) computed once by scalar
        # triple summation over the defining formula, no matrix algebra.
        payload = load_fixture("diff4_ordinary.json")
        expected = fixture_matrix(payload)
        ops = operator_set(4, IndexScheme.ORDINARY)
        assert np.max(np.abs(ops.d - expected)) < 1e-12

    def test_matches_live_explicit_summation(self):
        ops = operator_set(6, IndexScheme.CENTERED)
        expected = explicit_summation_dual(ops.f, ops.u_diagonal)
        got = diff_matrix(ops.grid)
        assert np.max(np.abs(got - expected)) < 1e-13

    @pytest.mark.parametrize("n", [3, 8, 17, 64, 89, 101])
    @pytest.mark.parametrize("scheme", list(IndexScheme))
    def test_is_hermitian(self, n, scheme):
        # Exactly: at N = 89 and 101 the FFT leaves rounding in the
        # imaginary part of the diagonal, which the column must drop.
        ops = operator_set(n, scheme)
        assert np.array_equal(ops.d, ops.d.conj().T)

    @pytest.mark.parametrize("n", [2, 5, 16, 31, 64, 128])
    @pytest.mark.parametrize("scheme", list(IndexScheme))
    def test_duality_round_trip(self, n, scheme):
        # U recovered from D by the inverse conjugation: the two matrices
        # are Fourier duals in both directions, not just by definition.
        ops = operator_set(n, scheme)
        back = ops.f @ ops.d @ ops.f.conj().T
        assert np.max(np.abs(back - ops.u)) < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 17, 64])
    @pytest.mark.parametrize("scheme", list(IndexScheme))
    def test_toeplitz_fill_matches_explicit_summation(self, n, scheme):
        # D is filled from its first column, an FFT of u; the oracle sums
        # every entry of F^-1 U F on its own, so a wrong column or fill
        # shows anywhere in the matrix.
        ops = operator_set(n, scheme)
        expected = explicit_summation_dual(dft_matrix(n, scheme), ops.u_diagonal)
        got = ops.d
        assert got.flags.c_contiguous and not got.flags.writeable
        assert np.max(np.abs(got - expected)) < 1e-13

    @pytest.mark.parametrize("scheme", list(IndexScheme))
    def test_column_matches_the_dense_reference(self, scheme):
        # Criterion 3's grids: the D that the scaling path uses equals the
        # dense F^H U F that the criterion checks, and that reference is
        # F's columns scaled by u and one product with the cached F, bit
        # for bit.
        for n in range(2, 129):
            ops = operator_set(n, scheme)
            expected = diff_matrix(ops.grid)
            f = ops.f
            pinned = f.conj().T @ (ops.u_diagonal[:, None] * f)
            assert expected.tobytes() == pinned.tobytes(), n
            assert np.max(np.abs(ops.d - expected)) < 1e-12, n

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(min_value=1, max_value=256), scheme=st.sampled_from(list(IndexScheme)))
    def test_duality_against_an_exactly_phased_dft(self, n, scheme):
        # F with its label products reduced exactly mod N carries no phase
        # rounding that grows with N, so it exposes the column's own error.
        ops = operator_set(n, scheme)
        labels = ops.grid.indices
        f = np.exp((-2j * np.pi / n) * np.fmod(np.outer(labels, labels), n)) / math.sqrt(n)
        assert np.max(np.abs(f @ ops.d @ f.conj().T - ops.u)) < 1e-13
        assert np.max(np.abs(f.conj().T @ (ops.u @ f) - ops.d)) < 1e-13

    def test_column_that_does_not_transform_back_is_rejected(self):
        # The check reads the column back from the last label; a grid whose
        # last label is not the first plus N-1 gives a column that cannot
        # return u there.
        grid = index_grid(8, IndexScheme.ORDINARY)
        shifted = grid.indices + np.r_[np.zeros(7), 0.5]
        bad = dataclasses.replace(grid, indices=shifted)
        with pytest.raises(ArithmeticError, match="transform back"):
            _diff_column(bad, operator_set(8, IndexScheme.ORDINARY).u_diagonal)

    @pytest.mark.parametrize("n", [7, 8, 101])
    @pytest.mark.parametrize("scheme", list(IndexScheme))
    def test_dense_reference_reuses_the_residual_the_dft_measured(self, n, scheme, request):
        # F was checked when it was built; diff_matrix forms no F F^H again.
        dft_matrix(n, scheme)
        calls = request.getfixturevalue("identity_residual_calls")
        diff_matrix(index_grid(n, scheme))
        assert calls == []

    def test_dense_reference_refuses_an_f_at_its_unitarity_limit(self, monkeypatch):
        # 1e-12 N at N = 8: F is refused when built, and so is D.
        cache.grids.clear()  # no F at N = 8 is left from another test
        monkeypatch.setattr(dft, "_unitarity_residual", lambda f: 8e-12)
        with pytest.raises(ArithmeticError, match="failed unitarity check"):
            diff_matrix(index_grid(8, IndexScheme.ORDINARY))


class TestGenerator:
    def test_entrywise_identity(self):
        # With U diagonal the anticommutator collapses entrywise:
        # G[i, j] = D[i, j] * (U[i, i] + U[j, j]) / 2.  Checking this
        # identity exercises the matrix products against scalar math.
        ops = operator_set(10, IndexScheme.CENTERED)
        u_diag = np.diag(ops.u)
        for i in range(10):
            for j in range(10):
                expected = ops.d[i, j] * (u_diag[i] + u_diag[j]) / 2.0
                assert abs(ops.generator[i, j] - expected) < 1e-14

    @pytest.mark.parametrize("scheme", list(IndexScheme))
    def test_is_exactly_hermitian(self, scheme):
        ops = operator_set(24, scheme)
        assert np.array_equal(ops.generator, ops.generator.conj().T)

    @pytest.mark.parametrize("n", [1, 7, 24, 65])
    @pytest.mark.parametrize("scheme", list(IndexScheme))
    def test_equals_the_symmetrized_product(self, n, scheme):
        # The entrywise G against the anticommutator formed by dense products.
        ops = operator_set(n, scheme)
        g = ops.generator
        expected = (ops.u @ ops.d + ops.d @ ops.u) / 2.0
        assert np.max(np.abs(g - expected)) <= 1e-14 * (1.0 + np.max(np.abs(g)))

    def test_generator_eig_reconstructs(self):
        ops = operator_set(32, IndexScheme.ORDINARY)
        (eig,) = ops.generator_eig.blocks
        recon = (eig.eigenvectors * eig.eigenvalues) @ eig.eigenvectors.conj().T
        assert np.max(np.abs(recon - ops.generator)) < 1e-12

    def test_generator_eig_is_cached(self):
        ops = operator_set(32, IndexScheme.ORDINARY)
        assert ops.generator_eig is ops.generator_eig

    @pytest.mark.parametrize("n, scheme", [(24, IndexScheme.CENTERED), (25, IndexScheme.ORDINARY)])
    def test_is_purely_imaginary_on_symmetric_grids(self, n, scheme):
        g = operator_set(n, scheme).generator
        assert np.max(np.abs(g.real)) <= 1e-15 * np.max(np.abs(g))

    @pytest.mark.parametrize("n, scheme", [(8, IndexScheme.CENTERED), (7, IndexScheme.ORDINARY)])
    def test_a_real_generator_that_commutes_with_reversal_is_refused(self, n, scheme):
        # |u| is even under reversal and a real column makes D real
        # symmetric Toeplitz, so G is real and still commutes with reversal;
        # its exponentials would not be real, and the fold refuses it.
        ops = operator_set(n, scheme)
        tampered = OperatorSet(ops.grid, np.abs(ops.u_diagonal), np.abs(ops.d_column))
        assert tampered.grid_symmetric
        g = tampered.generator
        assert np.array_equal(g, g[::-1, ::-1]) and not g.imag.any()
        with pytest.raises(ArithmeticError, match="purely imaginary"):
            tampered.generator_eig


def _dense_half_dft(grid):
    """Z as a dense matrix: the transform applied to the identity."""
    n = grid.n_samples
    return _HalfDft(grid).apply(np.eye(n, dtype=complex), np.empty((n, n), dtype=complex), 0)


class TestHalfDft:
    """``Z = (F^H)^(1/2)``, the transform that makes the generator real."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(min_value=1, max_value=256), scheme=st.sampled_from(list(IndexScheme)))
    def test_is_a_symmetric_unitary_square_root_that_makes_g_real(self, n, scheme):
        z = _dense_half_dft(index_grid(n, scheme))
        f = dft_matrix(n, scheme)
        assert np.max(np.abs(z @ z - f.conj().T)) < 1e-13
        assert np.max(np.abs(z - z.T)) < 1e-13
        assert np.max(np.abs(z.conj().T @ z - np.eye(n))) < 1e-13
        g = operator_set(n, scheme).generator
        assert np.max(np.abs((z.conj().T @ g @ z).imag)) <= 1e-12 * (1 + np.max(np.abs(g)))

    @pytest.mark.parametrize("n", [127, 128, 255, 256])
    @pytest.mark.parametrize("scheme", list(IndexScheme))
    def test_phases_are_reduced_exactly(self, n, scheme):
        # Against F with its label products reduced exactly mod N: phases
        # left unreduced put an error of about 1e-12/sqrt(N) into Z^2.
        grid = index_grid(n, scheme)
        labels = grid.indices
        f = np.exp((-2j * np.pi / n) * np.fmod(np.outer(labels, labels), n)) / math.sqrt(n)
        z = _dense_half_dft(grid)
        assert np.max(np.abs(z @ z - f.conj().T)) * math.sqrt(n) < 1e-13

    @pytest.mark.parametrize("n, scheme", [(7, IndexScheme.CENTERED), (8, IndexScheme.ORDINARY),
                                           (9, IndexScheme.ORDINARY), (8, IndexScheme.CENTERED)])
    def test_applies_along_either_axis(self, n, scheme):
        grid = index_grid(n, scheme)
        z = _dense_half_dft(grid)
        rng = np.random.default_rng(n)
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        out = np.empty_like(x)
        assert np.max(np.abs(_HalfDft(grid).apply(x.copy(), out, 1) - x @ z)) < 1e-13
        assert np.max(np.abs(_HalfDft(grid).apply(x.copy(), out, 0) - z @ x)) < 1e-13

    @pytest.mark.parametrize("n, scheme", [(1, IndexScheme.ORDINARY), (2, IndexScheme.CENTERED),
                                           (7, IndexScheme.ORDINARY), (8, IndexScheme.CENTERED),
                                           (63, IndexScheme.ORDINARY), (64, IndexScheme.CENTERED)])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_block_transform_is_z_on_the_parity_bases(self, n, scheme, axis):
        grid = index_grid(n, scheme)
        b = parity_basis(n)
        blocks = b.T @ _dense_half_dft(grid) @ b
        k = n - n // 2
        off_diagonal = np.concatenate([blocks[:k, k:].ravel(), blocks[k:, :k].ravel()])
        assert np.max(np.abs(off_diagonal), initial=0.0) < 1e-13
        z = _HalfDft(grid)
        for odd, expected in ((False, blocks[:k, :k]), (True, blocks[k:, k:])):
            size = expected.shape[0]
            eye = np.eye(size, dtype=complex)
            got = _parity_transform(z.apply, n, odd)(eye, np.empty_like(eye), axis)
            assert np.max(np.abs(got - expected), initial=0.0) < 1e-13

    @pytest.mark.parametrize(
        "n, scheme, delta",
        [(8, IndexScheme.ORDINARY, 1e-6), (7, IndexScheme.CENTERED, 1e-6),
         (8, IndexScheme.CENTERED, 1e-6j), (7, IndexScheme.ORDINARY, 1e-6j)],
    )
    def test_generator_without_the_fourier_symmetry_is_rejected(self, n, scheme, delta):
        # One diagonal of D changed: still Hermitian Toeplitz, and on the
        # symmetric grids (imaginary change) still odd under reversal, but
        # G = F^H conj(G) F no longer holds, so Z^H G Z is not real.
        ops = operator_set(n, scheme)
        column = ops.d_column.copy()
        column[1] += delta
        tampered = OperatorSet(ops.grid, ops.u_diagonal, column)
        g, f = tampered.generator, ops.f
        assert np.array_equal(g, g.conj().T)
        if tampered.grid_symmetric:
            assert np.max(np.abs(g - g[::-1, ::-1])) < 1e-15
        assert np.max(np.abs(f.conj().T @ g.conj() @ f - g)) > 1e-7
        with pytest.raises(ArithmeticError, match="real form is not real"):
            tampered.generator_eig
        # The raising build kept nothing: a second access builds, and fails, again.
        with pytest.raises(ArithmeticError, match="real form is not real"):
            tampered.generator_eig


def _long_double_half_dft(grid, x):
    """``Z x`` along axis 0 in long double: F as one FFT between exactly reduced label phases."""
    n = grid.n_samples
    pi = 4 * np.arctan(np.longdouble(1))
    first = np.longdouble(grid.indices[0])
    pre = np.exp(-2j * pi * np.fmod(first * np.arange(n, dtype=np.longdouble), n) / n)
    post = pre * np.exp(-2j * pi * np.fmod(first * first, n) / n) / np.sqrt(np.longdouble(n))

    def f(y):
        return post[:, None] * np.fft.fft(pre[:, None] * y, axis=0)

    root2 = np.sqrt(np.longdouble(2))
    c0, c1, c2, c3 = ((1 + root2) / 4 + 0.25j, (1 + root2) / 4 - 0.25j,
                      (1 - root2) / 4 + 0.25j, (1 - root2) / 4 - 0.25j)
    x = x.astype(np.clongdouble)
    fx = f(x)
    return c0 * x + c1 * np.conj(f(np.conj(x))) + c2 * f(fx) + c3 * fx


class TestHalfDftErrorBound:
    """``_HalfDft.error``, the a priori bound the real-form certificate carries."""

    @pytest.mark.parametrize("n, scheme", [
        (1, IndexScheme.ORDINARY), (7, IndexScheme.CENTERED), (53, IndexScheme.ORDINARY),
        (64, IndexScheme.CENTERED), (71, IndexScheme.CENTERED), (127, IndexScheme.ORDINARY),
        (509, IndexScheme.ORDINARY), (509, IndexScheme.CENTERED), (512, IndexScheme.CENTERED),
        (1021, IndexScheme.ORDINARY), (1021, IndexScheme.CENTERED), (1024, IndexScheme.ORDINARY),
    ])
    def test_bound_covers_the_computed_transform(self, n, scheme):
        # Each column of Z x, and of Z_b x on the parity bases of a
        # symmetric grid, against Z in long double.
        grid = index_grid(n, scheme)
        z = _HalfDft(grid)
        assert z.error < 1e-12
        rng = np.random.default_rng(n)
        x = rng.standard_normal((n, 6)) + 1j * rng.standard_normal((n, 6))
        err = np.abs(z.apply(x.copy(), np.empty_like(x), 0) - _long_double_half_dft(grid, x))
        assert np.all(np.linalg.norm(err.astype(float), axis=0) <= z.error * np.linalg.norm(x, axis=0))
        if not operator_set(n, scheme).grid_symmetric:
            return
        basis = parity_basis(n).astype(np.longdouble)
        k = n - n // 2
        for odd, b in ((False, basis[:, :k]), (True, basis[:, k:])):
            xb = x[:b.shape[1], :k]  # the transform's buffer holds at most k columns
            exact = b.T @ _long_double_half_dft(grid, b @ xb)
            got = _parity_transform(z.apply, n, odd)(xb.copy(), np.empty_like(xb), 0)
            err = np.linalg.norm(np.abs(got - exact).astype(float), axis=0)
            assert np.all(err <= z.error * np.linalg.norm(xb, axis=0))


def _fresh(n, scheme):
    """An operator set over a cached grid whose decomposition is computed anew."""
    cached = operator_set(n, scheme)
    return OperatorSet(cached.grid, cached.u_diagonal, cached.d_column)


def _eig_blocks(ops):
    """``(block of G, its decomposition)`` pairs: the folded blocks on symmetric grids."""
    eig = ops.generator_eig
    if len(eig.blocks) == 2:
        return list(zip(_reversal_fold(ops.generator)[:2], eig.blocks))
    return [(np.array(ops.generator), eig.blocks[0])]


class TestRealFormCertificate:
    """The decomposition certified from ``(S, Q)`` in real arithmetic, not from ``(G, V)``."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(min_value=1, max_value=64), scheme=st.sampled_from(list(IndexScheme)))
    def test_eigenvalues_match_the_complex_solve(self, n, scheme):
        ops = operator_set(n, scheme)
        g = ops.generator
        got = np.sort(np.concatenate([eig.eigenvalues for _, eig in _eig_blocks(ops)]))
        expected = np.linalg.eigvalsh(g)  # LAPACK's complex solve, which opscale does not call
        assert np.max(np.abs(got - expected)) <= 1e-12 * (1 + np.max(np.abs(g)))

    @pytest.mark.parametrize("n, scheme", [
        (1, IndexScheme.ORDINARY), (2, IndexScheme.CENTERED), (64, IndexScheme.ORDINARY),
        (65, IndexScheme.CENTERED), (256, IndexScheme.CENTERED), (509, IndexScheme.ORDINARY),
        (509, IndexScheme.CENTERED), (512, IndexScheme.ORDINARY), (1021, IndexScheme.ORDINARY),
        (1021, IndexScheme.CENTERED), (1024, IndexScheme.ORDINARY), (1024, IndexScheme.CENTERED),
    ])
    def test_bounds_cover_the_measured_residuals(self, n, scheme):
        # What the complex checks measured before, measured here against
        # the bounds that replace them.
        for a, eig in _eig_blocks(operator_set(n, scheme)):
            v = eig.eigenvectors
            k = v.shape[0]
            gram = v.conj().T @ v - np.eye(k)
            residuals = eig.residuals
            assert np.max(np.abs(gram), initial=0.0) <= residuals["gram_residual"] < 1e-10
            tol = 1e-9 * (1 + np.max(np.abs(a), initial=0.0))
            assert residuals["reconstruction_residual"] < tol
            if eig.rotation is None:
                recon = np.max(np.abs(a @ v - v * eig.eigenvalues), initial=0.0)
            else:
                # A paired block's bound is on the rotation form, B Q - Q Omega.
                recon = pair_residual(np.asarray(a).imag, eig)
            assert recon <= residuals["reconstruction_residual"]

    @pytest.mark.parametrize("n, scheme", [(64, IndexScheme.ORDINARY), (65, IndexScheme.ORDINARY)])
    def test_perturbed_eigenvectors_of_s_are_rejected(self, monkeypatch, n, scheme):
        real_eigh = np.linalg.eigh

        def perturbed(s):
            lam, q = real_eigh(s)
            q[:, 3] *= 1 + 1e-9
            return lam, q

        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        with pytest.raises(ArithmeticError, match="not orthonormal"):
            _fresh(n, scheme).generator_eig

    @pytest.mark.parametrize("n, scheme", [(64, IndexScheme.ORDINARY), (65, IndexScheme.ORDINARY)])
    @pytest.mark.parametrize("diagonal, message", [
        # c Z: symmetric, and S becomes c^2 S, still real and solved by the
        # same Q; only the column norms of c Z Q show that c is not 1.
        (lambda k: np.full(k, 1 + 1e-9), "transform is not unitary"),
        # D Z, D = diag(1 + 1e-9 (1 + t/k)): S becomes D S D, still real.
        (lambda k: 1 + 1e-9 * (1 + np.arange(k) / k), "transform is not"),
        # Signs flipped: unitary, S = D S D real, the column norms kept,
        # but D Z is not symmetric, so D Z Q does not diagonalize G.
        # (On the symmetric N = 65 each block sees E^T D E, the mean of D
        # and its reversal, and fails the same check.)
        (lambda k: np.where(np.arange(k) % 3, 1.0, -1.0), "transform is not symmetric"),
    ])
    def test_transform_times_a_real_diagonal_is_rejected(self, monkeypatch, n, scheme,
                                                         diagonal, message):
        # Only the whole grid's Z is patched: the symmetric N = 65 derives
        # its block transforms from it, so the one patch reaches them all.
        apply = _HalfDft.apply

        def wrong(self, x, out, axis):
            out = apply(self, x, out, axis)
            out *= diagonal(out.shape[axis]).reshape((-1, 1) if axis == 0 else (-1,))
            return out

        monkeypatch.setattr(_HalfDft, "apply", wrong)
        with pytest.raises(ArithmeticError, match=message):
            _fresh(n, scheme).generator_eig

    def test_decompositions_leave_numpy_random_unimported(self):
        # numpy loads numpy.random on first use, which adds about 6 MiB of
        # resident memory to a process, such as the cold sweep, that
        # needs no random numbers.
        code = ("import sys\n"
                "from opscale.dft import IndexScheme\n"
                "from opscale.operators import operator_set\n"
                "for n in (64, 65):\n"
                "    for scheme in IndexScheme:\n"
                "        operator_set(n, scheme).generator_eig\n"
                "print('numpy.random' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, env=package_env())
        assert proc.stdout.strip() == "False", proc.stderr

    def test_cold_decomposition_makes_no_whole_temporary(self):
        # The complex checks on (G, V) peaked at 16 961 050 traced bytes
        # (64.7 N^2) here, and whole-matrix checks and transforms of G at
        # 12 733 600 (48.6 N^2).  G is formed a row block at a time beside
        # the Q buffer, allocated first, checked by row blocks, and its real
        # form computed in G's own array, 48 rows and then 48 columns at a
        # time (7 647 953 bytes, 29.2 N^2, measured: G, Q and three slabs),
        # so any N x N temporary beside them (8 N^2 at least) would show.
        ops = _fresh(512, IndexScheme.ORDINARY)
        tracemalloc.start()
        try:
            ops.generator_eig
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 7_800_000

    def test_cold_symmetric_decomposition_peaks_at_the_whole_generator(self):
        # On a symmetric grid the peak is set by the whole G during its
        # fold: G, the two Q blocks allocated first and the two folded
        # blocks, 28 N^2, beside the fold of one row block (8 028 817
        # traced bytes measured, 30.6 N^2; 40.6 N^2 with the whole-matrix
        # checks and fold).  Each block's real form, in the block's own
        # array, and its transform's unfolded N-length copies stay below.
        ops = _fresh(512, IndexScheme.CENTERED)
        tracemalloc.start()
        try:
            ops.generator_eig
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8_200_000

    @pytest.mark.parametrize("scheme, limit", [(IndexScheme.ORDINARY, 7_800_000),
                                               (IndexScheme.CENTERED, 8_200_000)])
    def test_cold_decomposition_with_the_helper_keeps_the_limit(
            self, two_cpus, helper_posts, scheme, limit):
        # The two pins above, with the helper thread available: a real
        # 512 x 512 array is not above linalg._SPLIT_BYTES, so no slab loop
        # is shared and no second set of buffers is made.
        ops = _fresh(512, scheme)
        tracemalloc.start()
        try:
            ops.generator_eig
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= limit
        assert helper_posts == []

    @pytest.mark.parametrize("n, scheme", [(512, IndexScheme.ORDINARY),
                                           (512, IndexScheme.CENTERED),
                                           (511, IndexScheme.ORDINARY)])
    def test_cold_decomposition_keeps_its_eigenvalues_and_real_basis_only(self, n, scheme):
        # Per block, the eigenvalues and the float64 Q (8 k^2 bytes), with
        # no complex k x k array; beside them only the transform's O(N)
        # phases (about 80 N bytes measured) and the objects that hold them.
        ops = _fresh(n, scheme)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            eig = ops.generator_eig
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        parity = len(eig.blocks) == 2
        for block in eig.blocks:
            assert block.basis.dtype == np.float64 and block.basis.shape == (block.block_size,) * 2
        # A paired block keeps one sign per pair beside them.
        kept = sum(8 * b.block_size + 8 * b.block_size ** 2 + 8 * (b.block_size // 2) * parity
                   for b in eig.blocks)
        assert kept <= retained <= kept + 96 * n + 8192
        # The transform kept, which builds V on request, holds no buffer of
        # its own; a parity block's is derived from the whole grid's.
        transform = eig.blocks[0].transform
        transform = (inspect.getclosurevars(transform).nonlocals["transform"]
                     if parity else transform).__self__
        assert isinstance(transform, _HalfDft)
        assert all(value.size <= n for value in vars(transform).values()
                   if isinstance(value, np.ndarray))


class TestOperatorSet:
    def test_factory_is_memoized(self):
        a = operator_set(16, IndexScheme.CENTERED)
        b = operator_set(16, IndexScheme.CENTERED)
        assert a is b

    def test_equal_grids_share_one_set(self):
        builds = operator_set.cache_info().misses
        a = operator_set(48, IndexScheme.CENTERED)
        assert operator_set(np.int64(48), "centered") is a
        assert operator_set.cache_info().misses <= builds + 1

    @pytest.mark.parametrize("bad", [4.5, 8.0, True, "5"])
    def test_rejects_non_integral_sample_counts(self, bad):
        # 8.0 and True equal sample counts whose sets are cached here.
        operator_set(8, IndexScheme.CENTERED), operator_set(1, IndexScheme.CENTERED)
        with pytest.raises(ValueError, match="must be an integer"):
            operator_set(bad, IndexScheme.CENTERED)

    def test_arrays_are_read_only(self):
        ops = operator_set(8, IndexScheme.ORDINARY)
        for arr in (ops.u, ops.d, ops.generator):
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0
        for arr in (ops.u_diagonal, ops.d_column):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    @pytest.mark.parametrize("n, scheme", [(64, IndexScheme.CENTERED), (65, IndexScheme.ORDINARY),
                                           (64, IndexScheme.ORDINARY), (65, IndexScheme.CENTERED)])
    def test_holds_no_dense_matrix_besides_its_decomposition(self, n, scheme):
        ops = operator_set(n, scheme)
        ops.generator_eig
        held = {**vars(ops), **vars(ops.grid)}
        for name, value in held.items():
            assert not (isinstance(value, np.ndarray) and value.ndim > 1), name

    @pytest.mark.parametrize("attr", ["u", "d", "generator"])
    def test_dense_matrices_are_built_anew_and_bit_identical(self, attr):
        ops = operator_set(16, IndexScheme.CENTERED)
        a, b = getattr(ops, attr), getattr(ops, attr)
        assert a is not b
        assert not a.flags.writeable and not b.flags.writeable
        assert a.tobytes() == b.tobytes()

    def test_f_is_the_cached_dft(self):
        assert operator_set(16, IndexScheme.CENTERED).f is dft_matrix(16, IndexScheme.CENTERED)

    def test_grid_symmetric_flag(self):
        assert operator_set(8, IndexScheme.CENTERED).grid_symmetric
        assert operator_set(7, IndexScheme.ORDINARY).grid_symmetric
        assert not operator_set(8, IndexScheme.ORDINARY).grid_symmetric
        assert not operator_set(7, IndexScheme.CENTERED).grid_symmetric

    def test_trace_of_u_vanishes_on_symmetric_grids(self):
        ops = operator_set(16, IndexScheme.CENTERED)
        assert abs(np.trace(ops.u)) < 1e-14

    def test_repr_names_the_scheme(self):
        assert "centered" in repr(operator_set(4, IndexScheme.CENTERED))

    def test_threads_asking_one_set_for_its_decomposition_make_one_build(self, monkeypatch):
        ops, sizes = _fresh(40, IndexScheme.ORDINARY), []

        def counting(form, n, *args):
            sizes.append(n)
            time.sleep(0.05)  # the other threads ask while it is built
            return real_form_eig(form, n, *args)

        monkeypatch.setattr(operators, "real_form_eig", counting)
        results = [None] * 8
        threads = [threading.Thread(target=lambda i=i: results.__setitem__(i, ops.generator_eig))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert sizes == [40]
        assert all(r is results[0] for r in results)

    def test_two_sets_build_their_decompositions_side_by_side(self, monkeypatch):
        # The first set's build is held until the second's has finished:
        # a lock shared by the two (functools.cached_property's before
        # Python 3.12) would keep the second waiting.
        first, second = _fresh(40, IndexScheme.ORDINARY), _fresh(41, IndexScheme.CENTERED)
        entered, release = threading.Event(), threading.Event()
        sizes, results = [], {}

        def gated(form, n, *args):
            sizes.append(n)
            if n == 40:
                entered.set()
                release.wait(30)
            return real_form_eig(form, n, *args)

        monkeypatch.setattr(operators, "real_form_eig", gated)
        held = threading.Thread(target=lambda: results.__setitem__(1, first.generator_eig))
        held.start()
        try:
            assert entered.wait(30)
            other = threading.Thread(target=lambda: results.__setitem__(2, second.generator_eig))
            other.start()
            other.join(timeout=30)
            assert not other.is_alive(), "the second set waited on the first"
        finally:
            release.set()
            held.join(timeout=30)
        # Each set kept its own build: warm accesses return it and build nothing.
        assert first.generator_eig is results[1] and second.generator_eig is results[2]
        assert sorted(sizes) == [40, 41]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_child_forked_during_a_decomposition_builds_it_again(self, monkeypatch):
        # A thread of the parent is building the decomposition when the
        # parent forks: the child must build it itself, not wait for a
        # build that no thread of the child will finish.
        ops = _fresh(40, IndexScheme.ORDINARY)
        entered, release = threading.Event(), threading.Event()
        sizes, results = [], []

        def gated(form, n, *args):
            sizes.append(n)
            if threading.current_thread() is not threading.main_thread():
                entered.set()
                release.wait(30)
            return real_form_eig(form, n, *args)

        monkeypatch.setattr(operators, "real_form_eig", gated)
        held = threading.Thread(target=lambda: results.append(ops.generator_eig))
        held.start()
        try:
            assert entered.wait(30)
            code = forked_exit_code(lambda: len(ops.generator_eig.blocks[0].eigenvalues) == 40)
        finally:
            release.set()
            held.join(timeout=30)
        assert code == 0
        # The parent's build finished and was kept; the child's was its own.
        assert ops.generator_eig is results[0]
        assert sizes == [40]

    def test_a_warm_access_builds_nothing_and_returns_the_same_object(self, monkeypatch):
        ops = _fresh(32, IndexScheme.CENTERED)
        eig = ops.generator_eig

        def refused(*args):
            raise AssertionError("a warm access built the decomposition again")

        monkeypatch.setattr(operators, "parity_real_form_eig", refused)
        monkeypatch.setattr(operators, "_HalfDft", refused)
        assert ops.generator_eig is eig


class TestRejectedConstructions:
    """Designs the library deliberately omits, built locally to show why."""

    @staticmethod
    def _forward_difference(n):
        # (f[k+1] - f[k]) / (i*2*pi*h) on the periodic grid: a circulant
        # one-sided difference, the discretization one would write first.
        h = 1.0 / math.sqrt(n)
        shift = np.roll(np.eye(n), 1, axis=1)  # picks out f[k+1]
        return (shift - np.eye(n)) / (2j * math.pi * h)

    @pytest.mark.parametrize("n", [4, 8, 16, 64])
    def test_forward_difference_is_not_hermitian(self, n):
        d_fwd = self._forward_difference(n)
        resid = np.max(np.abs(d_fwd - d_fwd.conj().T))
        assert resid > 0.1

    def test_forward_difference_generator_is_not_hermitian(self):
        # Consequence: the anticommutator built from it cannot generate a
        # unitary family, which is the whole point of the symmetric form.
        n = 16
        ops = operator_set(n, IndexScheme.ORDINARY)
        d_fwd = self._forward_difference(n)
        g = (ops.u @ d_fwd + d_fwd @ ops.u) / 2.0
        assert np.max(np.abs(g - g.conj().T)) > 0.1

    def test_naive_coordinate_matrix_breaks_duality(self):
        # Substituting diag(u_k) into the duality relation satisfied by
        # the sinc-corrected pair leaves a residual far above tolerance.
        n = 16
        ops = operator_set(n, IndexScheme.ORDINARY)
        naive = np.diag(ops.grid.coordinates)
        resid = np.max(np.abs(naive - ops.f @ ops.d @ ops.f.conj().T))
        assert resid > 1e-3
