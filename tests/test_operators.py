"""Tests for the coordinate/differentiation operator pair and the generator."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import explicit_summation_dual, fixture_matrix, load_fixture

from opscale.dft import IndexScheme, dft_matrix, index_grid
from opscale.operators import (
    _diff_column,
    coord_matrix,
    diff_matrix,
    operator_set,
    scaling_generator,
)


class TestCoordMatrix:
    def test_entries_match_scalar_formula(self):
        for n in (4, 7, 16):
            for scheme in IndexScheme:
                grid = index_grid(n, scheme)
                u = coord_matrix(grid)
                for k, label in enumerate(grid.indices):
                    expected = (math.sqrt(n) / math.pi) * math.sin(math.pi * label / n)
                    assert abs(u[k, k] - expected) < 1e-15

    def test_is_real_diagonal(self):
        u = coord_matrix(index_grid(12, IndexScheme.CENTERED))
        assert not np.iscomplexobj(u)
        assert np.count_nonzero(u - np.diag(np.diag(u))) == 0

    def test_diagonal_converges_to_physical_coordinate(self):
        # For a fixed physical coordinate u0 = n*h the correction factor
        # sin(x)/x -> 1 as N grows, so the diagonal entry approaches u0;
        # within |u0| <= 1 the relative error is already below 1% at
        # N = 1024.
        n = 1024
        grid = index_grid(n, IndexScheme.ORDINARY)
        u = np.diag(coord_matrix(grid))
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
        u = np.diag(coord_matrix(grid))
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
        grid = index_grid(6, IndexScheme.CENTERED)
        f = dft_matrix(6, IndexScheme.CENTERED)
        u = coord_matrix(grid)
        expected = explicit_summation_dual(f, np.diag(u))
        got = diff_matrix(f, u)
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
        grid = index_grid(n, scheme)
        expected = explicit_summation_dual(dft_matrix(n, scheme), np.diag(coord_matrix(grid)))
        got = operator_set(n, scheme).d
        assert got.flags.c_contiguous and not got.flags.writeable
        assert np.max(np.abs(got - expected)) < 1e-13

    @pytest.mark.parametrize("scheme", list(IndexScheme))
    def test_column_matches_the_dense_reference(self, scheme):
        # Criterion 3's grids: the D that the scaling path uses equals the
        # dense F^H U F that the criterion checks.
        for n in range(2, 129):
            f = dft_matrix(n, scheme)
            expected = diff_matrix(f, coord_matrix(index_grid(n, scheme)))
            assert np.max(np.abs(operator_set(n, scheme).d - expected)) < 1e-12, n

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
            _diff_column(bad, np.diag(coord_matrix(grid)))

    def test_rejects_non_unitary_f(self):
        with pytest.raises(ValueError):
            diff_matrix(np.eye(4) * 2.0, np.eye(4))

    def test_rejects_non_diagonal_u(self):
        f = dft_matrix(4, IndexScheme.ORDINARY)
        with pytest.raises(ValueError):
            diff_matrix(f, np.ones((4, 4)))

    def test_rejects_complex_diagonal_u(self):
        f = dft_matrix(4, IndexScheme.ORDINARY)
        with pytest.raises(ValueError):
            diff_matrix(f, np.diag([1j, 0, 0, 0]))


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
    def test_equals_scaling_generator_exactly(self, n, scheme):
        # The operator set forms G without re-Hermitizing; with D exactly
        # Hermitian that step changes no value (only the sign of some zero
        # imaginary parts on the diagonal).
        ops = operator_set(n, scheme)
        assert np.array_equal(ops.generator, scaling_generator(ops.u, ops.d))

    def test_scaling_generator_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            scaling_generator(np.eye(3), np.eye(4))

    def test_scaling_generator_rejects_non_diagonal_u(self):
        # The entrywise form (u_m + u_n)/2 * D holds only for diagonal U.
        with pytest.raises(ValueError, match="diagonal"):
            scaling_generator(np.ones((4, 4)), np.eye(4))

    def test_generator_eig_reconstructs(self):
        ops = operator_set(32, IndexScheme.ORDINARY)
        eig = ops.generator_eig
        recon = (eig.eigenvectors * eig.eigenvalues) @ eig.eigenvectors.conj().T
        assert np.max(np.abs(recon - ops.generator)) < 1e-12

    def test_generator_eig_is_cached(self):
        ops = operator_set(32, IndexScheme.ORDINARY)
        assert ops.generator_eig is ops.generator_eig


class TestOperatorSet:
    def test_factory_is_memoized(self):
        a = operator_set(16, IndexScheme.CENTERED)
        b = operator_set(16, IndexScheme.CENTERED)
        assert a is b

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
        del held["generator_eig"]
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
