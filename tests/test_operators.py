"""Tests for the coordinate/differentiation operator pair and the generator."""

import math

import numpy as np
import pytest

from conftest import explicit_summation_dual, fixture_matrix, load_fixture

from opscale.dft import IndexScheme, dft_matrix, index_grid
from opscale.operators import (
    OperatorSet,
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

    @pytest.mark.parametrize("n", [3, 8, 17, 64])
    @pytest.mark.parametrize("scheme", list(IndexScheme))
    def test_is_hermitian(self, n, scheme):
        ops = operator_set(n, scheme)
        assert np.max(np.abs(ops.d - ops.d.conj().T)) < 1e-13

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
        # D is filled from its first column; the oracle sums every entry
        # of F^-1 U F on its own, so a wrong fill shows off the diagonal.
        grid = index_grid(n, scheme)
        f = dft_matrix(n, scheme)
        u = coord_matrix(grid)
        expected = explicit_summation_dual(f, np.diag(u))
        got = diff_matrix(f, u)
        assert got.flags.c_contiguous and got.flags.writeable
        assert np.max(np.abs(got - expected)) < 1e-13

    def test_rejects_non_unitary_f(self):
        with pytest.raises(ValueError):
            diff_matrix(np.eye(4) * 2.0, np.eye(4))

    @pytest.mark.parametrize("kind", ["identity", "permuted_dft", "random_unitary"])
    def test_rejects_unitary_non_dft_f(self, kind):
        # Unitary, so F^H U F is Hermitian, but its columns are not a
        # geometric progression, so D is not Toeplitz and the fill from
        # the first column would be wrong.
        n = 8
        if kind == "identity":
            f = np.eye(n, dtype=complex)
        elif kind == "permuted_dft":
            f = dft_matrix(n, IndexScheme.ORDINARY)[:, [0, 2, 1, 3, 4, 5, 6, 7]]
        else:
            rng = np.random.default_rng(11)
            f, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        assert np.max(np.abs(f @ f.conj().T - np.eye(n))) < 1e-12
        u = coord_matrix(index_grid(n, IndexScheme.ORDINARY))
        with pytest.raises(ValueError, match="unit-spaced labels"):
            diff_matrix(f, u)

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
