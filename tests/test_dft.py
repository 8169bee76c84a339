"""Tests for index grids and the unitary DFT matrix."""

import cmath
import math

import numpy as np
import pytest

from opscale.dft import IndexScheme, SampleGrid, as_sample_count, dft_matrix, index_grid

#: Sample counts that ``int()`` used to truncate or convert; all are rejected.
NON_INTEGRAL_COUNTS = [3.7, 8.0, True, "5"]


class TestSampleCount:
    @pytest.mark.parametrize("n", [1, 8, np.int64(8), np.int32(3), np.uint16(5)])
    def test_accepts_integers(self, n):
        got = as_sample_count(n)
        assert type(got) is int and got == n

    @pytest.mark.parametrize("bad", NON_INTEGRAL_COUNTS + [None, np.float64(4.0)])
    def test_rejects_non_integers(self, bad):
        with pytest.raises(ValueError, match="must be an integer"):
            as_sample_count(bad)

    @pytest.mark.parametrize("bad", [0, -3, np.int64(0)])
    def test_rejects_counts_below_one(self, bad):
        with pytest.raises(ValueError, match=">= 1"):
            as_sample_count(bad)

    @pytest.mark.parametrize("bad", NON_INTEGRAL_COUNTS)
    @pytest.mark.parametrize("build", [index_grid, dft_matrix])
    def test_grid_and_dft_reject_non_integers(self, build, bad):
        with pytest.raises(ValueError, match="must be an integer"):
            build(bad, IndexScheme.CENTERED)


class TestIndexGrid:
    def test_ordinary_even(self):
        grid = index_grid(8, IndexScheme.ORDINARY)
        assert grid.indices.tolist() == [-4, -3, -2, -1, 0, 1, 2, 3]

    def test_ordinary_odd(self):
        grid = index_grid(7, IndexScheme.ORDINARY)
        assert grid.indices.tolist() == [-3, -2, -1, 0, 1, 2, 3]

    def test_centered_even_uses_half_integers(self):
        grid = index_grid(8, IndexScheme.CENTERED)
        assert grid.indices.tolist() == [-3.5, -2.5, -1.5, -0.5, 0.5, 1.5, 2.5, 3.5]

    def test_centered_odd_shifts_by_half(self):
        grid = index_grid(7, IndexScheme.CENTERED)
        assert grid.indices.tolist() == [-3.5, -2.5, -1.5, -0.5, 0.5, 1.5, 2.5]

    @pytest.mark.parametrize("n", [2, 3, 8, 9, 64])
    @pytest.mark.parametrize("scheme", list(IndexScheme))
    def test_indices_are_consecutive_unit_spaced(self, n, scheme):
        grid = index_grid(n, scheme)
        assert len(grid.indices) == n
        assert np.allclose(np.diff(grid.indices), 1.0)

    def test_spacing_and_coordinates(self):
        grid = index_grid(16, IndexScheme.ORDINARY)
        assert grid.spacing == pytest.approx(1 / math.sqrt(16))
        assert np.allclose(grid.coordinates, grid.indices * grid.spacing)

    def test_coordinate_extent_stays_within_root_n_window(self):
        for n in (8, 9, 64, 65):
            for scheme in IndexScheme:
                grid = index_grid(n, scheme)
                half = math.sqrt(n) / 2
                assert np.all(np.abs(grid.coordinates) <= half + 1e-12)

    def test_accepts_scheme_string(self):
        grid = index_grid(4, "centered")
        assert grid.scheme is IndexScheme.CENTERED

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            index_grid(0, IndexScheme.ORDINARY)

    def test_grid_arrays_are_read_only(self):
        grid = index_grid(4, IndexScheme.ORDINARY)
        with pytest.raises(ValueError):
            grid.indices[0] = 99

    def test_grid_is_frozen_dataclass(self):
        grid = index_grid(4, IndexScheme.ORDINARY)
        assert isinstance(grid, SampleGrid)
        with pytest.raises(AttributeError):
            grid.n_samples = 5


class TestDftMatrix:
    def test_entries_match_scalar_formula(self):
        # Entry-wise check against the defining exponential, evaluated
        # with scalar cmath arithmetic rather than array broadcasting.
        for scheme in IndexScheme:
            grid = index_grid(6, scheme)
            f = dft_matrix(6, scheme)
            labels = grid.indices
            for a, m in enumerate(labels):
                for b, n in enumerate(labels):
                    expected = cmath.exp(-2j * cmath.pi * m * n / 6) / math.sqrt(6)
                    assert abs(f[a, b] - expected) < 1e-14

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 9, 16, 17, 64])
    @pytest.mark.parametrize("scheme", list(IndexScheme))
    def test_unitarity(self, n, scheme):
        f = dft_matrix(n, scheme)
        resid = np.max(np.abs(f.conj().T @ f - np.eye(n)))
        assert resid < 1e-12 * n

    def test_ordinary_matches_fft_up_to_index_reordering(self):
        # The ordinary-scheme matrix is the textbook DFT with rows and
        # columns relabeled from 0..N-1 to the symmetric integer run, so
        # applying it must agree with the fft applied to the rolled signal.
        n = 16
        f = dft_matrix(n, IndexScheme.ORDINARY)
        rng = np.random.default_rng(23)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        # label 0 lives at position n//2 in our layout
        via_fft = np.roll(np.fft.fft(np.roll(x, -(n // 2))), n // 2) / math.sqrt(n)
        assert np.max(np.abs(f @ x - via_fft)) < 1e-12

    def test_centered_even_row_symmetry(self):
        # Half-integer products m*n for the centered even grid are
        # quarter-integers; the matrix is still symmetric (m*n == n*m).
        f = dft_matrix(8, IndexScheme.CENTERED)
        assert np.max(np.abs(f - f.T)) < 1e-14

    def test_matrix_is_read_only(self):
        f = dft_matrix(4, IndexScheme.ORDINARY)
        with pytest.raises(ValueError):
            f[0, 0] = 0

    def test_repeated_calls_are_cached(self):
        a = dft_matrix(32, IndexScheme.CENTERED)
        b = dft_matrix(32, IndexScheme.CENTERED)
        assert a is b
