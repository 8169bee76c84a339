"""Tests for index grids and the unitary DFT matrix."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from opscale.bench import interp_scale, run_bench
from opscale.dft import (
    IndexScheme,
    SampleGrid,
    as_sample_count,
    as_scaling_factor,
    _dft_matrix_cached,
    as_signal,
    dft_matrix,
    index_grid,
)
from opscale.linalg import identity_residual
from opscale.pei import cddhf_basis, pei_scale
from opscale.scaling import ScalingSpec
from opscale.signals import TestFunction, scaled_reference

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


#: Invalid scaling factors, each rejected with one error by every entry point.
BAD_FACTORS = [None, True, "2", math.nan, math.inf, 0, -1]


class TestScalingFactor:
    @pytest.mark.parametrize(
        "m, expected",
        [
            (2, 2.0),
            (0.5, 0.5),
            (1e-300, 1e-300),
            (1e300, 1e300),
            (np.float64(3.7), 3.7),
            (np.float32(0.5), 0.5),
            (np.int64(3), 3.0),
            (np.uint8(4), 4.0),
            (Fraction(1, 4), 0.25),
        ],
    )
    def test_accepts_positive_finite_reals(self, m, expected):
        got = as_scaling_factor(m)
        assert type(got) is float and got == expected

    @pytest.mark.parametrize(
        "bad",
        BAD_FACTORS
        + [
            False,
            np.bool_(True),
            b"2",
            2 + 0j,
            np.complex128(2.0),
            -math.inf,
            np.float64(math.nan),
            0.0,
            -0.0,
            -1e-300,
            np.array(2.0),
            [2.0],
            10**400,
            -10**400,
            Fraction(10**400, 3),
        ],
    )
    def test_rejects_everything_else(self, bad):
        with pytest.raises(ValueError, match="m_factor must be positive and finite"):
            as_scaling_factor(bad)


class TestSignal:
    def test_complex128_vector_is_returned_without_a_copy(self):
        x = np.arange(4, dtype=complex)
        assert as_signal(x, 4) is x

    @pytest.mark.parametrize("signal", [[1, 2, 3], (1.0, 2j, 3.0), np.arange(3, dtype=np.float32)])
    def test_converts_sequences_and_real_arrays(self, signal):
        got = as_signal(signal)
        assert got.dtype == complex and got.shape == (3,)
        assert np.array_equal(got, np.asarray(signal, dtype=complex))

    def test_length_is_checked_only_when_given(self):
        assert as_signal(np.ones(5)).shape == (5,)
        with pytest.raises(ValueError, match="signal length 5 does not match n_samples 4"):
            as_signal(np.ones(5), 4)

    @pytest.mark.parametrize("bad", [np.ones((2, 2)), np.ones((4, 1)), 1.0, np.array(1.0)])
    def test_rejects_non_vectors(self, bad):
        with pytest.raises(ValueError, match="one-dimensional"):
            as_signal(bad)

    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, -math.inf, complex(0, math.inf), complex(math.inf, -math.inf)]
    )
    def test_rejects_non_finite_samples(self, bad):
        x = np.ones(4, dtype=complex)
        x[2] = bad
        with pytest.raises(ValueError, match="non-finite samples"):
            as_signal(x, 4)
        x[0] = 1e300  # with a sum of squares that overflows as well
        with pytest.raises(ValueError, match="non-finite samples"):
            as_signal(x, 4)

    def test_accepts_finite_samples_whose_squares_overflow(self):
        x = np.array([1e300, -1e300j, 1.0, np.finfo(float).max], dtype=complex)
        assert as_signal(x, 4) is x


class TestOneRuleForM:
    """Every entry point taking an M rejects the same values with the same error."""

    GRID = index_grid(8, IndexScheme.CENTERED)
    ENTRY_POINTS = {
        "ScalingSpec": lambda m: ScalingSpec(m, 8, IndexScheme.CENTERED),
        "cddhf_basis": lambda m: cddhf_basis(8, m),
        "pei_scale": lambda m: pei_scale(np.ones(8), m),
        "interp_scale": lambda m: interp_scale(np.ones(8), TestOneRuleForM.GRID, m),
        "scaled_reference": lambda m: scaled_reference(
            TestFunction.CHIRPED_PULSE, TestOneRuleForM.GRID, m
        ),
        "run_bench": lambda m: run_bench(m_factors=[m], n_values=[8]),
    }

    @pytest.mark.parametrize("bad", BAD_FACTORS, ids=repr)
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_same_value_error(self, entry, bad):
        with pytest.raises(ValueError) as excinfo:
            self.ENTRY_POINTS[entry](bad)
        assert str(excinfo.value) == f"m_factor must be positive and finite, got {bad!r}"


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

    @pytest.mark.parametrize("n", [1, 7, 100, 101])
    @pytest.mark.parametrize("scheme", list(IndexScheme))
    def test_cache_keeps_the_unitarity_residual_it_checked(self, n, scheme):
        f, resid = _dft_matrix_cached(n, scheme)
        assert f is dft_matrix(n, scheme)
        assert resid == identity_residual(f @ f.conj().T)
