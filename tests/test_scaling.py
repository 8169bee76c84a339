"""Tests for the discrete scaling matrix and signal-level application."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load_fixture, taylor_expm

from opscale.dft import IndexScheme
from opscale.linalg import (
    ParityEigenDecomposition,
    hermitian_eig,
    unitary_from_eig,
)
from opscale.operators import operator_set
from opscale.scaling import ScalingSpec, scale_signal, scaling_matrix


class TestScalingSpec:
    def test_accepts_and_normalizes(self):
        spec = ScalingSpec(2, 64, "centered")
        assert spec.m_factor == 2.0
        assert isinstance(spec.m_factor, float)
        assert spec.n_samples == 64
        assert spec.scheme is IndexScheme.CENTERED

    @pytest.mark.parametrize("bad_m", [0.0, -1.0, math.inf, math.nan, "two"])
    def test_rejects_bad_m(self, bad_m):
        with pytest.raises(ValueError):
            ScalingSpec(bad_m, 8, IndexScheme.ORDINARY)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            ScalingSpec(2.0, 0, IndexScheme.ORDINARY)

    @pytest.mark.parametrize("bad", [3.7, True, "5"])
    def test_rejects_non_integral_n(self, bad):
        # These used to become N = 3, N = 1 and N = 5.
        with pytest.raises(ValueError, match="must be an integer"):
            ScalingSpec(2.0, bad, IndexScheme.CENTERED)

    def test_accepts_numpy_integer_n(self):
        spec = ScalingSpec(2.0, np.int64(16), IndexScheme.CENTERED)
        assert type(spec.n_samples) is int and spec.n_samples == 16

    def test_is_frozen(self):
        spec = ScalingSpec(2.0, 8, IndexScheme.ORDINARY)
        with pytest.raises(AttributeError):
            spec.m_factor = 3.0


class TestScalingMatrix:
    @pytest.mark.parametrize("m", [0.5, 2.0, 7.3])
    @pytest.mark.parametrize("n", [8, 33, 64])
    @pytest.mark.parametrize("scheme", list(IndexScheme))
    def test_unitarity(self, m, n, scheme):
        mat = scaling_matrix(ScalingSpec(m, n, scheme))
        resid = np.max(np.abs(mat.conj().T @ mat - np.eye(n)))
        assert resid < 1e-9

    def test_m_one_is_identity(self):
        mat = scaling_matrix(ScalingSpec(1.0, 16, IndexScheme.CENTERED))
        assert np.max(np.abs(mat - np.eye(16))) < 1e-12

    def test_group_law_composition(self):
        n, scheme = 32, IndexScheme.CENTERED
        m2 = scaling_matrix(ScalingSpec(2.0, n, scheme))
        m3 = scaling_matrix(ScalingSpec(3.0, n, scheme))
        m6 = scaling_matrix(ScalingSpec(6.0, n, scheme))
        assert np.max(np.abs(m2 @ m3 - m6)) < 1e-9

    def test_inverse_is_reciprocal_factor(self):
        n, scheme = 32, IndexScheme.ORDINARY
        m2 = scaling_matrix(ScalingSpec(2.0, n, scheme))
        mhalf = scaling_matrix(ScalingSpec(0.5, n, scheme))
        assert np.max(np.abs(m2.conj().T - mhalf)) < 1e-9

    @pytest.mark.parametrize("n", [4, 6])
    @pytest.mark.parametrize("m", [0.5, 2.0])
    @pytest.mark.parametrize("scheme", list(IndexScheme))
    def test_matches_taylor_series_oracle(self, n, m, scheme):
        # Independent oracle: plain 30-term Taylor summation of the
        # defining exponential.  theta*||G|| is small enough at these N
        # for the truncation tail to sit far below the tolerance.
        ops = operator_set(n, scheme)
        theta = 2.0 * math.pi * math.log(m)
        expected = taylor_expm(-1j * theta * np.asarray(ops.generator), terms=30)
        got = scaling_matrix(ScalingSpec(m, n, scheme))
        assert np.max(np.abs(got - expected)) < 1e-10

    @staticmethod
    def _assembled_densely(eig, theta):
        """Each block as (V * phases) @ V^H, scattered into the N x N matrix."""
        def block(e):
            return (e.eigenvectors * np.exp(-1j * theta * e.eigenvalues)) @ e.eigenvectors.conj().T

        if not isinstance(eig, ParityEigenDecomposition):
            return block(eig)
        even, odd = block(eig.even), block(eig.odd)
        h = odd.shape[0]
        n = even.shape[0] + h
        out = np.empty((n, n), dtype=complex)
        plus, minus = (even[:h, :h] + odd) / 2.0, (even[:h, :h] - odd) / 2.0
        out[:h, :h], out[n - h:, n - h:] = plus, plus[::-1, ::-1]
        out[:h, n - h:], out[n - h:, :h] = minus[:, ::-1], minus[::-1, :]
        if n % 2:
            col, row = even[:h, h] / math.sqrt(2.0), even[h, :h] / math.sqrt(2.0)
            out[:h, h], out[n - h:, h] = col, col[::-1]
            out[h, :h], out[h, n - h:] = row, row[::-1]
            out[h, h] = even[h, h]
        return out

    @pytest.mark.parametrize("n", list(range(1, 18)) + [64, 127, 128, 256, 512])
    @pytest.mark.parametrize("scheme", list(IndexScheme))
    def test_bit_identical_to_the_dense_assembly(self, n, scheme):
        # Keeping the blocks and assembling into a preallocated array must
        # not move a bit of the matrix that scaling_matrix returns.
        eig = operator_set(n, scheme).generator_eig
        for m in (0.37, 2.0, 7.3):
            expected = self._assembled_densely(eig, 2.0 * math.pi * math.log(m))
            got = scaling_matrix(ScalingSpec(m, n, scheme))
            assert got.dtype == np.complex128 and got.flags.c_contiguous
            assert not got.flags.writeable
            assert got.tobytes() == expected.tobytes()

    def test_cached_and_read_only(self):
        spec = ScalingSpec(3.0, 8, IndexScheme.ORDINARY)
        a = scaling_matrix(spec)
        b = scaling_matrix(ScalingSpec(3.0, 8, IndexScheme.ORDINARY))
        assert a is b
        with pytest.raises(ValueError):
            a[0, 0] = 0

    @pytest.mark.parametrize(
        "n, scheme",
        [(n, IndexScheme.CENTERED) for n in (2, 4, 16, 64)]
        + [(n, IndexScheme.ORDINARY) for n in (1, 3, 17, 63)],
    )
    @pytest.mark.parametrize("m", [0.5, 2.0, 7.3])
    def test_parity_blocks_match_dense_decomposition(self, n, scheme, m):
        # Symmetric grids assemble from the even/odd blocks; the reference
        # decomposes the whole generator and assembles it densely.
        ops = operator_set(n, scheme)
        assert isinstance(ops.generator_eig, ParityEigenDecomposition)
        theta = 2.0 * math.pi * math.log(m)
        expected = unitary_from_eig(hermitian_eig(ops.generator), theta)
        got = scaling_matrix(ScalingSpec(m, n, scheme))
        assert got.dtype == np.complex128 and got.flags.c_contiguous
        assert np.max(np.abs(got - expected)) < 1e-12


class TestScaleSignal:
    def test_delta_matches_frozen_scaling_and_squaring_oracle(self):
        # Frozen oracle: the column of exp(-2j*pi*ln2*G) hit by a unit
        # impulse at label 0, N=64 ordinary, computed once by 1-norm
        # scaling, 40-term Taylor summation, and repeated squaring.
        payload = load_fixture("delta64_m2_ordinary.json")
        expected = np.array(payload["re"]) + 1j * np.array(payload["im"])
        delta = np.zeros(64)
        delta[32] = 1.0  # label 0 of the ordinary grid
        got = scale_signal(delta, ScalingSpec(2.0, 64, IndexScheme.ORDINARY))
        assert np.max(np.abs(got - expected)) < 1e-10

    def test_m_one_returns_input(self):
        rng = np.random.default_rng(31)
        x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        out = scale_signal(x, ScalingSpec(1.0, 16, IndexScheme.CENTERED))
        assert np.max(np.abs(out - x)) < 1e-12

    @pytest.mark.parametrize("m", [0.5, 2.0, 7.3])
    def test_norm_preservation(self, m):
        rng = np.random.default_rng(37)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        out = scale_signal(x, ScalingSpec(m, 64, IndexScheme.CENTERED))
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(x), rel=1e-8)

    def test_round_trip_restores_signal(self):
        rng = np.random.default_rng(41)
        x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        there = scale_signal(x, ScalingSpec(3.0, 32, IndexScheme.ORDINARY))
        back = scale_signal(there, ScalingSpec(1 / 3.0, 32, IndexScheme.ORDINARY))
        assert np.max(np.abs(back - x)) < 1e-9

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            scale_signal(np.zeros(5), ScalingSpec(2.0, 8, IndexScheme.ORDINARY))

    def test_rejects_matrix_input(self):
        with pytest.raises(ValueError):
            scale_signal(np.zeros((8, 8)), ScalingSpec(2.0, 8, IndexScheme.ORDINARY))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0, math.nan)])
    def test_rejects_non_finite_samples(self, bad):
        x = np.ones(8, dtype=complex)
        x[3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            scale_signal(x, ScalingSpec(2.0, 8, IndexScheme.CENTERED))


class TestProperties:
    """The paper's invariants over random grids and log-uniform factors."""

    ln_m = st.floats(min_value=-3.0, max_value=3.0)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(min_value=1, max_value=64),
        scheme=st.sampled_from(list(IndexScheme)),
        ln_a=ln_m,
        ln_b=ln_m,
    )
    def test_unitarity_and_group_law(self, n, scheme, ln_a, ln_b):
        a, b = math.exp(ln_a), math.exp(ln_b)
        m_a = scaling_matrix(ScalingSpec(a, n, scheme))
        m_b = scaling_matrix(ScalingSpec(b, n, scheme))
        m_ab = scaling_matrix(ScalingSpec(a * b, n, scheme))
        assert np.max(np.abs(m_a.conj().T @ m_a - np.eye(n))) < 1e-13
        assert np.max(np.abs(m_a @ m_b - m_ab)) < 1e-12

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(min_value=1, max_value=128),
        scheme=st.sampled_from(list(IndexScheme)),
        ln_a=ln_m,
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_norm_preservation_and_inverse(self, n, scheme, ln_a, seed):
        a = math.exp(ln_a)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = scale_signal(x, ScalingSpec(a, n, scheme))
        assert abs(np.linalg.norm(y) - np.linalg.norm(x)) < 1e-13 * np.linalg.norm(x)
        m_a = scaling_matrix(ScalingSpec(a, n, scheme))
        m_inv = scaling_matrix(ScalingSpec(1.0 / a, n, scheme))
        assert np.max(np.abs(m_inv - m_a.conj().T)) < 1e-12

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(min_value=1, max_value=256),
        scheme=st.sampled_from(list(IndexScheme)),
        ln_a=ln_m,
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_scale_signal_matches_the_matrix_product(self, n, scheme, ln_a, seed):
        # Symmetric grids apply the parity blocks; the reference is the
        # dense matrix that scaling_matrix scatters from them.
        spec = ScalingSpec(math.exp(ln_a), n, scheme)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        norm_x = np.linalg.norm(x)
        y = scale_signal(x, spec)
        assert np.max(np.abs(y - scaling_matrix(spec) @ x)) < 1e-13 * norm_x
        assert abs(np.linalg.norm(y) - norm_x) < 1e-13 * norm_x

    @pytest.mark.parametrize("scheme", list(IndexScheme))
    @pytest.mark.parametrize("n", [256, 257, 513, 1024])
    def test_scale_signal_matches_the_matrix_product_on_large_grids(self, n, scheme):
        # Past the property test's range: even and odd N, blocks and dense.
        spec = ScalingSpec(1.7, n, scheme)
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        norm_x = np.linalg.norm(x)
        y = scale_signal(x, spec)
        assert np.max(np.abs(y - scaling_matrix(spec) @ x)) < 1e-13 * norm_x
        assert abs(np.linalg.norm(y) - norm_x) < 1e-13 * norm_x
