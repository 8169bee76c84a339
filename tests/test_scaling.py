"""Tests for the discrete scaling matrix and signal-level application."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load_fixture, taylor_expm

from opscale.dft import IndexScheme, index_grid
from opscale.linalg import ParityEigenDecomposition, hermitian_eig, unitary_from_eig
from opscale.operators import OperatorSet, coord_matrix, diff_matrix, operator_set, scaling_generator
from opscale.dft import dft_matrix
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

    def test_cached_and_read_only(self):
        spec = ScalingSpec(3.0, 8, IndexScheme.ORDINARY)
        a = scaling_matrix(spec)
        b = scaling_matrix(ScalingSpec(3.0, 8, IndexScheme.ORDINARY))
        assert a is b
        with pytest.raises(ValueError):
            a[0, 0] = 0

    def test_custom_operator_set_bypasses_cache(self):
        n, scheme = 8, IndexScheme.CENTERED
        grid = index_grid(n, scheme)
        f = dft_matrix(n, scheme)
        u = coord_matrix(grid)
        d = diff_matrix(f, u)
        custom = OperatorSet(grid, f, u, d, scaling_generator(u, d))
        spec = ScalingSpec(2.0, n, scheme)
        got = scaling_matrix(spec, custom)
        assert np.max(np.abs(got - scaling_matrix(spec))) < 1e-12
        assert got is not scaling_matrix(spec)

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

    def test_mismatched_operator_set_is_rejected(self):
        spec = ScalingSpec(2.0, 8, IndexScheme.ORDINARY)
        wrong = operator_set(16, IndexScheme.ORDINARY)
        with pytest.raises(ValueError):
            scaling_matrix(spec, wrong)


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
