"""Tests for the discrete scaling matrix and signal-level application."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import eigh_unitary, load_fixture, taylor_expm

from opscale import bench, cache, linalg, operators, scaling
from opscale.dft import IndexScheme, index_grid
from opscale.linalg import GridUnitary, apply_from_eig
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
        """Each block as one whole product of its formula, scattered into N x N.

        Only ``|theta|`` is assembled; a negative theta gives the conjugate
        transpose of each block.  A paired block is ``(Q K) Q^T``: column
        pair ``(j, k-1-j)`` of ``Q K`` is ``(cos q_j - t sin q_{k-1-j}, cos
        q_{k-1-j} + t sin q_j)`` at the angle ``theta (lam_j -
        lam_{k-1-j})/2``.  A whole grid's block is ``Z W Z^H``, ``W = (Q cos)
        Q^T - i (Q sin) Q^T``: two whole real products, Z along the rows of
        ``conj(W)``, then along the columns of the conjugate.  The scatter
        rounds as the reversal fold's unfold does: an entry of the
        middle row or column of an odd N is ``sqrt(2)`` times its even
        entry, halved, and the centre takes that twice, then is doubled.
        """
        def block(e):
            q, lam = e.basis, e.eigenvalues
            k = len(lam)
            angle = abs(theta)
            if e.rotation is not None:
                h = k // 2
                angles = (lam[:h] - lam[::-1][:h]) * (0.5 * angle)
                cos, tsin = np.cos(angles), e.rotation[1][:h] * np.sin(angles)
                qk = q.copy()
                for j in range(h):
                    qk[:, j] = cos[j] * q[:, j] + (-tsin[j]) * q[:, k - 1 - j]
                    qk[:, k - 1 - j] = cos[j] * q[:, k - 1 - j] + tsin[j] * q[:, j]
                m = qk @ q.T
                return m.T if theta < 0 else m
            angles = angle * lam
            conj_w = np.empty((k, k), dtype=complex)
            conj_w.real, conj_w.imag = (q * np.cos(angles)) @ q.T, (q * np.sin(angles)) @ q.T
            y = np.conjugate(e.transform(conj_w, np.empty_like(conj_w), axis=1))
            m = e.transform(y, np.empty_like(y), axis=0)
            return m.conj().T if theta < 0 else m

        if len(eig.blocks) == 1:
            return block(eig.blocks[0])
        even, odd = (block(b) for b in eig.blocks)
        h = odd.shape[0]
        n = even.shape[0] + h
        out = np.empty((n, n), dtype=complex)
        plus, minus = (even[:h, :h] + odd) / 2.0, (even[:h, :h] - odd) / 2.0
        out[:h, :h], out[n - h:, n - h:] = plus, plus[::-1, ::-1]
        out[:h, n - h:], out[n - h:, :h] = minus[:, ::-1], minus[::-1, :]
        if n % 2:
            root = math.sqrt(2.0)
            col, row = even[:h, h] * root * 0.5, even[h, :h] * root * 0.5
            out[:h, h], out[n - h:, h] = col, col[::-1]
            out[h, :h], out[h, n - h:] = row, row[::-1]
            out[h, h] = ((even[h, h] * root * 0.5) * root * 0.5) * 2.0
        return out

    @staticmethod
    def _rows_round_as_the_whole(eig):
        """Whether each row block of ``a @ Q^T`` rounds as the whole product, for each block's Q.

        The premise of ``linalg._row_blocks``: it holds with one BLAS thread
        (measured at every k up to 1100), but with more OpenBLAS may split
        a row block's product among its threads otherwise than the whole
        product's, and round it otherwise.
        """
        for block in eig.blocks:
            q = block.basis
            whole = q @ q.T
            if any((q[rows] @ q.T).tobytes() != whole[rows].tobytes()
                   for rows in linalg._row_blocks(len(q))):
                return False
        return True

    @pytest.mark.parametrize("n", list(range(1, 18)) + [64, 127, 128, 129, 256, 257, 512])
    @pytest.mark.parametrize("scheme", list(IndexScheme))
    def test_bit_identical_to_the_dense_assembly(self, n, scheme):
        # Assembling a block of rows (or columns) at a time into a
        # preallocated array must not move a bit of the matrix that
        # scaling_matrix returns, wherever BLAS rounds a block of rows of a
        # product as it rounds them in the whole product.
        eig = operator_set(n, scheme).generator_eig
        exact = self._rows_round_as_the_whole(eig)
        for m in (0.37, 2.0, 7.3):
            expected = self._assembled_densely(eig, 2.0 * math.pi * math.log(m))
            got = scaling_matrix(ScalingSpec(m, n, scheme))
            assert got.dtype == np.complex128 and got.flags.c_contiguous
            assert not got.flags.writeable
            if exact:
                assert got.tobytes() == expected.tobytes()
            else:
                assert np.max(np.abs(got - expected)) <= 1e-14

    @pytest.mark.parametrize(
        "n, scheme",
        [(1, IndexScheme.ORDINARY), (16, IndexScheme.ORDINARY), (17, IndexScheme.CENTERED),
         (128, IndexScheme.ORDINARY), (16, IndexScheme.CENTERED), (17, IndexScheme.ORDINARY)],
    )
    def test_reciprocal_factor_is_the_adjoint_bit_for_bit(self, n, scheme):
        # Only |theta| is assembled: M = 0.5 is served from the operator of
        # M = 2, as its conjugate transpose (a new array), or on symmetric
        # grids scattered from the transposes of its two real blocks.
        up = scaling_matrix(ScalingSpec(2.0, n, scheme))
        down = scaling_matrix(ScalingSpec(0.5, n, scheme))
        assert down.dtype == np.complex128 and down.flags.c_contiguous
        assert not down.flags.writeable
        operator = scaling._scaling_operator(*ScalingSpec(2.0, n, scheme)._key)
        if len(operator.blocks) == 2:
            copied = GridUnitary(tuple(np.ascontiguousarray(m.T) for m in operator.blocks),
                                 (None, None))
            assert down.tobytes() == copied.dense().tobytes()
            assert down.tobytes() == np.ascontiguousarray(up.T).tobytes()
        else:
            assert up is operator.blocks[0] and down is not operator.blocks[0]
            assert down.tobytes() == np.ascontiguousarray(up.conj().T).tobytes()

    @pytest.mark.parametrize(
        "n, scheme",
        [(64, IndexScheme.ORDINARY), (65, IndexScheme.CENTERED),
         (64, IndexScheme.CENTERED), (65, IndexScheme.ORDINARY)],
    )
    def test_assembled_round_trip_returns_the_signal(self, n, scheme):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        there = _assembled(ScalingSpec(2.0, n, scheme), x)
        back = _assembled(ScalingSpec(0.5, n, scheme), there)
        assert np.linalg.norm(back - x) <= 1e-13 * np.linalg.norm(x)

    def test_cached_and_read_only(self):
        spec = ScalingSpec(3.0, 8, IndexScheme.ORDINARY)
        a = scaling_matrix(spec)
        b = scaling_matrix(ScalingSpec(3.0, 8, IndexScheme.ORDINARY))
        assert a is b
        with pytest.raises(ValueError):
            a[0, 0] = 0

    @pytest.mark.parametrize(
        "n, scheme",
        [(n, IndexScheme.ORDINARY) for n in (2, 4, 16, 64, 128)]
        + [(n, IndexScheme.CENTERED) for n in (1, 3, 17, 63, 127)],
    )
    @pytest.mark.parametrize("m", [0.5, 2.0, 7.3])
    def test_real_form_matches_dense_decomposition(self, n, scheme, m):
        # Asymmetric grids decompose G whole through its real form; the
        # reference decomposes G itself in complex arithmetic.
        ops = operator_set(n, scheme)
        assert not ops.grid_symmetric
        theta = 2.0 * math.pi * math.log(m)
        expected = eigh_unitary(ops.generator, theta)
        got = scaling_matrix(ScalingSpec(m, n, scheme))
        assert np.max(np.abs(got - expected)) < 1e-12

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
        assert len(ops.generator_eig.blocks) == 2
        theta = 2.0 * math.pi * math.log(m)
        expected = eigh_unitary(ops.generator, theta)
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


def _factored(spec, x):
    eig = operator_set(spec.n_samples, spec.scheme).generator_eig
    return apply_from_eig(eig, 2.0 * math.pi * math.log(spec.m_factor), x)


def _assembled(spec, x):
    """The assembled path: the cached operator of ``|theta|``, or its adjoint for M < 1."""
    return scaling._apply(np.asarray(x, dtype=complex), spec, factored=False)


@pytest.fixture
def fresh_requests():
    """An empty request table and cache, emptied again afterwards."""
    scaling._requests.clear()
    cache.shared.clear()
    yield
    scaling._requests.clear()
    cache.shared.clear()


class TestRequestTable:
    """Which path ``scale_signal`` takes: factored for a key's first K requests.

    K is ``ceil(k/4)``, k the size of the grid's largest block.
    """

    @pytest.mark.parametrize(
        "n, scheme, k, first_k",
        [(16, IndexScheme.CENTERED, 8, 2), (16, IndexScheme.ORDINARY, 16, 4),
         (17, IndexScheme.CENTERED, 17, 5), (17, IndexScheme.ORDINARY, 9, 3),
         (1, IndexScheme.ORDINARY, 1, 1), (64, IndexScheme.ORDINARY, 64, 16)],
    )
    def test_first_k_requests_are_factored_and_later_ones_assembled(
        self, fresh_requests, n, scheme, k, first_k
    ):
        eig = operator_set(n, scheme).generator_eig
        assert eig.factored_certified and eig.block_size == k
        spec = ScalingSpec(1.9, n, scheme)
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for _ in range(first_k):
            assert scale_signal(x, spec).tobytes() == _factored(spec, x).tobytes()
        assert cache.shared.info().misses == 0
        for _ in range(3):
            assert scale_signal(x, spec).tobytes() == _assembled(spec, x).tobytes()
        assert cache.shared.info().misses == 1
        if n > 1:  # the two paths round differently
            assert _factored(spec, x).tobytes() != _assembled(spec, x).tobytes()

    def test_uncertified_grid_is_assembled_from_the_first_request(self, fresh_requests):
        eig = operator_set(1024, IndexScheme.ORDINARY).generator_eig
        assert not eig.factored_certified
        spec = ScalingSpec(1.7, 1024, IndexScheme.ORDINARY)
        x = np.random.default_rng(4).standard_normal(1024) + 0j
        assert scale_signal(x, spec).tobytes() == _assembled(spec, x).tobytes()
        assert cache.shared.info().misses == 1
        with pytest.raises(ArithmeticError, match="not certified"):
            _factored(spec, x)

    def test_reciprocal_factors_share_one_count(self, fresh_requests):
        # M and 1/M have one key: their requests count against one K (4 at
        # N = 16 ordinary), and one assembly serves both from then on.
        n = 16
        specs = [ScalingSpec(m, n, IndexScheme.ORDINARY) for m in (2.0, 0.5)]
        assert specs[0]._key == specs[1]._key
        x = np.random.default_rng(16).standard_normal(n) + 1j
        for i in range(4):
            spec = specs[i % 2]
            assert scale_signal(x, spec).tobytes() == _factored(spec, x).tobytes()
        assert cache.shared.info().misses == 0
        for spec in specs * 2:
            assert scale_signal(x, spec).tobytes() == _assembled(spec, x).tobytes()
        assert cache.shared.info().misses == 1
        assert list(scaling._requests) == [specs[0]._key]

    def test_table_stays_bounded_after_many_distinct_factors(self, fresh_requests):
        x = np.ones(4, dtype=complex)
        hot = ScalingSpec(1.5, 4, IndexScheme.CENTERED)  # k = 2, so K = 1
        for _ in range(2):
            scale_signal(x, hot)  # factored, then assembled
        # Factors of at least 1, so that no two share a key (a factor and
        # its reciprocal do: test_reciprocal_factors_share_one_count).
        specs = [ScalingSpec(m, 4, IndexScheme.CENTERED)
                 for m in np.exp(np.linspace(0.0, 4.0, 10_000)).tolist()]
        keys = [spec._key for spec in specs]
        assert len(set(keys) | {hot._key}) == len(keys) + 1
        for i, spec in enumerate(specs):
            scale_signal(x, spec)
            if i % 500 == 0:
                scale_signal(x, hot)
        assert len(scaling._requests) == scaling._REQUEST_KEYS
        # The least recently requested keys are forgotten, the latest kept;
        # a key requested within the last 1024 keys is kept, and so stays
        # on the assembled path.
        after_hot = keys[9_501:]  # the hot factor was last requested after keys[9_500]
        before_hot = keys[:9_501][-(scaling._REQUEST_KEYS - 1 - len(after_hot)):]
        assert list(scaling._requests) == before_hot + [hot._key] + after_hot
        assert cache.shared.info().misses == 1  # only the hot factor was assembled

    def test_a_checked_spec_reaches_its_grid_without_checking_it_again(
        self, fresh_requests, monkeypatch
    ):
        # A ScalingSpec holds N and the scheme checked, so neither path of
        # scale_signal, nor a sweep's operator cell, checks them again.
        spec = ScalingSpec(1.3, 16, IndexScheme.ORDINARY)  # K = 4
        x = np.random.default_rng(13).standard_normal(16) + 1j
        factored, assembled = _factored(spec, x).tobytes(), _assembled(spec, x).tobytes()
        cache.shared.clear()  # the assembly runs again below

        def refuses(n_samples):
            raise AssertionError("N checked again")

        monkeypatch.setattr(operators, "as_sample_count", refuses)
        for _ in range(4):
            assert scale_signal(x, spec).tobytes() == factored
        assert scale_signal(x, spec).tobytes() == assembled
        assert cache.shared.info().misses == 1
        grid = index_grid(16, IndexScheme.ORDINARY)
        assert bench.scale_with(bench.Method.OPERATOR, x, grid, 1.3).tobytes() == factored


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

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(min_value=1, max_value=64),
        scheme=st.sampled_from(list(IndexScheme)),
        ln_a=ln_m,
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_factored_and_assembled_paths_agree(self, n, scheme, ln_a, seed):
        spec = ScalingSpec(math.exp(ln_a), n, scheme)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        gap = np.linalg.norm(_factored(spec, x) - _assembled(spec, x))
        assert gap < 1e-13 * np.linalg.norm(x)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(min_value=1, max_value=64),
        ln_a=ln_m,
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_real_signal_stays_real_on_the_assembled_path(self, n, ln_a, seed):
        # Both symmetric grids: centered for even N, ordinary for odd N.  The
        # generator is purely imaginary there, so the assembled operator is
        # kept as real blocks, and a real signal meets no imaginary part.
        scheme = IndexScheme.CENTERED if n % 2 == 0 else IndexScheme.ORDINARY
        spec = ScalingSpec(math.exp(ln_a), n, scheme)
        x = np.random.default_rng(seed).standard_normal(n)
        y = _assembled(spec, x)
        assert y.dtype == np.complex128 and not y.imag.any()
        norm_x = np.linalg.norm(x)
        assert abs(np.linalg.norm(y) - norm_x) <= 1e-12 * norm_x

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
