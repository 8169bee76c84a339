"""Tests for the CDDHF eigenbasis scaling method."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest

from conftest import count_sign_changes

from opscale import dft, pei
from opscale.dft import IndexScheme, dft_matrix
from opscale.pei import (
    CddhfBasis,
    cddhf_basis,
    pei_d_squared,
    pei_scale,
    pei_scheme,
    pei_u_squared,
)


def pei_centered_dft(n):
    """The standard centered DFT of the CDDHF method."""
    return dft_matrix(n, pei_scheme(n))


class TestBuildingBlocks:
    def test_u_squared_entries(self):
        n = 8
        u2 = pei_u_squared(n)
        assert np.count_nonzero(u2 - np.diag(np.diag(u2))) == 0
        for m in range(n):
            assert u2[m, m] == pytest.approx((m - (n - 1) / 2) ** 2)

    def test_centered_dft_entries_match_scalar_formula(self):
        n = 6
        f = pei_centered_dft(n)
        shift = (n - 1) / 2
        for a in range(n):
            for b in range(n):
                expected = cmath.exp(-2j * cmath.pi * (a - shift) * (b - shift) / n) / math.sqrt(n)
                assert abs(f[a, b] - expected) < 1e-14

    @pytest.mark.parametrize("n", [1, 5, 6])
    def test_centered_dft_is_the_shared_dft_matrix(self, n):
        # Labels m - (N-1)/2 are the centered scheme's for even N and the
        # ordinary scheme's for odd N: one builder, one cache.
        scheme = IndexScheme.CENTERED if n % 2 == 0 else IndexScheme.ORDINARY
        assert pei_scheme(n) is scheme
        assert pei_scheme(np.int64(n)) is scheme
        f = pei_centered_dft(n)
        assert f is dft_matrix(n, scheme)
        shift = (n - 1) / 2
        for a in range(n):
            for b in range(n):
                expected = cmath.exp(-2j * cmath.pi * (a - shift) * (b - shift) / n) / math.sqrt(n)
                assert abs(f[a, b] - expected) < 1e-14

    @pytest.mark.parametrize("n", [2, 5, 8, 17, 64])
    def test_centered_dft_is_unitary(self, n):
        f = pei_centered_dft(n)
        assert np.max(np.abs(f @ f.conj().T - np.eye(n))) < 1e-12 * n

    def test_d_squared_is_real_symmetric_and_nonnegative(self):
        n = 16
        d2 = pei_d_squared(n)
        assert np.max(np.abs(d2.imag)) < 1e-12 * np.max(np.abs(d2))
        sym = d2.real
        assert np.max(np.abs(sym - sym.T)) < 1e-12
        eigenvalues = np.linalg.eigvalsh((sym + sym.T) / 2)
        assert eigenvalues.min() > -1e-10

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 64, 127, 128, 256, 512])
    def test_d_squared_matches_the_two_product_form_bit_for_bit(self, n):
        # Scaling F's columns by the diagonal of U^2 is what F @ U^2
        # computes when U^2 is diagonal, so one product is saved exactly.
        u2, f = pei_u_squared(n), pei_centered_dft(n)
        expected = f @ u2 @ f.conj().T
        assert pei_d_squared(n).tobytes() == expected.tobytes()
        assert pei_d_squared(np.int64(n)).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 64, 127, 128, 129, 255, 256, 257, 512, 513])
    def test_d_squared_without_a_conjugate_copy_matches_the_one_product_form(self, n):
        # conj(conj(F U^2) F), F exactly symmetric, is (F U^2) F^H bit for
        # bit, the signs of exactly zero imaginary parts included.
        f = pei_centered_dft(n)
        expected = (f * np.diag(pei_u_squared(n))) @ f.conj().T
        assert pei_d_squared(n).tobytes() == expected.tobytes()
        d2_real, d2_imag_max = pei._d_squared(n)
        assert d2_imag_max == float(abs(expected.imag).max())

    @pytest.mark.parametrize("n", [7, 8, 101])
    def test_cached_d_squared_reuses_the_residual_the_dft_measured(self, n, request):
        # The cached F was checked when it was built; neither the cached
        # real part nor the public pei_d_squared forms F F^H again.
        pei_centered_dft(n)
        calls = request.getfixturevalue("identity_residual_calls")
        d2_real, d2_imag_max = pei._d_squared.__wrapped__(n)
        d2 = pei_d_squared(n)
        assert calls == []
        assert d2_real.tobytes() == d2.real.copy().tobytes()
        assert d2_imag_max == float(abs(d2.imag).max())

    def test_cached_d_squared_holds_the_kept_residual_to_its_limit(self, monkeypatch):
        f = pei_centered_dft(8)
        monkeypatch.setattr(dft, "_dft_matrix_cached", lambda n, scheme: (f, 1e-10))
        for build in (pei._d_squared.__wrapped__, pei_d_squared):
            with pytest.raises(ArithmeticError, match="requires a unitary F"):
                build(8)


class TestCddhfBasis:
    @pytest.mark.parametrize("n", [8, 64, 128])
    @pytest.mark.parametrize("m", [1.0, 2.0])
    def test_orthonormality(self, n, m):
        basis = cddhf_basis(n, m)
        gram = basis.vectors.T @ basis.vectors
        assert np.max(np.abs(gram - np.eye(n))) < 1e-9

    @pytest.mark.parametrize("n", [7, 16])
    @pytest.mark.parametrize("m", [0.5, 3.0])
    def test_matches_eigensolve_of_the_complex_s(self, n, m):
        # D^2 is cached once per N as its real part; S = M^4 D^2 + U^2 and
        # its eigensolve must come out bit for bit as when S is formed
        # from the complex D^2 and its real part taken.
        u2 = pei_u_squared(n)
        s = (m ** 4) * pei_d_squared(n) + u2
        eigenvalues, vectors = np.linalg.eigh((s.real + s.real.T) / 2.0)
        basis = cddhf_basis(n, m)
        assert np.array_equal(basis.eigenvalues, eigenvalues)
        signs = np.where(np.sign(basis.vectors[0]) == np.sign(vectors[0]), 1.0, -1.0)
        assert np.array_equal(basis.vectors, vectors * signs)

    def test_vectors_are_real(self):
        basis = cddhf_basis(16, 3.0)
        assert not np.iscomplexobj(basis.vectors)

    def test_eigenvalues_ascend(self):
        basis = cddhf_basis(32, 2.0)
        assert np.all(np.diff(basis.eigenvalues) >= 0)

    def test_low_order_eigenvalues_track_hermite_levels(self):
        # The continuum operator behind M^4 D^2 + U^2 at M = 1 has the
        # harmonic-oscillator spectrum; on the grid the first eigenvalues
        # land on N*(2p+1)/(2*pi) to high accuracy before edge effects
        # set in at larger p.
        basis = cddhf_basis(64, 1.0)
        for p in range(8):
            predicted = 64 * (2 * p + 1) / (2 * math.pi)
            assert basis.eigenvalues[p] == pytest.approx(predicted, rel=1e-6)

    def test_sign_convention_largest_entry_nonnegative_at_m_one(self):
        basis = cddhf_basis(16, 1.0)
        for p in range(16):
            v = basis.vectors[:, p]
            assert v[int(np.argmax(np.abs(v)))] >= 0

    def test_sign_convention_overlap_with_unit_m_basis(self):
        base = cddhf_basis(16, 1.0)
        scaled = cddhf_basis(16, 2.0)
        overlaps = np.sum(base.vectors * scaled.vectors, axis=0)
        assert np.all(overlaps >= -1e-12)

    def test_lowest_vector_is_bell_shaped(self):
        basis = cddhf_basis(32, 1.0)
        h0 = basis.vectors[:, 0]
        assert count_sign_changes(h0) == 0
        assert int(np.argmax(np.abs(h0))) in (15, 16)

    def test_zero_crossing_counts_match_order_below_spectrum_top(self):
        # The classical Sturm picture (p crossings for order p) holds for
        # all but the last few orders on a finite grid.
        for n in (8, 16):
            basis = cddhf_basis(n, 1.0)
            for p in range(n - 4):
                assert count_sign_changes(basis.vectors[:, p]) == p

    def test_zero_crossing_counts_permute_at_spectrum_top(self):
        # At the top of the spectrum eigenvalue order stops tracking
        # parity: each eigenvector still has definite parity (the matrix
        # commutes with coordinate reflection), which forces even counts
        # on even-parity vectors and odd counts on odd ones, but the
        # ascending-eigenvalue ordering interleaves them out of sequence.
        # The counts remain a permutation of 0..N-1 with the tail swapped.
        for n in (8, 16):
            basis = cddhf_basis(n, 1.0)
            counts = [count_sign_changes(basis.vectors[:, p]) for p in range(n)]
            assert sorted(counts) == list(range(n))
            assert counts != list(range(n))

    def test_basis_is_cached_and_read_only(self):
        a = cddhf_basis(8, 2.0)
        b = cddhf_basis(8, 2.0)
        assert a is b
        with pytest.raises(ValueError):
            a.vectors[0, 0] = 1.0

    def test_basis_is_frozen(self):
        basis = cddhf_basis(8, 1.0)
        assert isinstance(basis, CddhfBasis)
        with pytest.raises(AttributeError):
            basis.m_factor = 5.0

    @pytest.mark.parametrize("bad", [3.7, 4.9, True, "5"])
    def test_rejects_non_integral_sample_counts(self, bad):
        for build in (pei_u_squared, pei_d_squared, pei_scheme, lambda n: cddhf_basis(n, 2.0)):
            with pytest.raises(ValueError, match="must be an integer"):
                build(bad)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            cddhf_basis(0, 1.0)
        with pytest.raises(ValueError):
            cddhf_basis(8, -2.0)
        with pytest.raises(ValueError):
            cddhf_basis(8, math.inf)


class TestPeiScale:
    def test_m_one_is_identity(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        out = pei_scale(x, 1.0)
        assert np.max(np.abs(out - x)) < 1e-12

    def test_maps_basis_vectors_to_scaled_basis_vectors(self):
        n, m = 32, 2.0
        base = cddhf_basis(n, 1.0)
        target = cddhf_basis(n, m)
        for p in (0, 1, 5, 20, n - 1):
            out = pei_scale(base.vectors[:, p], m)
            assert np.max(np.abs(out - target.vectors[:, p])) < 1e-9

    @pytest.mark.parametrize("m", [0.5, 2.0, 3.0])
    def test_norm_preservation(self, m):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        out = pei_scale(x, m)
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(x), rel=1e-8)

    def test_round_trip_is_not_inverse(self):
        # Unlike the generator-exponential method, basis substitution is
        # not a one-parameter group: expanding in H_{p,M} and resynthesizing
        # in H_{p,1/M} does not invert the forward map.  The deviation is
        # O(1), not roundoff — documented here so nobody mistakes the
        # method for an invertible scaling.
        rng = np.random.default_rng(13)
        x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        x /= np.linalg.norm(x)
        back = pei_scale(pei_scale(x, 2.0), 0.5)
        deviation = np.linalg.norm(back - x)
        print(f"pei round-trip deviation at N=32, M=2: {deviation:.4f}")
        assert deviation > 0.5

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, -math.inf)])
    def test_rejects_non_finite_samples(self, bad):
        x = np.ones(8, dtype=complex)
        x[0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            pei_scale(x, 2.0)

    def test_rejects_matrix_input(self):
        with pytest.raises(ValueError):
            pei_scale(np.zeros((4, 4)), 2.0)

    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_matches_the_complex_products_of_the_bases(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
        strided = x[::2]  # a strided signal is copied once, not refused
        expected = cddhf_basis(n, 2.0).vectors @ (cddhf_basis(n, 1.0).vectors.T @ strided)
        got = pei_scale(strided, 2.0)
        assert got.shape == (n,) and got.dtype == np.complex128
        assert np.max(np.abs(got - expected)) < 1e-14 * np.linalg.norm(strided)
        assert not pei_scale(strided.real, 2.0).imag.any()  # a real signal stays real

    def test_applies_the_bases_without_a_complex_copy(self):
        # Each real basis is applied as one real product on the signal's
        # (N, 2) float view; promoting a basis to complex would take 16 N^2
        # bytes (1 MiB here).
        n = 256
        pei_scale(np.ones(n), 2.0)  # builds and caches both bases
        x = np.random.default_rng(1).standard_normal(n) + 0j
        tracemalloc.start()
        try:
            pei_scale(x, 2.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100 * n
