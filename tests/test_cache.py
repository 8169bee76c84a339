"""Tests for the byte-bounded LRU cache shared by scaling matrices and CDDHF bases."""

import sys
import threading

import numpy as np
import pytest

from opscale import cache
from opscale.dft import IndexScheme
from opscale.pei import cddhf_basis
from opscale.scaling import ScalingSpec, scaling_matrix

N = 16
MATRIX_BYTES = 16 * N * N  # one complex128 N x N scaling matrix
BASIS_BYTES = 8 * N * N + 8 * N  # real vectors plus eigenvalues


def spec(m: float) -> ScalingSpec:
    return ScalingSpec(m, N, IndexScheme.CENTERED)


@pytest.fixture
def budget(monkeypatch):
    """Empties the shared cache and sets its budget; empties it again afterwards."""
    cache.shared.clear()

    def set_budget(nbytes: int) -> None:
        monkeypatch.setattr(cache, "BUDGET_BYTES", nbytes)

    yield set_budget
    cache.shared.clear()


def test_bytes_held_stay_within_budget_over_many_new_factors(budget):
    budget(5 * MATRIX_BYTES)
    for k in range(40):
        scaling_matrix(spec(1.0 + 0.05 * k))
        assert cache.shared.info().nbytes <= 5 * MATRIX_BYTES
    info = cache.shared.info()
    assert (info.entries, info.nbytes, info.misses, info.evictions) == (
        5, 5 * MATRIX_BYTES, 40, 35,
    )


def test_least_recently_used_entry_is_evicted_first(budget):
    budget(3 * MATRIX_BYTES)
    first = scaling_matrix(spec(2.0))
    second = scaling_matrix(spec(3.0))
    scaling_matrix(spec(4.0))
    assert scaling_matrix(spec(2.0)) is first  # now the most recently used
    scaling_matrix(spec(5.0))  # evicts 3.0, the oldest
    assert scaling_matrix(spec(2.0)) is first
    assert scaling_matrix(spec(3.0)) is not second
    assert cache.shared.info().evictions == 2


def test_oversized_newest_entry_is_kept_alone(budget):
    budget(MATRIX_BYTES // 2)
    scaling_matrix(spec(2.0))
    big = scaling_matrix(spec(3.0))
    info = cache.shared.info()
    assert (info.entries, info.nbytes, info.evictions) == (1, MATRIX_BYTES, 1)
    assert scaling_matrix(spec(3.0)) is big
    assert cache.shared.info().hits == 1


def test_hit_returns_the_same_read_only_object(budget):
    a = scaling_matrix(spec(2.5))
    assert scaling_matrix(spec(2.5)) is a
    assert not a.flags.writeable
    basis = cddhf_basis(N, 2.5)
    assert cddhf_basis(N, 2.5) is basis
    assert not basis.vectors.flags.writeable and not basis.eigenvalues.flags.writeable


def test_evicted_scaling_matrix_is_rebuilt_bit_identical(budget):
    budget(MATRIX_BYTES)
    first = scaling_matrix(spec(0.7))
    kept = first.tobytes()
    scaling_matrix(spec(1.3))  # evicts 0.7
    again = scaling_matrix(spec(0.7))
    assert again is not first
    assert again.tobytes() == kept
    assert again.dtype == np.complex128 and again.flags.c_contiguous
    assert not again.flags.writeable


def test_evicted_cddhf_basis_is_rebuilt_bit_identical(budget):
    budget(BASIS_BYTES)
    first = cddhf_basis(N, 2.0)  # builds the M = 1 reference on the way
    kept = (first.vectors.tobytes(), first.eigenvalues.tobytes())
    cddhf_basis(N, 3.0)
    again = cddhf_basis(N, 2.0)
    assert again is not first
    assert (again.vectors.tobytes(), again.eigenvalues.tobytes()) == kept


def test_scaling_matrices_and_bases_share_one_budget(budget):
    budget(MATRIX_BYTES)
    scaling_matrix(spec(2.0))
    cddhf_basis(N, 1.0)  # pushes the total over the budget
    info = cache.shared.info()
    assert (info.entries, info.nbytes, info.evictions) == (1, BASIS_BYTES, 1)


def test_info_counts_hits_misses_and_evictions_exactly(budget):
    budget(2 * MATRIX_BYTES)
    for m in (2.0, 2.0, 3.0, 2.0, 4.0, 3.0, 3.0):
        scaling_matrix(spec(m))
    # misses: 2.0, 3.0, 4.0 (evicts 3.0), 3.0 (evicts 2.0); hits: the other three
    assert cache.shared.info() == cache.CacheInfo(
        hits=3, misses=4, evictions=2, entries=2, nbytes=2 * MATRIX_BYTES,
    )
    cache.shared.clear()
    assert cache.shared.info() == cache.CacheInfo(0, 0, 0, 0, 0)


def test_concurrent_callers_keep_the_bookkeeping_exact(monkeypatch):
    # More threads than cores and a short switch interval, so that the
    # threads interleave inside the cache; a lost update to the counters or
    # to the bytes held would break the totals below.
    monkeypatch.setattr(cache, "BUDGET_BYTES", 3 * 800)
    lru = cache.ByteBoundedLRU()

    @lru.memoize(nbytes=lambda value: value.nbytes)
    def build(k):
        return np.full(100, float(k))  # 800 bytes

    threads_n, calls = 8, 400
    bad = []

    def worker(seed):
        rng = np.random.default_rng(seed)
        for k in rng.integers(0, 6, calls).tolist():
            if not np.array_equal(build(k), np.full(100, float(k))):
                bad.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(s,)) for s in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert bad == []
    info = lru.info()
    assert info.hits + info.misses == threads_n * calls
    assert info.nbytes == 800 * info.entries <= 3 * 800
