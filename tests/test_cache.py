"""Tests for the byte-bounded LRU cache shared by scaling operators and CDDHF bases.

The scaling tests run on two grids of N = 16.  The centered grid is
symmetric, so the cache holds the two 8 x 8 parity blocks (8 N^2
bytes); the ordinary grid is not, so it holds the dense matrix
(16 N^2 bytes).  The tests reach the cached operator through the memoized builder, whose result is
the cached object itself, or through ``scale_signal``.
"""

import sys
import threading
from typing import NamedTuple

import numpy as np
import pytest

from opscale import cache
from opscale.dft import IndexScheme
from opscale.linalg import ParityUnitary
from opscale.pei import cddhf_basis
from opscale.scaling import ScalingSpec, _scaling_operator, scale_signal, scaling_matrix

N = 16  # the grid of every test here
BASIS_BYTES = 8 * N * N + 8 * N  # real vectors plus eigenvalues


class Grid(NamedTuple):
    n: int
    scheme: IndexScheme
    charge: int  # bytes one scaling operator on this grid is charged

    def spec(self, m: float) -> ScalingSpec:
        return ScalingSpec(m, self.n, self.scheme)

    def operator(self, m: float):
        """The cached scaling operator for factor ``m``."""
        return _scaling_operator(float(m), self.n, self.scheme)

    def signal(self, seed: int = 0) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return rng.standard_normal(self.n) + 1j * rng.standard_normal(self.n)


BLOCKS = Grid(N, IndexScheme.CENTERED, 8 * N * N)


@pytest.fixture(
    params=[BLOCKS, Grid(N, IndexScheme.ORDINARY, 16 * N * N)],
    ids=["symmetric", "asymmetric"],
)
def grid(request) -> Grid:
    return request.param


@pytest.fixture
def budget(monkeypatch):
    """Empties the shared cache and sets its budget; empties it again afterwards."""
    cache.shared.clear()

    def set_budget(nbytes: int) -> None:
        monkeypatch.setattr(cache, "BUDGET_BYTES", nbytes)

    yield set_budget
    cache.shared.clear()


def test_operator_is_charged_its_bytes(budget, grid):
    op = grid.operator(2.0)
    if grid is BLOCKS:
        assert isinstance(op, ParityUnitary)
        assert op.even.shape == op.odd.shape == (grid.n // 2, grid.n // 2)
    else:
        assert isinstance(op, np.ndarray) and op.shape == (grid.n, grid.n)
    assert op.nbytes == grid.charge
    assert cache.shared.info().nbytes == grid.charge


def test_scale_signal_applies_the_cached_operator(budget, grid):
    x = grid.signal(2)
    y = scale_signal(x, grid.spec(1.7))
    assert y.tobytes() == (grid.operator(1.7) @ x).tobytes()
    assert cache.shared.info().misses == 1


def test_bytes_held_stay_within_budget_over_many_new_factors(budget, grid):
    budget(5 * grid.charge)
    x = grid.signal()
    for k in range(40):
        scale_signal(x, grid.spec(1.0 + 0.05 * k))
        assert cache.shared.info().nbytes <= 5 * grid.charge
    info = cache.shared.info()
    assert (info.entries, info.nbytes, info.misses, info.evictions) == (
        5, 5 * grid.charge, 40, 35,
    )


def test_least_recently_used_entry_is_evicted_first(budget, grid):
    budget(3 * grid.charge)
    first = grid.operator(2.0)
    second = grid.operator(3.0)
    grid.operator(4.0)
    assert grid.operator(2.0) is first  # now the most recently used
    grid.operator(5.0)  # evicts 3.0, the oldest
    assert grid.operator(2.0) is first
    assert grid.operator(3.0) is not second
    assert cache.shared.info().evictions == 2


def test_oversized_newest_entry_is_kept_alone(budget, grid):
    budget(grid.charge // 2)
    grid.operator(2.0)
    big = grid.operator(3.0)
    info = cache.shared.info()
    assert (info.entries, info.nbytes, info.evictions) == (1, grid.charge, 1)
    assert grid.operator(3.0) is big
    assert cache.shared.info().hits == 1


def test_hit_returns_the_same_read_only_object(budget, grid):
    a = grid.operator(2.5)
    assert grid.operator(2.5) is a
    arrays = (a.even, a.odd) if isinstance(a, ParityUnitary) else (a,)
    assert not any(arr.flags.writeable for arr in arrays)
    scale_signal(grid.signal(), grid.spec(2.5))  # a hit through the public call
    assert grid.operator(2.5) is a
    assert cache.shared.info().hits == 3
    basis = cddhf_basis(N, 2.5)
    assert cddhf_basis(N, 2.5) is basis
    assert not basis.vectors.flags.writeable and not basis.eigenvalues.flags.writeable


def test_evicted_scaling_matrix_is_rebuilt_bit_identical(budget, grid):
    budget(grid.charge)
    first = grid.operator(0.7)
    kept = scaling_matrix(grid.spec(0.7)).tobytes()
    grid.operator(1.3)  # evicts 0.7
    again = scaling_matrix(grid.spec(0.7))
    assert grid.operator(0.7) is not first
    assert cache.shared.info().evictions == 2
    assert again.tobytes() == kept
    assert again.dtype == np.complex128 and again.flags.c_contiguous
    assert not again.flags.writeable


def test_scale_signal_is_bit_identical_after_eviction_and_rebuild(budget, grid):
    budget(grid.charge)
    x = grid.signal(1)
    before = scale_signal(x, grid.spec(0.7))
    scale_signal(x, grid.spec(1.3))  # evicts 0.7
    after = scale_signal(x, grid.spec(0.7))  # rebuilds it, evicting 1.3
    assert cache.shared.info().evictions == 2
    assert after.tobytes() == before.tobytes()


def test_evicted_cddhf_basis_is_rebuilt_bit_identical(budget):
    budget(BASIS_BYTES)
    first = cddhf_basis(N, 2.0)  # builds the M = 1 reference on the way
    kept = (first.vectors.tobytes(), first.eigenvalues.tobytes())
    cddhf_basis(N, 3.0)
    again = cddhf_basis(N, 2.0)
    assert again is not first
    assert (again.vectors.tobytes(), again.eigenvalues.tobytes()) == kept


def test_scaling_matrices_and_bases_share_one_budget(budget, grid):
    budget(grid.charge)
    grid.operator(2.0)
    cddhf_basis(N, 1.0)  # pushes the total over the budget
    info = cache.shared.info()
    assert (info.entries, info.nbytes, info.evictions) == (1, BASIS_BYTES, 1)


def test_info_counts_hits_misses_and_evictions_exactly(budget, grid):
    budget(2 * grid.charge)
    for m in (2.0, 2.0, 3.0, 2.0, 4.0, 3.0, 3.0):
        grid.operator(m)
    # misses: 2.0, 3.0, 4.0 (evicts 3.0), 3.0 (evicts 2.0); hits: the other three
    assert cache.shared.info() == cache.CacheInfo(
        hits=3, misses=4, evictions=2, entries=2, nbytes=2 * grid.charge,
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
