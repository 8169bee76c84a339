"""Tests for the byte-bounded LRU caches: ``shared``, which holds scaling
operators and CDDHF bases, and ``grids``, which holds F, D^2, operator sets
and decompositions.  ``BUDGET_BYTES`` bounds each of them.

The scaling tests run on two grids of N = 16.  The centered grid is
symmetric, so the cache holds the two real 8 x 8 parity blocks (4 N^2
bytes); the ordinary grid is not, so it holds the dense complex matrix
(16 N^2 bytes).  The tests reach the cached operator through the
memoized builder, whose result is the cached object itself, or through
``scale_signal``.  ``scale_signal`` applies the first K requests of a
factor in factored form, K a quarter of the largest block size (2 on the
symmetric grid, 4 on the other), and assembles and caches the operator
from request K + 1 on; the tests that reach the cache through it make
K + 1 requests of each factor.
"""

import gc
import os
import sys
import threading
import time
import weakref
from typing import NamedTuple

import numpy as np
import pytest

from conftest import forked_exit_code

from opscale import cache, pei, scaling
from opscale.dft import IndexScheme, dft_matrix
from opscale.linalg import GridUnitary
from opscale.operators import OperatorSet, operator_set
from opscale.pei import cddhf_basis
from opscale.scaling import ScalingSpec, _scaling_operator, scale_signal, scaling_matrix

N = 16  # the grid of every test here
BASIS_BYTES = 8 * N * N + 8 * N  # real vectors plus eigenvalues


class Grid(NamedTuple):
    n: int
    scheme: IndexScheme
    charge: int  # bytes one scaling operator on this grid is charged
    k: int  # K, the requests scale_signal applies in factored form

    def spec(self, m: float) -> ScalingSpec:
        return ScalingSpec(m, self.n, self.scheme)

    def operator(self, m: float):
        """The cached scaling operator for factor ``m``: that of ``1/m`` for ``m < 1``."""
        return _scaling_operator(*self.spec(m)._key)

    def assembled(self, x, m: float) -> np.ndarray:
        """``scale_signal`` past the factored requests: the first assembled result."""
        for _ in range(self.k + 1):
            y = scale_signal(x, self.spec(m))
        return y

    def signal(self, seed: int = 0) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return rng.standard_normal(self.n) + 1j * rng.standard_normal(self.n)


BLOCKS = Grid(N, IndexScheme.CENTERED, 4 * N * N, N // 8)


@pytest.fixture(
    params=[BLOCKS, Grid(N, IndexScheme.ORDINARY, 16 * N * N, N // 4)],
    ids=["symmetric", "asymmetric"],
)
def grid(request) -> Grid:
    return request.param


@pytest.fixture
def budget(monkeypatch):
    """Empties the shared cache and sets its budget; empties it again afterwards.

    The request table of ``scale_signal`` is emptied too, so that every
    test starts its factors at request one.
    """
    cache.shared.clear()
    scaling._requests.clear()

    def set_budget(nbytes: int) -> None:
        monkeypatch.setattr(cache, "BUDGET_BYTES", nbytes)

    yield set_budget
    cache.shared.clear()
    scaling._requests.clear()


def test_operator_is_charged_its_bytes(budget, grid):
    op = grid.operator(2.0)
    assert isinstance(op, GridUnitary)
    if grid is BLOCKS:
        assert [(m.shape, m.dtype) for m in op.blocks] == [((grid.n // 2,) * 2, np.float64)] * 2
    else:
        assert [(m.shape, m.dtype) for m in op.blocks] == [((grid.n,) * 2, np.complex128)]
    assert op.nbytes == grid.charge
    assert cache.shared.info().nbytes == grid.charge


def test_scale_signal_applies_the_cached_operator(budget, grid):
    # The first K requests assemble nothing; request K + 1 assembles the
    # operator, caches it and applies it.
    x = grid.signal(2)
    for _ in range(grid.k):
        scale_signal(x, grid.spec(1.7))
    assert cache.shared.info() == cache.CacheInfo(0, 0, 0, 0, 0)
    y = scale_signal(x, grid.spec(1.7))
    assert y.tobytes() == grid.operator(1.7).dot(x).tobytes()
    assert cache.shared.info().misses == 1


def test_reciprocal_factors_share_one_entry(budget, grid):
    # M_{1/M} = M_M^H: one assembly, one entry and one charge serve both,
    # whichever is asked for first.
    half = grid.operator(0.5)
    assert grid.operator(2.0) is half
    info = cache.shared.info()
    assert (info.entries, info.nbytes, info.misses, info.hits) == (1, grid.charge, 1, 1)
    x = grid.signal(4)
    grid.assembled(x, 2.0)
    grid.assembled(x, 0.5)
    assert cache.shared.info().misses == 1


def test_bytes_held_stay_within_budget_over_many_new_factors(budget, grid):
    budget(5 * grid.charge)
    x = grid.signal()
    for k in range(40):
        grid.assembled(x, 1.0 + 0.05 * k)
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
    assert not any(m.flags.writeable for m in a.blocks)
    grid.assembled(grid.signal(), 2.5)  # a hit through the public call, after K factored
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
    before = grid.assembled(x, 0.7)
    grid.assembled(x, 1.3)  # evicts 0.7
    after = scale_signal(x, grid.spec(0.7))  # rebuilds it, evicting 1.3
    assert cache.shared.info().evictions == 2
    assert after.tobytes() == before.tobytes()


def test_scale_signal_results_do_not_depend_on_the_budget(budget, grid):
    # One request sequence, crossing K on some factors and not on others,
    # under a budget that evicts on almost every assembly and under one
    # that never evicts: the same bytes, call for call.
    k = grid.k
    factors = [0.6] * (k + 3) + [1.3] * (k + 2) + [2.2] * (k + 1) + [3.1] * k
    factors = np.random.default_rng(5).permutation(factors).tolist()
    x = grid.signal(3)
    runs, evictions = [], []
    for nbytes in (grid.charge, 100 * grid.charge):
        cache.shared.clear()
        scaling._requests.clear()
        budget(nbytes)
        runs.append([scale_signal(x, grid.spec(m)).tobytes() for m in factors])
        evictions.append(cache.shared.info().evictions)
    assert runs[0] == runs[1]
    assert evictions[0] >= 2 and evictions[1] == 0


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


def _on_eight_threads(call) -> list:
    """``call()`` on eight threads released together; their results or exceptions."""
    barrier, results = threading.Barrier(8), [None] * 8

    def run(i):
        barrier.wait()
        try:
            results[i] = call()
        except Exception as exc:  # returned for the test to inspect
            results[i] = exc

    threads = [threading.Thread(target=run, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads), "a thread is stuck"
    return results


def test_threads_missing_one_key_make_one_build():
    lru = cache.ByteBoundedLRU()
    builds = []

    @lru.memoize(nbytes=lambda value: value.nbytes)
    def build(k):
        builds.append(k)
        time.sleep(0.05)  # the other threads miss the key while it is built
        return np.full(4, float(k))

    results = _on_eight_threads(lambda: build(7))
    assert builds == [7]
    assert all(r is results[0] for r in results)
    assert lru.info() == cache.CacheInfo(hits=7, misses=1, evictions=0, entries=1, nbytes=32)


def test_a_build_that_raises_leaves_its_waiters_to_build_again():
    lru = cache.ByteBoundedLRU()
    builds = []

    @lru.memoize(nbytes=lambda value: value.nbytes)
    def build(k):
        builds.append(k)
        time.sleep(0.05)
        if len(builds) == 1:
            raise RuntimeError("first build")
        return np.full(4, float(k))

    results = _on_eight_threads(lambda: build(3))
    failed = [r for r in results if isinstance(r, RuntimeError)]
    built = [r for r in results if not isinstance(r, Exception)]
    assert len(failed) == 1 and len(built) == 7 and builds == [3, 3]
    assert all(r is built[0] for r in built)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_child_forked_during_a_build_builds_the_key_again():
    # A thread of the parent is inside the build of key 5 when the parent
    # forks.  The child has no such thread: it must build the key itself,
    # not wait for a build that no thread of it will finish.
    lru = cache.ByteBoundedLRU()
    entered, release = threading.Event(), threading.Event()

    @lru.memoize(nbytes=lambda value: value.nbytes)
    def build(k):
        if threading.current_thread() is not threading.main_thread():
            entered.set()
            release.wait(30)
        return np.full(4, float(k))

    held = threading.Thread(target=build, args=(5,))
    held.start()
    try:
        assert entered.wait(30)
        code = forked_exit_code(lambda: build(5)[0] == 5.0 and lru.info().entries == 1)
    finally:
        release.set()
        held.join(timeout=30)
    assert code == 0
    assert lru.info() == cache.CacheInfo(hits=0, misses=1, evictions=0, entries=1, nbytes=32)


def _decomposition_state(eig) -> tuple:
    """What a decomposition holds and reports, in bytes and plain values."""
    blocks = [(b.eigenvalues.tobytes(), b.basis.tobytes(), dict(b.residuals),
               b.factored_certified, b.unitarity_bound) for b in eig.blocks]
    return blocks, eig.reversal_residual, eig.factored_certified


def test_grid_values_stay_within_budget_and_come_back_bit_identical(budget):
    # F, D^2, operator sets and decompositions of many distinct grids share
    # cache.grids.  After every request the bytes held are within the
    # budget, or one entry is held alone over it: never more than the
    # budget plus the newest entry.
    cache.grids.clear()
    budget(64 * 1024)
    first = 20
    kept = {}
    for scheme in IndexScheme:
        ops, f = operator_set(first, scheme), dft_matrix(first, scheme)
        kept[scheme] = (ops, ops.generator_eig, _decomposition_state(ops.generator_eig),
                        ops.u_diagonal.tobytes(), ops.d_column.tobytes(), f, f.tobytes())
    d2 = pei._d_squared(first)
    d2_kept = (d2[0].tobytes(), d2[1])
    for n in range(first, first + 24):
        for scheme in IndexScheme:
            for request in (lambda: scale_signal(np.ones(n), ScalingSpec(2.0, n, scheme)),
                            lambda: dft_matrix(n, scheme),
                            lambda: cddhf_basis(n, 1.0)):
                request()
                info = cache.grids.info()
                assert info.nbytes <= cache.BUDGET_BYTES or info.entries == 1
    assert cache.grids.info().evictions > 0
    for scheme, (ops, eig, state, u, col, f, f_bytes) in kept.items():
        again = operator_set(first, scheme)
        assert again is not ops
        assert (again.u_diagonal.tobytes(), again.d_column.tobytes()) == (u, col)
        assert ops.generator_eig is not eig
        assert _decomposition_state(ops.generator_eig) == state
        assert _decomposition_state(again.generator_eig) == state
        assert dft_matrix(first, scheme) is not f
        assert dft_matrix(first, scheme).tobytes() == f_bytes
    d2_again = pei._d_squared(first)
    assert d2_again is not d2 and (d2_again[0].tobytes(), d2_again[1]) == d2_kept
    cache.grids.clear()


def test_a_hand_built_sets_decomposition_is_freed_when_the_cache_drops_it():
    # No reference cycle holds a decomposition: with the cycle collector
    # off, it is freed as soon as cache.grids lets it go.
    ops = operator_set(64, IndexScheme.ORDINARY)
    hand = OperatorSet(ops.grid, ops.u_diagonal, ops.d_column)
    gc.disable()
    try:
        eig = weakref.ref(hand.generator_eig)
        assert eig() is hand.generator_eig
        cache.grids.clear()
        assert eig() is None
    finally:
        gc.enable()


def test_eight_threads_asking_for_one_new_basis_make_one_build(budget, monkeypatch):
    # With both caches emptied, F, D^2, the M = 1 basis and the M = 1.2345
    # basis are each built once, by whichever thread comes first.
    cache.grids.clear()
    d_squared, u_squared, sizes = pei.pei_d_squared, pei.pei_u_squared, []

    def d_counting(n):
        sizes.append(("D^2", n))
        return d_squared(n)

    monkeypatch.setattr(pei, "pei_d_squared", d_counting)

    def u_counting(n):
        sizes.append(("U^2", n))
        return u_squared(n)

    monkeypatch.setattr(pei, "pei_u_squared", u_counting)
    results = _on_eight_threads(lambda: cddhf_basis(47, 1.2345))
    assert sizes == [("D^2", 47), ("U^2", 47), ("U^2", 47)]
    assert all(r is results[0] for r in results)
    assert cache.grids.info().misses == 2  # D^2 and the F it is built from
