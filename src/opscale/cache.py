"""One least-recently-used cache, bounded by bytes, for results keyed on M.

The paper's construction yields one unitary scaling operator per factor
M, kept once for M and 1/M (:mod:`opscale.scaling`), and the CDDHF
comparison method one eigenbasis per ``(N, M)``.  A
process that sees a stream of new factors would keep every one of them
resident under an unbounded cache.  :data:`shared` holds both kinds
instead: each entry is charged the bytes of its arrays, and once the
total passes :data:`BUDGET_BYTES` the least recently used entries are
dropped.  The newest entry is always kept, even when it alone is over
the budget, so repeated calls at a very large N are still served from
the cache.

A scaling operator is the dense complex N x N matrix (16 N^2 bytes, 4
MiB at N = 512) or, on a symmetric grid, its two real parity blocks (4
N^2 bytes for even N, 1 MiB at N = 512); a CDDHF basis is its real
vectors plus its eigenvalues (8 N^2 + 8 N bytes).  A scaling operator is cached only
once it repeats: :func:`opscale.scaling.scale_signal` applies a factor's
first K requests (a quarter of the grid's largest block) in factored form,
without assembling it, and a benchmark sweep never assembles a certified
one, so a factor used once is never built or cached.  The factored path
is certified on whole grids up to N = 629 (to 632 with one BLAS thread)
and on symmetric grids up to N = 1258; elsewhere every request
assembles and caches.

An evicted entry is rebuilt by the same function that built it, through
every check that function runs; the rebuild is bit-identical.

The caches keyed on the grid alone, ``dft._dft_matrix_cached``,
``operators.operator_set`` and ``pei._d_squared``, stay
:func:`functools.lru_cache`: they grow with the number of distinct
``(N, scheme)`` grids, not with M.  An operator set holds O(N) arrays
plus the generator's real eigenvectors Q (8 N^2 bytes, 4 N^2 on a
symmetric grid of even N).  The complex eigenvectors ``V = Z Q`` are
built only for a caller that asks for them, and not kept: no assembly
builds them.  The N x N F, built in place and kept with the unitarity
residual of its one-triangle check, and the real part of D^2 are built
only by the comparison methods and for callers that ask for them.  The
dense reference operators (``diff_matrix``, ``pei_d_squared``) and an operator
set's dense U, D and generator are functions of the grid, built on each
request from these caches and not kept.

A lock guards the bookkeeping, and builds run outside it, so a slow build
never holds up other callers.  Two threads that miss the same key at
once may both build it; the first result stored is kept and returned to
both.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from functools import wraps
from typing import Callable, NamedTuple

__all__ = ["BUDGET_BYTES", "CacheInfo", "ByteBoundedLRU", "shared"]

#: Bytes the shared cache may hold.  The 108-cell reference sweep's 12
#: CDDHF bases fit without eviction (its scaling operators are applied in
#: factored form, uncached), and so do four scaling operators at N = 1024
#: with four at N = 128, two of each on a symmetric grid (41 MiB).
BUDGET_BYTES = 128 * 2**20


class CacheInfo(NamedTuple):
    hits: int
    misses: int
    evictions: int
    entries: int
    nbytes: int


class ByteBoundedLRU:
    """Memoizes functions under one byte budget, evicting least recently used."""

    def __init__(self):
        self._lock = threading.Lock()
        self._entries = OrderedDict()  # key -> (value, nbytes), oldest first
        self._nbytes = 0
        self._hits = self._misses = self._evictions = 0

    def memoize(self, nbytes: Callable[[object], int]):
        """Decorator caching a function on its positional arguments.

        ``nbytes(value)`` is the charge of a built value against the budget.
        """
        def decorate(build):
            @wraps(build)
            def cached(*args):
                key = (build, *args)
                with self._lock:
                    entry = self._entries.get(key)
                    if entry is not None:
                        self._entries.move_to_end(key)
                        self._hits += 1
                        return entry[0]
                    self._misses += 1
                value = build(*args)
                return self._store(key, value, nbytes(value))
            return cached
        return decorate

    def _store(self, key, value, charge: int):
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:  # another thread stored it first
                self._entries.move_to_end(key)
                return entry[0]
            self._entries[key] = (value, charge)
            self._nbytes += charge
            while self._nbytes > BUDGET_BYTES and len(self._entries) > 1:
                _, (_, freed) = self._entries.popitem(last=False)
                self._nbytes -= freed
                self._evictions += 1
            return value

    def info(self) -> CacheInfo:
        with self._lock:
            return CacheInfo(
                self._hits, self._misses, self._evictions, len(self._entries), self._nbytes
            )

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._nbytes = 0
            self._hits = self._misses = self._evictions = 0


#: The one instance that :mod:`opscale.scaling` and :mod:`opscale.pei` share.
shared = ByteBoundedLRU()
