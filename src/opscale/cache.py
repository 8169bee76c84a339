"""Two least-recently-used caches bounded by bytes: values keyed on M, and on the grid.

The paper's construction yields one unitary scaling operator per factor
M, kept once for M and 1/M (:mod:`opscale.scaling`), and the CDDHF
comparison method one eigenbasis per ``(N, M)``; both are built from
values of the grid alone.  A process that sees a stream of new factors or
grids would keep every one of them resident under an unbounded cache.
Instead every memoized value is charged the bytes of its arrays, and once
an instance's total passes :data:`BUDGET_BYTES` its least recently used
entries are dropped.  The newest entry is always kept, even when it alone
is over the budget, so repeated calls at a very large N are still served
from the cache.  :data:`shared` holds the values keyed on M and
:data:`grids` those keyed on the grid, so a stream of hot scaling
operators never pushes out the decomposition each new factor is built
from.

A scaling operator is the dense complex N x N matrix (16 N^2 bytes, 4
MiB at N = 512) or, on a symmetric grid, its two real parity blocks (4
N^2 bytes for even N, 1 MiB at N = 512); a CDDHF basis is its real
vectors plus its eigenvalues (8 N^2 + 8 N bytes).  A scaling operator is
cached only once it repeats: :func:`opscale.scaling.scale_signal`
applies a factor's first K requests (a quarter of the grid's largest
block) in factored form, without assembling it, and a benchmark sweep
never assembles a certified one, so a factor used once is never built or
cached.  The factored path is certified on whole grids up to N = 629 (to
632 with one BLAS thread) and on symmetric grids up to N = 1258;
elsewhere every request assembles and caches.

:data:`grids` holds F (``dft._dft_matrix_cached``, 16 N^2 bytes, checked
once when built), the real part of D^2 (``pei._d_squared``, 8 N^2
bytes), the operator sets (``operators._operator_set``, O(N) arrays) and
each set's decomposition (``operators._decomposition``, keyed on the
set, so a set built by hand decomposes its own arrays), charged for its
eigenvalues and real eigenvectors Q (8 N^2 bytes, 4 N^2 on a symmetric
grid of even N).  The complex eigenvectors ``V = Z Q`` are built only
for a caller that asks for them, and not kept: no assembly builds them.
F and D^2 are built only by the comparison methods and for callers that
ask for them.  The dense reference operators (``diff_matrix``,
``pei_d_squared``) and an operator set's dense U, D and generator are
built on each request from these caches and not kept.

An evicted entry is rebuilt by the same function that built it, through
every check that function runs; the rebuild is bit-identical.

This class is the package's one way to build a value once: every cached
value, the decompositions included, is built through it.  A lock guards
the bookkeeping, and builds run outside it, so a slow build never holds
up callers of other keys or of other instances.  Every hit and miss is
counted under the lock, so the counts :meth:`ByteBoundedLRU.info`
reports are exact, also when threads race.  A thread that misses a key
another thread is building waits for that build and returns its result,
counted as a hit, so no key is built twice at once (a cold sweep builds
on two threads, :func:`opscale.bench.run_bench`).  A build that raises
stores nothing: a waiter then builds the key itself, and so does the
next call.  A forked child has only the thread that forked, so an
``os.register_at_fork`` hook gives each instance a new lock and forgets
the builds in progress, which no thread of the child would finish; the
child builds those keys again.
"""

from __future__ import annotations

import os
import threading
import weakref
from collections import OrderedDict
from functools import wraps
from typing import Callable, NamedTuple

__all__ = ["BUDGET_BYTES", "CacheInfo", "ByteBoundedLRU", "shared", "grids"]

#: Bytes each instance may hold.  Nothing is evicted by the 108-cell CLI
#: sweep (bench --methods operator,cddhf,interp), which leaves 17.1 MiB in
#: grids and 10.5 MiB in shared (its 12 CDDHF bases; its scaling operators
#: are applied in factored form, uncached), nor by warm scale_signal calls
#: on four specs at N = 1024 and four at N = 128, half of each on a
#: symmetric grid, which leave 12.3 and 20.3 MiB.
BUDGET_BYTES = 128 * 2**20


class CacheInfo(NamedTuple):
    hits: int
    misses: int
    evictions: int
    entries: int
    nbytes: int


class _Build:
    """One build in progress: its waiters wake when it ends, with its value or without."""

    def __init__(self):
        self.done = threading.Event()
        self.built = False
        self.value = None


class ByteBoundedLRU:
    """Memoizes functions under one byte budget, evicting least recently used."""

    def __init__(self):
        self._lock = threading.Lock()
        self._entries = OrderedDict()  # key -> (value, nbytes), oldest first
        self._builds = {}  # key -> _Build, for keys being built
        self._nbytes = 0
        self._hits = self._misses = self._evictions = 0
        _instances.add(self)

    def memoize(self, nbytes: Callable[[object], int]):
        """Decorator caching a function on its positional arguments.

        ``nbytes(value)`` is the charge of a built value against the budget.
        """
        def decorate(build):
            @wraps(build)
            def cached(*args):
                return self._get((build, *args), build, args, nbytes)
            return cached
        return decorate

    def _get(self, key, build: Callable, args: tuple, nbytes) -> object:
        """The value of ``key``: an entry, another thread's build, or ``build(*args)``."""
        while True:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    self._hits += 1
                    return entry[0]
                running = self._builds.get(key)
                if running is None:
                    running = self._builds[key] = _Build()
                    self._misses += 1
                    break
            running.done.wait()
            if running.built:
                with self._lock:
                    self._hits += 1
                return running.value
            # That build raised: go round again, and build it here.
        try:
            value = build(*args)
            self._store(key, value, nbytes(value))
            running.value, running.built = value, True
            return value
        finally:
            with self._lock:
                del self._builds[key]
            running.done.set()

    def _store(self, key, value, charge: int) -> None:
        with self._lock:
            self._entries[key] = (value, charge)
            self._nbytes += charge
            while self._nbytes > BUDGET_BYTES and len(self._entries) > 1:
                _, (_, freed) = self._entries.popitem(last=False)
                self._nbytes -= freed
                self._evictions += 1

    def info(self) -> CacheInfo:
        with self._lock:
            return CacheInfo(
                self._hits, self._misses, self._evictions, len(self._entries), self._nbytes,
            )

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._nbytes = 0
            self._hits = self._misses = self._evictions = 0

    def _forget_builds(self) -> None:
        """In a forked child: a new lock, and no build in progress."""
        self._lock = threading.Lock()
        self._builds = {}


#: Every instance, for the fork hook.
_instances = weakref.WeakSet()


def _after_fork_in_child() -> None:
    for lru in list(_instances):
        lru._forget_builds()


if hasattr(os, "register_at_fork"):  # a platform without fork has no forked child
    os.register_at_fork(after_in_child=_after_fork_in_child)


#: The values keyed on M: scaling operators and CDDHF bases.
shared = ByteBoundedLRU()

#: The values keyed on the grid alone: F, D^2, operator sets and decompositions.
grids = ByteBoundedLRU()
