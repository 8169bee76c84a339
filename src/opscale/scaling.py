"""The unitary discrete scaling matrix and its application to signals.

Scaling a continuous signal, ``f(u) -> M**-0.5 * f(u/M)``, is a unitary
operation, and it can be written as the exponential of a Hermitian
combination of the coordinate-multiplication and differentiation
operators.  Carrying that hyperdifferential form onto the grid verbatim,
with the DFT-consistent matrices of :mod:`opscale.operators`, gives the
discrete scaling matrix

    M_M = exp(-2j*pi*ln(M) * (U D + D U)/2).

Because the generator is Hermitian, the exponential is computed
spectrally (eigendecompose once, exponentiate the eigenvalues), which
makes M_M unitary by construction up to eigenvector orthonormality —
the structural property that distinguishes this scaling method from
interpolation-based resampling.  Every assembly goes through
:func:`opscale.linalg.unitary_from_eig` and is unitary to 1e-10: each
decomposed block carries a bound on the unitarity residual of anything
assembled from it, derived once from its eigenvectors' certified
orthonormality, and only a block whose bound is not below 1e-10 is
re-checked with a dense product (dense blocks from about N = 600,
parity blocks from about N = 1200).  On symmetric grids (centered with
even N, ordinary with odd N) the generator commutes with index
reversal, its decomposition comes as two half-size reversal-even and
reversal-odd blocks (see :mod:`opscale.operators`), and so does the
scaling operator, which is assembled, certified and kept block by
block, as a :class:`~opscale.linalg.ParityUnitary`, or applied block by
block in factored form.

``ln(M)`` is the natural logarithm.  Only ``M > 0`` is accepted: the
amplitude factor ``|M|**-0.5`` hints that reflected (negative-M) scaling
could be defined, but nothing in this construction pins down its
semantics, so rejecting it is safer than inventing them.

The generator's decomposition ``G = V diag(lam) V^H`` is computed once
per grid and kept with its :class:`~opscale.operators.OperatorSet`; a
factor M is then only the phases ``p = exp(-i theta lam)``, ``theta =
2 pi ln M``.  :func:`scale_signal` has two paths to ``M_M x``:

* **factored**, ``V (p * (V^H x))`` by
  :func:`~opscale.linalg.apply_from_eig`: two O(k^2) products per block
  of size k, nothing assembled, nothing cached;
* **assembled**, the operator ``V diag(p) V^H``, one O(k^3) product per
  block (plus a second for the check where the block's bound leaves it
  uncertified), kept read-only in the byte-bounded LRU cache
  :data:`opscale.cache.shared` and applied with one O(k^2) product.

Assembling costs about k^3 complex multiply-adds, and each factored
apply about k^2 more than an assembled one, so in flops a factor pays
for its assembly after about k requests.  In time it pays sooner: the
assembly is a matrix-matrix product, several times faster per flop than
the matrix-vector products of a factored apply, which read V twice.
Measured (1 BLAS thread), a factor pays for its assembly after 6-7
requests at N = 128 centered (k = 64), 22-25 at 128 ordinary (k = 128),
69-70 at 512 centered (k = 256), 157-176 at 512 ordinary (k = 512) and
242-249 at 1024 centered (k = 512): 0.10 k to 0.49 k.  The rule is the
ski-rental one (Karlin, Manasse, Rudolph & Sleator, *Algorithmica* 3,
1988): the first K = ceil(k/4) requests of an ``(M, N, scheme)``, k the
grid's largest block (ceil(N/2) on symmetric grids, N on the others),
take the factored path, and every later request the assembled one.
Against the cheaper of the two paths in hindsight, that costs at most
about 3.5 times as much on every grid measured (1 + K/B or 1 + B/K for
a break-even B), where K = k would cost up to 11 times.  A process that
streams new factors never assembles, and one that repeats a few factors
assembles each of them once.  The factored path runs only where the
decomposition's ``factored_bound`` certifies it (blocks up to k of about
590: asymmetric grids to about N = 590, symmetric ones to about N =
1180); elsewhere K = 0, and every request is assembled.  The request
counts live in a table of at most 1024 keys, guarded by a lock; the
least recently requested key is forgotten first, and a forgotten key
starts again at request one.

Determinism: which path a call takes depends only on the sequence of
requests, never on the cache's budget or its evictions, and each path's
result is a function of ``(M, N, scheme, x)``.  The two paths agree to
rounding (about 1e-15 relative), not bit for bit.  The cache holds the
two blocks on symmetric grids (8 N^2 bytes for even N), the dense matrix
elsewhere (16 N^2 bytes), keyed on ``(M, N, scheme value)``.  An evicted
operator is assembled again through
:func:`~opscale.linalg.unitary_from_eig`, certified or checked as
before, and comes back bit-identical.  The cache's and the table's locks
guard only their bookkeeping, so concurrent callers are safe.  The
benchmark harness (:func:`opscale.bench.scale_with`) uses each operator
once per test function: it takes the factored path wherever it is
certified, outside the table, so a sweep's table depends only on its
arguments.

:func:`scaling_matrix` returns the cached array itself on asymmetric
grids.  On symmetric grids it scatters the blocks into a new read-only
N x N array on every call, bit-identical from call to call; callers
that only apply the matrix should call :func:`scale_signal`.

``ScalingSpec`` checks M and N, and :func:`scale_signal` the signal,
with the helpers of :mod:`opscale.dft`: a NaN or infinite sample raises
``ValueError`` instead of turning the whole output into NaN.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .cache import shared
from .dft import IndexScheme, as_sample_count, as_scaling_factor, as_signal
from .linalg import ParityUnitary, apply_from_eig, unitary_from_eig
from .operators import operator_set

__all__ = ["ScalingSpec", "scaling_matrix", "scale_signal"]

#: Keys the request table of :func:`scale_signal` remembers; past this
#: many, the least recently requested is forgotten.
_REQUEST_KEYS = 1024


@dataclass(frozen=True)
class ScalingSpec:
    """Parameters of one scaling operation: factor M on an (N, scheme) grid."""

    m_factor: float
    n_samples: int
    scheme: IndexScheme

    def __post_init__(self):
        object.__setattr__(self, "m_factor", as_scaling_factor(self.m_factor))
        object.__setattr__(self, "n_samples", as_sample_count(self.n_samples))
        object.__setattr__(self, "scheme", IndexScheme(self.scheme))
        # The key of the request table and the cache, in plain values.
        object.__setattr__(self, "_key", (self.m_factor, self.n_samples, self.scheme.value))


def _theta(m_factor: float) -> float:
    return 2.0 * np.pi * math.log(m_factor)


@shared.memoize(nbytes=lambda operator: operator.nbytes)
def _scaling_operator(
    m_factor: float, n_samples: int, scheme: str
) -> np.ndarray | ParityUnitary:
    # Keyed on the scheme's value: a str hashes in C, an Enum member in Python.
    return unitary_from_eig(operator_set(n_samples, scheme).generator_eig, _theta(m_factor))


def scaling_matrix(spec: ScalingSpec) -> np.ndarray:
    """Unitary discrete scaling matrix for ``spec``.

    Returns
    -------
    numpy.ndarray
        N x N complex128, C-contiguous, read-only unitary matrix
        (``max|M^H M - I| < 1e-10``, certified or checked per block; the
        measured residual is far smaller).  On asymmetric grids it is the
        cached array, shared with every caller of the same ``(M, N,
        scheme)`` while it stays in the cache; on symmetric grids it is a
        new array scattered from the cached parity blocks.
    """
    operator = _scaling_operator(*spec._key)
    return operator.dense() if isinstance(operator, ParityUnitary) else operator


_requests = OrderedDict()  # (M, N, scheme value) -> factored requests left
_requests_lock = threading.Lock()


def _factored_request(key: tuple) -> bool:
    """Counts one request of ``key``: True while it is among the key's first K."""
    limit = None
    while True:
        with _requests_lock:
            left = _requests.get(key) if limit is None else _requests.setdefault(key, limit)
            if left is not None:
                _requests.move_to_end(key)
                if left:
                    _requests[key] = left - 1
                if len(_requests) > _REQUEST_KEYS:
                    _requests.popitem(last=False)
                return left > 0
        # A new key: K = ceil(k/4) comes from the grid's decomposition,
        # which may have to be built, so it is looked up outside the lock.
        eig = operator_set(key[1], key[2]).generator_eig
        limit = math.ceil(eig.block_size / 4) if eig.factored_certified else 0


def _apply(vec: np.ndarray, key: tuple, factored: bool) -> np.ndarray:
    m_factor, n_samples, scheme = key
    if factored:
        eig = operator_set(n_samples, scheme).generator_eig
        return apply_from_eig(eig, _theta(m_factor), vec)
    return _scaling_operator(m_factor, n_samples, scheme).dot(vec)


def scale_signal(signal, spec: ScalingSpec) -> np.ndarray:
    """Apply the discrete scaling matrix to a signal vector.

    The first K requests of a ``(M, N, scheme)`` apply the operator in
    factored form, later ones the cached assembled operator (module
    docstring); either way the result equals ``scaling_matrix(spec) @
    signal`` up to rounding, and the output norm equals the input norm to
    within 1e-8 relative (unitarity).

    Raises
    ------
    ValueError
        If ``len(signal) != spec.n_samples`` or the signal has a NaN or
        infinite sample.
    """
    vec = as_signal(signal, spec.n_samples)
    return _apply(vec, spec._key, _factored_request(spec._key))


def _scale_once(signal, spec: ScalingSpec) -> np.ndarray:
    """:func:`scale_signal` for an operator used once, outside the request table.

    The factored form wherever it is certified, else the cached assembled
    operator, so the result depends only on the arguments.
    """
    vec = as_signal(signal, spec.n_samples)
    eig = operator_set(spec.n_samples, spec.scheme).generator_eig
    return _apply(vec, spec._key, eig.factored_certified)
