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
re-checked with a dense product (whole-grid blocks from about N = 450,
parity blocks from N = 1288).  Every grid's decomposition, and so its
operator, is a fold and a tuple of blocks (:mod:`opscale.linalg`): one
block on the whole grid, or, on symmetric grids (centered with even N,
ordinary with odd N), where the generator commutes with index reversal
and is purely imaginary, two half-size real orthogonal blocks on the
reversal-parity basis (see :mod:`opscale.operators`).  An operator is
kept as a :class:`~opscale.linalg.GridUnitary`, and it is assembled,
applied and adjoined block by block.

``ln(M)`` is the natural logarithm.  Only ``M > 0`` is accepted: the
amplitude factor ``|M|**-0.5`` hints that reflected (negative-M) scaling
could be defined, but nothing in this construction pins down its
semantics, so rejecting it is safer than inventing them.

The generator's decomposition ``G = V diag(lam) V^H`` is computed once
per grid and kept in the byte-bounded cache :data:`opscale.cache.grids`,
keyed on the grid's :class:`~opscale.operators.OperatorSet`, as its real
Q rather than V (:mod:`opscale.linalg`); an evicted one is built again.
A factor M is then only the phases ``p = exp(-i theta lam)``, ``theta =
2 pi ln M``.  The operators form a one-parameter unitary group, so
``M_{1/M} = M_M^{-1} = M_M^H``: a ``ScalingSpec`` is keyed on ``(|theta|,
N, scheme value)``, only ``theta >= 0`` is ever assembled, and a factor
``M < 1`` is served as the adjoint of the operator of ``1/M``, cached
once for both.  Two factors share a key exactly when their thetas are
opposite bit for bit, as for every pair of reciprocal powers of two
(``math.log(0.5) == -math.log(2.0)``).  :func:`scale_signal` has two
paths to ``M_M x``:

* **factored**, ``Z (Q (p * (Q^T (Z^H x))))`` by
  :func:`~opscale.linalg.apply_from_eig` at the signed theta: two O(k^2)
  products per block of size k, nothing assembled, nothing cached; on
  symmetric grids ``Q (K (Q^T x))`` per parity block, K the rotation of
  Q's paired columns, with no transform;
* **assembled**, the operator at ``|theta|``, ``Z W Z^H`` with ``W = Q P
  Q^T`` (``(Q K) Q^T`` per parity block), O(k^3) per block (plus a
  product for the check where the block's bound leaves it uncertified),
  kept read-only in the byte-bounded LRU cache :data:`opscale.cache.shared`
  and applied with one O(k^2) product: ``M x``, or for ``theta < 0`` ``M^H
  x = conj(conj(x) M)`` or the transposed views of the two parity blocks,
  with no copy of ``M^H`` (the same cost within timing noise, 1 BLAS
  thread on a shared 2-core Xeon: 0.66-0.71 against 0.70-0.85 ms at N =
  1024 ordinary, 0.20-0.23 against 0.19 ms at 1024 centered).  Above 2
  MiB of blocks, on two CPUs with BLAS pinned to one thread, the product
  is shared with :mod:`opscale.linalg`'s helper thread, bit for bit: 0.40 ms at N = 1024
  ordinary, 0.12-0.15 ms at 1024 centered.

Assembling costs about k^3 multiply-adds, and each factored apply about
k^2 more than an assembled one, so in flops a factor pays for its
assembly after about k requests.  In time it pays sooner: the assembly
is a matrix-matrix product, several times faster per flop than the
matrix-vector products of a factored apply.  The decomposition keeps Q
real (:mod:`opscale.linalg`), so a factored apply reads half the bytes
a complex V would take; on the asymmetric grids it adds two transforms
of the whole vector, an FFT and a few pointwise products each, about 20
microseconds at N = 512 whatever the block size.  A parity block is
assembled as one real product, a whole grid's block as two real
products of its size with the transforms of its rows and columns.
Measured (1 BLAS thread, four consecutive runs of demo 07 on a shared
2-core Xeon, each the median of 21 rounds, given as the range of the
four medians; an assembled apply above 2 MiB of blocks shared with the
helper thread), a factor pays for its assembly after 14-17 requests at
N = 128 ordinary (k = 128), 197-311 at 512 ordinary (k = 512), 288-471
at 596 ordinary and 305-594 at 630 ordinary, where the factored apply,
290-490 microseconds, takes 1.3-2.4 times the dense complex one and the
assembly runs the dense check; on symmetric grids, whose assembled
blocks are real, after 4-5 requests at N = 128 centered (k = 64), 32-34
at 512 centered (k = 256), 38-51 at 596 centered (k = 298) and 46-53 at
1024 centered (k = 512).  At N = 128 a factored apply takes 28-75
microseconds against 6-22 for the assembled one.  The rule is the
ski-rental one (Karlin, Manasse, Rudolph & Sleator, *Algorithmica* 3,
1988): the first K = ceil(k/4) requests of a key, k the grid's largest
block (ceil(N/2) on symmetric grids, N on the others), take the factored
path, and every later request the assembled one.  M and 1/M count
against one key, so one assembly serves the requests of both.  Against
the cheaper of the two paths in hindsight, that costs at most 1 + K/B or
1 + B/K times as much for a break-even B: about 2.9-3.3 at N = 128
ordinary, 2.5-3.4 at 512 ordinary, 2.9-4.2 at 596 ordinary, 2.9-4.8 at
630 ordinary, 2.9-3.0 at 512 centered, 2.5-3.0 at 596 centered, 3.4-3.8
at 1024 centered and 4.2-5.0 at 128 centered, where one real assembly
costs four or five factored requests.  A process that streams new factors never
assembles, and one that repeats a few factors assembles each of them,
or each reciprocal pair, once.  The factored path runs only where the
decomposition certifies it (``factored_certified``: asymmetric grids up
to N = 629, and with one BLAS thread to 630 and 632, symmetric ones to
N = 1258); elsewhere K = 0, and every request is assembled.
The request counts live in a table of at most 1024 keys, guarded by a
lock; the least recently requested key is forgotten first, and a
forgotten key starts again at request one.

Determinism: which path a call takes depends only on the sequence of
requests, never on the cache's budget or its evictions, and each path's
result is a function of ``(M, N, scheme, x)``: a negative theta is
never assembled itself, so the adjoint served for ``M < 1`` is the same
whichever of M and 1/M came first.  The two paths agree to rounding
(1e-15 to 3e-14 relative, demo 07), not bit for bit.  The cache holds
the two real blocks on symmetric grids (4 N^2 bytes for even N), the
dense complex matrix elsewhere (16 N^2 bytes).  An evicted operator is
assembled again through :func:`~opscale.linalg.unitary_from_eig`,
certified or checked as before, and comes back bit-identical.  The
cache's and the table's locks guard only their bookkeeping, so
concurrent callers are safe.  The benchmark harness
(:func:`opscale.bench.scale_with`) uses each operator once per test
function: it takes the factored path wherever it is certified, outside
the table, so a sweep's table depends only on its arguments.

:func:`scaling_matrix` is the cached operator's ``dense()``, or for ``M
< 1`` its ``dense(adjoint=True)``: for ``M >= 1`` on an asymmetric grid
the kept array itself, else a new read-only N x N array, bit-identical
from call to call; callers that only apply it should call
:func:`scale_signal`.

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
from .linalg import GridDecomposition, GridUnitary, apply_from_eig, unitary_from_eig
from .operators import _operator_set

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
        theta = 2.0 * np.pi * math.log(self.m_factor)
        object.__setattr__(self, "_theta", theta)
        # The key of the request table and the cache, in plain values: M and
        # 1/M share it (module docstring).
        object.__setattr__(self, "_key", (abs(theta), self.n_samples, self.scheme.value))


@shared.memoize(nbytes=lambda operator: operator.nbytes)
def _scaling_operator(theta: float, n_samples: int, scheme: str) -> GridUnitary:
    # Keyed on the scheme's value: a str hashes in C, an Enum member in Python.
    return unitary_from_eig(_operator_set(n_samples, scheme).generator_eig, theta)


def scaling_matrix(spec: ScalingSpec) -> np.ndarray:
    """Unitary discrete scaling matrix for ``spec``.

    Returns
    -------
    numpy.ndarray
        N x N complex128, C-contiguous, read-only unitary matrix
        (``max|M^H M - I| < 1e-10``, certified or checked per block; the
        measured residual is far smaller).  For ``M >= 1`` on an asymmetric
        grid it is the cached array, shared with every caller of the same
        ``(M, N, scheme)`` while it stays in the cache; for ``M < 1`` it is
        a new array, the conjugate transpose of the cached operator of
        ``1/M``; on symmetric grids it is a new array scattered from the
        cached parity blocks, or from their transposes for ``M < 1``.
    """
    return _scaling_operator(*spec._key).dense(adjoint=spec._theta < 0)


_requests = OrderedDict()  # (|theta|, N, scheme value) -> factored requests left
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
        eig = _operator_set(*key[1:]).generator_eig
        limit = math.ceil(eig.block_size / 4) if eig.factored_certified else 0


def _apply(vec: np.ndarray, spec: ScalingSpec, factored: bool,
           eig: GridDecomposition | None = None) -> np.ndarray:
    # spec's N and scheme are validated: the grid's memo is looked up directly.
    if not factored:
        return _scaling_operator(*spec._key).dot(vec, adjoint=spec._theta < 0)
    if eig is None:
        eig = _operator_set(*spec._key[1:]).generator_eig
    return apply_from_eig(eig, spec._theta, vec)


def scale_signal(signal, spec: ScalingSpec) -> np.ndarray:
    """Apply the discrete scaling matrix to a signal vector.

    The first K requests of a ``(|ln M|, N, scheme)`` apply the operator
    in factored form, later ones the cached assembled operator (module
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
    return _apply(vec, spec, _factored_request(spec._key))


def _scale_once(signal, spec: ScalingSpec) -> np.ndarray:
    """:func:`scale_signal` for an operator used once, outside the request table.

    The factored form wherever it is certified, else the cached assembled
    operator, so the result depends only on the arguments.
    """
    vec = as_signal(signal, spec.n_samples)
    eig = _operator_set(*spec._key[1:]).generator_eig
    return _apply(vec, spec, eig.factored_certified, eig)
