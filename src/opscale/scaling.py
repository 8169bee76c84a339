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
assembled from it, derived once from its eigenvectors' measured
orthonormality, and only a block whose bound is not below 1e-10 is
re-checked with a dense product (dense blocks from about N = 640,
parity blocks from about N = 1280).  On symmetric grids (centered with
even N, ordinary with odd N) the generator commutes with index
reversal, its decomposition comes as two half-size reversal-even and
reversal-odd blocks (see :mod:`opscale.operators`), and so does the
scaling operator, which is assembled, certified and kept block by
block, as a :class:`~opscale.linalg.ParityUnitary`;
:func:`scale_signal` applies the blocks directly, reading half the
bytes of the dense matrix.

``ln(M)`` is the natural logarithm.  Only ``M > 0`` is accepted: the
amplitude factor ``|M|**-0.5`` hints that reflected (negative-M) scaling
could be defined, but nothing in this construction pins down its
semantics, so rejecting it is safer than inventing them.

The generator's decomposition is computed once per grid and kept with
its :class:`~opscale.operators.OperatorSet`; each factor M then costs
one O(N^3) product per block, the assembly, plus a second one for the
check where the block's bound leaves it uncertified.  Assembled
operators are kept, read-only, in the byte-bounded LRU cache
:data:`opscale.cache.shared`, keyed on ``(M, N, scheme)``: the two
blocks on symmetric grids (8 N^2 bytes for even N), the dense matrix
elsewhere (16 N^2 bytes).  Benchmark sweeps revisit the same operator
many times, while a process that sees a stream of new factors keeps
only the most recently used ones.  An
evicted operator is assembled again through
:func:`~opscale.linalg.unitary_from_eig`, certified or checked as
before, and comes back bit-identical.  The cache's lock guards only its
bookkeeping, so concurrent callers are safe.

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
from dataclasses import dataclass

import numpy as np

from .cache import shared
from .dft import IndexScheme, as_sample_count, as_scaling_factor, as_signal
from .linalg import ParityUnitary, unitary_from_eig
from .operators import operator_set

__all__ = ["ScalingSpec", "scaling_matrix", "scale_signal"]

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


@shared.memoize(nbytes=lambda operator: operator.nbytes)
def _scaling_operator(
    m_factor: float, n_samples: int, scheme: IndexScheme
) -> np.ndarray | ParityUnitary:
    ops = operator_set(n_samples, scheme)
    theta = 2.0 * np.pi * math.log(m_factor)
    return unitary_from_eig(ops.generator_eig, theta)


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
    operator = _scaling_operator(spec.m_factor, spec.n_samples, spec.scheme)
    return operator.dense() if isinstance(operator, ParityUnitary) else operator


def scale_signal(signal, spec: ScalingSpec) -> np.ndarray:
    """Apply the discrete scaling matrix to a signal vector.

    The signal is written as a column vector and multiplied by the cached
    scaling operator, blockwise on symmetric grids; the result equals
    ``scaling_matrix(spec) @ signal`` up to rounding, and the output norm
    equals the input norm to within 1e-8 relative (unitarity).

    Raises
    ------
    ValueError
        If ``len(signal) != spec.n_samples`` or the signal has a NaN or
        infinite sample.
    """
    vec = as_signal(signal, spec.n_samples)
    return _scaling_operator(spec.m_factor, spec.n_samples, spec.scheme) @ vec
