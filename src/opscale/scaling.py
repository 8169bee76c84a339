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
:func:`opscale.linalg.unitary_from_eig`, which checks unitarity to
1e-10.  On symmetric grids (centered with even N, ordinary with odd N)
the generator's decomposition comes as two half-size reversal-even and
reversal-odd blocks, and the matrix is assembled and checked block by
block before being scattered into one dense N x N array; see
:mod:`opscale.operators`.

``ln(M)`` is the natural logarithm.  Only ``M > 0`` is accepted: the
amplitude factor ``|M|**-0.5`` hints that reflected (negative-M) scaling
could be defined, but nothing in this construction pins down its
semantics, so rejecting it is safer than inventing them.

Scaling matrices are memoized per ``(M, N, scheme)`` within a process:
benchmark sweeps revisit the same matrix many times, and each assembly
is an O(N^3) product on top of the O(N^3) eigendecomposition it shares
with every other M on that grid.  The cache is the usual read-mostly
``lru_cache`` (safe for concurrent readers).

Signals must be finite: NaN or infinite samples are rejected with
``ValueError`` instead of turning the whole output into NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dft import IndexScheme
from .linalg import unitary_from_eig
from .operators import OperatorSet, operator_set

__all__ = ["ScalingSpec", "scaling_matrix", "scale_signal"]


@dataclass(frozen=True)
class ScalingSpec:
    """Parameters of one scaling operation: factor M on an (N, scheme) grid."""

    m_factor: float
    n_samples: int
    scheme: IndexScheme

    def __post_init__(self):
        try:
            m_factor = float(self.m_factor)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"m_factor must be a real number, got {self.m_factor!r}") from exc
        if not math.isfinite(m_factor) or m_factor <= 0:
            raise ValueError(f"m_factor must be positive and finite, got {self.m_factor!r}")
        if int(self.n_samples) < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")
        object.__setattr__(self, "m_factor", m_factor)
        object.__setattr__(self, "n_samples", int(self.n_samples))
        object.__setattr__(self, "scheme", IndexScheme(self.scheme))


@lru_cache(maxsize=None)
def _scaling_matrix_cached(m_factor: float, n_samples: int, scheme: IndexScheme) -> np.ndarray:
    ops = operator_set(n_samples, scheme)
    theta = 2.0 * np.pi * math.log(m_factor)
    out = unitary_from_eig(ops.generator_eig, theta)
    out.setflags(write=False)
    return out


def scaling_matrix(spec: ScalingSpec, ops: OperatorSet | None = None) -> np.ndarray:
    """Unitary discrete scaling matrix for ``spec``.

    Parameters
    ----------
    spec : ScalingSpec
        Scaling factor and grid.
    ops : OperatorSet, optional
        Operator set to draw the generator from; must match
        ``spec.n_samples`` and ``spec.scheme``.  Defaults to the shared
        memoized set for that grid.

    Returns
    -------
    numpy.ndarray
        N x N unitary matrix (``max|M^H M - I| < 1e-9``; the spectral
        construction typically achieves far better).  Cached per
        ``(M, N, scheme)`` and read-only when the default operator set is
        used.
    """
    if ops is None:
        ops = operator_set(spec.n_samples, spec.scheme)
    elif (ops.n_samples, ops.scheme) != (spec.n_samples, spec.scheme):
        raise ValueError(
            f"operator set (N={ops.n_samples}, {ops.scheme.value}) does not match "
            f"spec (N={spec.n_samples}, {spec.scheme.value})"
        )
    if ops is operator_set(spec.n_samples, spec.scheme):
        return _scaling_matrix_cached(spec.m_factor, spec.n_samples, spec.scheme)
    # Caller supplied a custom operator set: compute without touching the cache.
    theta = 2.0 * np.pi * math.log(spec.m_factor)
    return unitary_from_eig(ops.generator_eig, theta)


def scale_signal(signal, spec: ScalingSpec, ops: OperatorSet | None = None) -> np.ndarray:
    """Apply the discrete scaling matrix to a signal vector.

    The signal is written as a column vector and multiplied by
    ``scaling_matrix(spec)``; the output norm equals the input norm to
    within 1e-8 relative (unitarity).

    Raises
    ------
    ValueError
        If ``len(signal) != spec.n_samples`` or the signal has a NaN or
        infinite sample.
    """
    vec = np.asarray(signal, dtype=complex)
    if vec.ndim != 1:
        raise ValueError(f"signal must be one-dimensional, got shape {vec.shape}")
    if vec.shape[0] != spec.n_samples:
        raise ValueError(
            f"signal length {vec.shape[0]} does not match spec.n_samples {spec.n_samples}"
        )
    if not np.isfinite(vec).all():
        raise ValueError("signal contains non-finite samples")
    return scaling_matrix(spec, ops) @ vec
