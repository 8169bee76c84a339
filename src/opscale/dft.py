"""Unitary DFT matrices and sampling grids for two index labelings.

An N-point signal can carry integer index labels (the "ordinary" scheme,
the familiar DFT lattice circulated so that 0 sits mid-array) or
unit-spaced half-integer labels symmetric about the origin (the
"centered" scheme, which places sample points at the middles of the N
sampling intervals instead of their left edges).  Both labelings share
the same physical sample spacing ``h = 1/sqrt(N)``, which fixes the grid
extent to ``[-sqrt(N)/2, sqrt(N)/2]`` — the square root split of a
time-bandwidth product of N.

The DFT matrix here is constructed directly from its defining formula
with the scheme's labels in the exponent,

    F[m, n] = exp(-2j*pi*m*n/N) / sqrt(N),

by O(N^2) evaluation.  No FFT factorization is attempted: half-integer
label products do not map onto a standard FFT.  Fractional powers of the
N-th root of unity are always evaluated in principal-value form
``exp(-2j*pi*m*n/N)`` rather than by repeated multiplication, eliminating
branch-cut ambiguity.

Construction is not free: the evaluation is O(N^2), but the unitarity
check below is a dense O(N^3) product, paid once per ``(N, scheme)``
and cached with the matrix.  The scaling construction does not need F:
:mod:`opscale.operators` builds the differentiation matrix from an FFT
of the coordinate diagonal, relying only on the labels being
unit-spaced, and returns this cached matrix as ``OperatorSet.f`` when it
is asked for.  F is built by the interpolation baseline in
:mod:`opscale.bench` and by the CDDHF comparison method in
:mod:`opscale.pei`, whose labels ``m - (N-1)/2`` are this module's
centered labels for even N and its ordinary labels for odd N.

For the centered scheme with odd N the half-integer index interval is
asymmetric; unitarity is not obviously inherited from the even case, so
``dft_matrix`` verifies it numerically for every constructed matrix and
raises rather than silently returning a defective transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .linalg import identity_residual

__all__ = ["IndexScheme", "SampleGrid", "index_grid", "dft_matrix"]


class IndexScheme(Enum):
    """Grid labeling convention: integer or half-integer index sets."""

    ORDINARY = "ordinary"
    CENTERED = "centered"


def _scheme_indices(n_samples: int, scheme: IndexScheme) -> np.ndarray:
    base = np.arange(n_samples, dtype=float)
    if scheme is IndexScheme.ORDINARY:
        # Integers: [-N/2, N/2-1] for even N, [-(N-1)/2, (N-1)/2] for odd N.
        offset = n_samples // 2
    elif scheme is IndexScheme.CENTERED:
        # Unit-spaced half integers: [-N/2+0.5, N/2-0.5] for even N,
        # [-(N-1)/2-0.5, (N-1)/2-0.5] for odd N.
        offset = n_samples / 2 - 0.5 if n_samples % 2 == 0 else (n_samples - 1) / 2 + 0.5
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unknown index scheme: {scheme!r}")
    return base - offset


@dataclass(frozen=True, eq=False)
class SampleGrid:
    """Index labels and physical sample coordinates for one scheme.

    Attributes
    ----------
    n_samples : int
        Number of points N.
    scheme : IndexScheme
        Labeling convention.
    indices : numpy.ndarray
        N unit-spaced, strictly increasing index labels.
    spacing : float
        Physical sample spacing ``h = 1/sqrt(N)``.
    coordinates : numpy.ndarray
        Physical coordinates ``u_k = indices[k] * h``, contained in
        ``[-sqrt(N)/2, sqrt(N)/2]``.
    """

    n_samples: int
    scheme: IndexScheme
    indices: np.ndarray
    spacing: float
    coordinates: np.ndarray


def index_grid(n_samples: int, scheme: IndexScheme) -> SampleGrid:
    """Build the :class:`SampleGrid` for ``n_samples`` points under ``scheme``.

    Raises
    ------
    ValueError
        If ``n_samples`` is not a positive integer.
    """
    n_samples = int(n_samples)
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    scheme = IndexScheme(scheme)
    indices = _scheme_indices(n_samples, scheme)
    spacing = 1.0 / math.sqrt(n_samples)
    coordinates = indices * spacing
    indices.setflags(write=False)
    coordinates.setflags(write=False)
    return SampleGrid(n_samples, scheme, indices, spacing, coordinates)


@lru_cache(maxsize=None)
def _dft_matrix_cached(n_samples: int, scheme: IndexScheme) -> np.ndarray:
    n = _scheme_indices(n_samples, scheme)
    f = np.exp((-2j * np.pi / n_samples) * np.outer(n, n)) / math.sqrt(n_samples)
    # Verify unitarity instead of assuming it; this is the load-bearing
    # property for everything downstream, and for odd-N centered grids it
    # is not a textbook fact.
    resid = identity_residual(f @ f.conj().T)
    if resid >= 1e-12 * n_samples:
        raise ArithmeticError(
            f"DFT matrix failed unitarity check: max|F F^H - I| = {resid:.3e} "
            f"(N={n_samples}, scheme={scheme.value})"
        )
    f.setflags(write=False)
    return f


def dft_matrix(n_samples: int, scheme: IndexScheme) -> np.ndarray:
    """Unitary N-point DFT matrix with rows/columns labeled by the scheme.

    Rows and columns are stored in ascending label order, so entry
    ``[i, j]`` corresponds to label pair ``(indices[i], indices[j])`` of
    ``index_grid(n_samples, scheme)``.

    The returned array is cached per ``(n_samples, scheme)`` and marked
    read-only; copy before mutating.
    """
    n_samples = int(n_samples)
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    return _dft_matrix_cached(n_samples, IndexScheme(scheme))
