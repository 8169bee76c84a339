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

by O(N^2) evaluation.  Fractional powers of the N-th root of unity are
always evaluated in principal-value form ``exp(-2j*pi*m*n/N)`` rather
than by repeated multiplication, eliminating branch-cut ambiguity.  The
dense matrix is evaluated only for the callers that need F itself, the
dense reference operators and the interpolation baseline.  Applying F
to vectors does not need it: half-integer labels split ``n_m n_k`` into
a constant, two label phases and the integer product ``m k``, so F is
one standard FFT between two phase multiplications, which is how
:mod:`opscale.operators` applies it (``_diff_column`` and ``_HalfDft``,
each phase reduced exactly with ``fmod``).

Construction is not free: the evaluation is O(N^2), but the unitarity
check below is a dense O(N^3) product, paid once per ``(N, scheme)`` and
cached with the matrix, together with the residual it measured.  F is
evaluated in its own array, with no N x N temporary (:func:`_exp_outer`,
which also builds :mod:`opscale.bench`'s synthesis matrices), and, as it
is exactly symmetric, the check forms only the upper triangle of ``F^H
F``, 48 rows at a time (:func:`opscale.linalg._unitarity_residual`):
half the flops of the whole product, and a cold build's traced peak is
about 1.2 times F's bytes.  It is the package's only product of F with
itself.  The scaling construction does not need F:
:mod:`opscale.operators` builds the differentiation matrix from an FFT
of the coordinate diagonal, relying only on the labels being
unit-spaced, and returns this cached matrix as ``OperatorSet.f`` when
it is asked for.  F is built by the interpolation baseline in
:mod:`opscale.bench` and for the two dense reference operators, each a
function of its grid alone: ``F^H U F``
(:func:`opscale.operators.diff_matrix`) and the CDDHF method's ``F U^2
F^H`` (:func:`opscale.pei.pei_d_squared`, whose labels ``m - (N-1)/2``
are this module's centered labels for even N and its ordinary labels for
odd N).  Both take F from :func:`_unitary_dft`, which holds the kept
residual to 1e-10 instead of measuring it again.

For the centered scheme with odd N the half-integer index interval is
asymmetric; unitarity is not obviously inherited from the even case, so
``dft_matrix`` verifies it numerically for every constructed matrix and
raises rather than silently returning a defective transform.

The package's input checks live here too: :func:`as_sample_count`,
:func:`as_scaling_factor` and :func:`as_signal` define a valid N, M and
signal for every entry point and the command line.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .cache import grids
from .linalg import _unitarity_residual

__all__ = ["IndexScheme", "SampleGrid", "index_grid", "dft_matrix"]


class IndexScheme(Enum):
    """Grid labeling convention: integer or half-integer index sets."""

    ORDINARY = "ordinary"
    CENTERED = "centered"


def as_sample_count(n_samples) -> int:
    """``n_samples`` as a positive Python int.

    Integers, numpy integers included, are accepted as they are; floats
    (even integral ones), ``bool`` and strings are rejected instead of
    being truncated.

    Raises
    ------
    ValueError
        If ``n_samples`` is not an integer, or is below 1.
    """
    if isinstance(n_samples, bool):
        raise ValueError(f"n_samples must be an integer, got {n_samples!r}")
    try:
        n = operator.index(n_samples)
    except TypeError as exc:
        raise ValueError(f"n_samples must be an integer, got {n_samples!r}") from exc
    if n < 1:
        raise ValueError(f"n_samples must be >= 1, got {n}")
    return n


def as_scaling_factor(m_factor) -> float:
    """``m_factor`` as a positive, finite Python float.

    Python and numpy real scalars are accepted.  ``bool``, strings,
    ``None``, complex numbers, NaN, infinities, values <= 0 and values
    too large for a float (a huge int or ``Fraction``) raise
    ``ValueError`` instead of being converted.
    """
    m = math.nan
    if isinstance(m_factor, numbers.Real) and not isinstance(m_factor, bool):
        try:
            m = float(m_factor)
        except OverflowError:
            m = math.inf
    if not 0.0 < m < math.inf:
        raise ValueError(f"m_factor must be positive and finite, got {m_factor!r}")
    return m


def as_signal(signal, n_samples: int | None = None) -> np.ndarray:
    """``signal`` as a 1-D complex array; a complex128 vector is not copied.

    ``ValueError`` if it is not one-dimensional, has a length other than
    ``n_samples`` (when given), or has a NaN or infinite sample.
    """
    vec = np.asarray(signal, dtype=complex)
    if vec.ndim != 1:
        raise ValueError(f"signal must be one-dimensional, got shape {vec.shape}")
    if n_samples is not None and vec.shape[0] != n_samples:
        raise ValueError(f"signal length {vec.shape[0]} does not match n_samples {n_samples}")
    # sum |x_k|^2 is finite unless a sample is NaN or infinite, or it overflows
    if not math.isfinite(np.vdot(vec, vec).real) and not np.isfinite(vec).all():
        raise ValueError("signal contains non-finite samples")
    return vec


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
        If ``n_samples`` is not a positive integer (see
        :func:`as_sample_count`).
    """
    n_samples = as_sample_count(n_samples)
    scheme = IndexScheme(scheme)
    indices = _scheme_indices(n_samples, scheme)
    spacing = 1.0 / math.sqrt(n_samples)
    coordinates = indices * spacing
    indices.setflags(write=False)
    coordinates.setflags(write=False)
    return SampleGrid(n_samples, scheme, indices, spacing, coordinates)


def _exp_outer(rows: np.ndarray, cols: np.ndarray, factor: complex, out=None) -> np.ndarray:
    """``exp(factor * outer(rows, cols)) / sqrt(len(cols))``, in one complex array.

    The ufuncs of that expression, in its order, each written into the
    result: bit-identical to it, without its two N x N temporaries.
    ``out``, when given, is the C-contiguous complex array that takes it.
    """
    if out is None:
        out = np.empty((len(rows), len(cols)), dtype=complex)
    np.outer(rows, cols, out=out.real)
    out.imag = 0.0
    np.multiply(factor, out, out=out)
    np.exp(out, out=out)
    np.true_divide(out, math.sqrt(len(cols)), out=out)
    return out


@grids.memoize(nbytes=lambda kept: kept[0].nbytes)
def _dft_matrix_cached(n_samples: int, scheme: IndexScheme) -> tuple[np.ndarray, float]:
    """F and the ``max|F^H F - I|`` it was checked with, kept for :func:`_unitary_dft`."""
    n = _scheme_indices(n_samples, scheme)
    f = _exp_outer(n, n, -2j * np.pi / n_samples)
    # Verify unitarity instead of assuming it; this is the load-bearing
    # property for everything downstream, and for odd-N centered grids it
    # is not a textbook fact.  F is exactly symmetric, as outer(n, n) is,
    # so F^H F is the conjugate of F F^H and one triangle of it suffices.
    resid = _unitarity_residual(f)
    if resid >= 1e-12 * n_samples:
        raise ArithmeticError(
            f"DFT matrix failed unitarity check: max|F^H F - I| = {resid:.3e} "
            f"(N={n_samples}, scheme={scheme.value})"
        )
    f.setflags(write=False)
    return f, resid


def dft_matrix(n_samples: int, scheme: IndexScheme) -> np.ndarray:
    """Unitary N-point DFT matrix with rows/columns labeled by the scheme.

    Rows and columns are stored in ascending label order, so entry
    ``[i, j]`` corresponds to label pair ``(indices[i], indices[j])`` of
    ``index_grid(n_samples, scheme)``.

    The returned array is cached per ``(n_samples, scheme)`` and marked
    read-only; copy before mutating.
    """
    return _dft_matrix_cached(as_sample_count(n_samples), IndexScheme(scheme))[0]


def _unitary_dft(n_samples: int, scheme: IndexScheme) -> np.ndarray:
    """The cached F, the ``max|F^H F - I|`` it was checked with held to 1e-10.

    The dense references built from F require 1e-10, tighter than the
    ``1e-12 * N`` of construction from N = 100 on.  Raises
    ``ArithmeticError`` beyond it.
    """
    f, resid = _dft_matrix_cached(n_samples, scheme)
    if not resid < 1e-10:
        raise ArithmeticError(
            f"dense reference requires a unitary F: max|F^H F - I| = {resid:.3e} "
            f"(N={n_samples}, scheme={scheme.value})"
        )
    return f
