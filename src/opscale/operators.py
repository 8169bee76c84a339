"""DFT-consistent coordinate and differentiation operators.

The coordinate-multiplication matrix built here is not the naive
``diag(u_k)``: multiplying samples by their raw coordinate values is the
continuum operation, and transplanting it verbatim onto a finite periodic
grid breaks the exact Fourier duality that the scaling construction
depends on.  Instead the diagonal is the sinc-corrected form

    U[n, n] = (sqrt(N)/pi) * sin(pi*n/N),

which agrees with ``n*h`` to O((n/N)^3) for central samples but bends the
coordinate ramp onto the circulant topology of the grid.  Its Fourier
dual

    D = F^-1 U F

is then an exact differentiation-operator analogue by construction: U
and D are precisely Fourier duals of each other, in both directions, to
machine precision.

D is built from its structure, without F.  ``D[i, j] = (1/N) sum_k u_k
exp(2j*pi*n_k*(n_i - n_j)/N)`` depends only on ``t = i - j`` because the
grid labels are unit-spaced, so D is Hermitian Toeplitz and determined
by its first column.  With ``n_k = n_0 + k`` that column is an inverse
FFT of the diagonal u times a label phase,

    col[t] = exp(2j*pi*fmod(n_0*t, N)/N) * ifft(u)[t],

in O(N log N).  ``n_0*t`` is a multiple of 1/2, so the ``fmod``
reduction is exact and the phase carries no rounding that grows with
the label product.  :func:`operator_set` transforms the column back
onto the labels, from the other end of the label range, and requires it
to return u.  :func:`diff_matrix` stays the dense reference ``F^H (U F)``
for a given F.

The discrete scaling generator is the symmetrized product
``(U D + D U)/2``.  With U diagonal it collapses entrywise to
``G[m, n] = (u_m + u_n)/2 * D[m, n]``, which is how it is formed, in
O(N^2).  D filled from its column is exactly Hermitian and ``u_m + u_n``
is exactly symmetric, so G is exactly Hermitian as formed.
:func:`scaling_generator`, which takes a D from elsewhere, re-Hermitizes
its result as ``(G + G^H)/2`` to scrub the last ulp of rounding
asymmetry, keeping downstream unitarity guarantees tight.

An :class:`OperatorSet` keeps only the grid, u and the column of D (O(N)
each) and, once asked for, the generator's eigendecomposition.  Its
dense ``f``, ``u``, ``d`` and ``generator`` are built on request and not
kept; G is formed inside :attr:`OperatorSet.generator_eig` and dropped
after the decomposition.

On symmetric grids (index set closed under negation: centered with even
N, ordinary with odd N) U is odd and D is odd under index reversal, so
G commutes with reversal.  :attr:`OperatorSet.generator_eig` then
decomposes G by :func:`opscale.linalg.parity_eig`, which checks that
symmetry and eigendecomposes the even and odd half-size blocks; on the
other grids it decomposes G whole.

The asymmetric forward-difference alternative (which is *not* symmetric,
hence not Hermitian, hence useless as a generator) is deliberately not
provided here; the test suite constructs it locally as a documented
negative example justifying this design.

Odd-N centered grids have an asymmetric index interval; they are
supported, but symmetry-based identities (zero trace of U, for example)
are suspended there, and :class:`OperatorSet` flags them via
``grid_symmetric``.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from .dft import IndexScheme, SampleGrid, dft_matrix, index_grid
from .linalg import (
    HermitianEigenDecomposition,
    ParityEigenDecomposition,
    hermitian_eig,
    identity_residual,
    parity_eig,
)

__all__ = [
    "coord_matrix",
    "diff_matrix",
    "scaling_generator",
    "OperatorSet",
    "operator_set",
]


def _coord_diagonal(grid: SampleGrid) -> np.ndarray:
    n = grid.indices
    big_n = grid.n_samples
    return (np.sqrt(big_n) / np.pi) * np.sin(np.pi * n / big_n)


def coord_matrix(grid: SampleGrid) -> np.ndarray:
    """Sinc-corrected coordinate-multiplication matrix for ``grid``.

    Returns a real diagonal N x N matrix with
    ``U[n, n] = (sqrt(N)/pi) * sin(pi*n/N)`` for each index label n of the
    grid; off-diagonal entries are exactly zero.
    """
    return np.diag(_coord_diagonal(grid))


def _diagonal(u: np.ndarray) -> np.ndarray:
    """The diagonal of ``u``, which must be a diagonal matrix."""
    diag = np.diag(u)
    if np.any(u - np.diag(diag) != 0):
        raise ValueError("coordinate matrix must be diagonal")
    return diag


def diff_matrix(ops_f: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Differentiation matrix ``D = F^-1 U F`` dual to the coordinate matrix.

    The dense reference ``F^H (U F)`` for a given F.  :func:`operator_set`
    builds D without F, and its tests compare it with this.

    Parameters
    ----------
    ops_f : numpy.ndarray
        Unitary matrix (unitarity checked to 1e-10), normally the DFT.
    u : numpy.ndarray
        Real diagonal coordinate matrix, conformable with ``ops_f``.

    Returns
    -------
    numpy.ndarray
        ``F^H (U F)`` (``F^-1 = F^H`` for unitary F).
    """
    f = np.asarray(ops_f)
    u = np.asarray(u)
    if f.ndim != 2 or f.shape[0] != f.shape[1]:
        raise ValueError(f"DFT matrix must be square, got {f.shape}")
    if u.shape != f.shape:
        raise ValueError(f"shape mismatch: F is {f.shape}, U is {u.shape}")
    unit_resid = identity_residual(f @ f.conj().T)
    if unit_resid >= 1e-10:
        raise ValueError(
            f"diff_matrix requires a unitary F: max|F F^H - I| = {unit_resid:.3e}"
        )
    u_diag = _diagonal(u)
    if np.iscomplexobj(u_diag) and np.any(u_diag.imag != 0):
        raise ValueError("coordinate matrix must be real")
    return f.conj().T @ (u_diag.real[:, None] * f)


def _label_phase(label: float, n: int) -> np.ndarray:
    """``exp(2j*pi*label*t/N)`` for t = 0..N-1, the product reduced exactly mod N."""
    return np.exp((2j * np.pi / n) * np.fmod(label * np.arange(n), n))


def _diff_column(grid: SampleGrid, u: np.ndarray) -> np.ndarray:
    """First column of ``D = F^H U F``, from an FFT of the diagonal ``u``."""
    n = grid.n_samples
    col = _label_phase(grid.indices[0], n) * np.fft.ifft(u)
    col[0] = col[0].real
    # Back onto the labels: u_k = sum_t col[t] exp(-2j*pi*n_k*t/N).  Taken
    # from the last label, n_k = n_{N-1} - (N-1-k), so a phase built from
    # a wrong first label does not cancel out.
    back = n * np.fft.ifft(col * _label_phase(-grid.indices[-1], n))[::-1]
    resid = abs(back - u).max()
    if not resid < 1e-10 * (1.0 + abs(u).max()):
        raise ArithmeticError(
            f"column of D does not transform back to U: max residual {resid:.3e} "
            f"(N={n}, scheme={grid.scheme.value})"
        )
    return col


def scaling_generator(u: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Hermitian scaling generator ``(U D + D U)/2`` for a diagonal U.

    Formed entrywise as ``G[m, n] = (u_m + u_n)/2 * D[m, n]`` and then
    explicitly re-Hermitized with ``(G + G^H)/2``.
    """
    u = np.asarray(u)
    d = np.asarray(d)
    if u.shape != d.shape or u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"size mismatch: U is {u.shape}, D is {d.shape}")
    u_diag = _diagonal(u)
    g = np.add.outer(u_diag, u_diag) / 2.0 * d
    return (g + g.conj().T) / 2.0


class OperatorSet:
    """The operators ``(F, U, D, generator)`` for one ``(N, scheme)``.

    Instances are built through :func:`operator_set`, which memoizes them
    per ``(n_samples, scheme)``.  An instance keeps O(N) arrays and the
    generator's decomposition; the dense matrices are built on request,
    as new read-only arrays that are bit-identical from call to call.

    Attributes
    ----------
    n_samples : int
    scheme : IndexScheme
    grid : SampleGrid
        The sampling grid the operators act on.
    u_diagonal : numpy.ndarray
        Read-only diagonal of U.
    d_column : numpy.ndarray
        Read-only first column of the Hermitian Toeplitz matrix D.
    grid_symmetric : bool
        True when the index set is closed under negation (symmetry-based
        identities apply); False for odd-N centered grids.
    """

    def __init__(self, grid: SampleGrid, u_diagonal: np.ndarray, d_column: np.ndarray):
        self.grid = grid
        self.n_samples = grid.n_samples
        self.scheme = grid.scheme
        self.u_diagonal = u_diagonal
        self.d_column = d_column
        self.grid_symmetric = bool(
            np.array_equal(np.sort(-grid.indices), grid.indices)
        )

    @property
    def f(self) -> np.ndarray:
        """Unitary DFT matrix, the cached array of :func:`~opscale.dft.dft_matrix`."""
        return dft_matrix(self.n_samples, self.scheme)

    @property
    def u(self) -> np.ndarray:
        """Real diagonal coordinate matrix."""
        u = np.diag(self.u_diagonal)
        u.setflags(write=False)
        return u

    @property
    def d(self) -> np.ndarray:
        """Differentiation matrix ``F^-1 U F``, filled from :attr:`d_column`."""
        col = self.d_column
        n = col.shape[0]
        # ramp[N-1 + j - i] = D[i, j], with conj(col[j - i]) above the diagonal.
        ramp = np.concatenate([col[::-1], col[1:].conj()])
        d = np.lib.stride_tricks.sliding_window_view(ramp, n)[::-1].copy()
        d.setflags(write=False)
        return d

    @property
    def generator(self) -> np.ndarray:
        """Hermitian scaling generator ``(U D + D U)/2``."""
        u = self.u_diagonal
        # D is exactly Hermitian and (u_m + u_n) symmetric, so G is too.
        g = np.add.outer(u, u) / 2.0 * self.d
        g.setflags(write=False)
        return g

    @cached_property
    def generator_eig(self) -> HermitianEigenDecomposition | ParityEigenDecomposition:
        """Spectral decomposition of the generator (computed once, cached).

        On symmetric grids the generator commutes with index reversal and
        is decomposed as its even and odd blocks by
        :func:`~opscale.linalg.parity_eig`; elsewhere it is decomposed
        whole by :func:`~opscale.linalg.hermitian_eig`.  The generator
        itself is not kept.
        """
        if self.grid_symmetric:
            return parity_eig(self.generator)
        return hermitian_eig(self.generator)

    def __repr__(self) -> str:
        return (
            f"OperatorSet(n_samples={self.n_samples}, "
            f"scheme={self.scheme.value!r}, grid_symmetric={self.grid_symmetric})"
        )


@lru_cache(maxsize=None)
def operator_set(n_samples: int, scheme: IndexScheme) -> OperatorSet:
    """Build (or fetch the cached) :class:`OperatorSet` for ``(N, scheme)``.

    Raises ``ArithmeticError`` if the column of D, transformed back onto
    the labels, misses the diagonal of U by ``1e-10 * (1 + max|u|)``.
    """
    grid = index_grid(n_samples, IndexScheme(scheme))
    u = _coord_diagonal(grid)
    col = _diff_column(grid, u)
    u.setflags(write=False)
    col.setflags(write=False)
    return OperatorSet(grid, u, col)
