"""DFT-consistent coordinate and differentiation matrices.

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

D is built from its structure rather than by two dense products.  The
grid labels are unit-spaced, so each column of F is the previous one
times the fixed unit-modulus vector ``exp(-2j*pi*n_k/N)``; then
``D[i, j]`` depends only on ``i - j`` and D is Hermitian Toeplitz,
determined by its first column.  That column costs O(N^2): the value of
each diagonal is the product ``F[:, i]^H (u * F[:, j])`` of one column
pair on it, the pair nearest the middle of the grid, where the stored
F's phase rounding (which grows with the label product) is smallest.
:func:`diff_matrix` checks the column structure in O(N^2) before
relying on it, alongside its unitarity and diagonal-U checks.

The discrete scaling generator is the symmetrized product
``(U D + D U)/2``.  With U diagonal it collapses entrywise to
``G[m, n] = (u_m + u_n)/2 * D[m, n]``, which is how it is formed, in
O(N^2).  Algebraically this is Hermitian whenever U and D are;
numerically it is re-Hermitized as ``(G + G^H)/2`` to scrub the last
ulp of rounding asymmetry, keeping downstream unitarity guarantees
tight.

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


def coord_matrix(grid: SampleGrid) -> np.ndarray:
    """Sinc-corrected coordinate-multiplication matrix for ``grid``.

    Returns a real diagonal N x N matrix with
    ``U[n, n] = (sqrt(N)/pi) * sin(pi*n/N)`` for each index label n of the
    grid; off-diagonal entries are exactly zero.
    """
    n = grid.indices
    big_n = grid.n_samples
    diag = (np.sqrt(big_n) / np.pi) * np.sin(np.pi * n / big_n)
    return np.diag(diag)


def _diagonal(u: np.ndarray) -> np.ndarray:
    """The diagonal of ``u``, which must be a diagonal matrix."""
    diag = np.diag(u)
    if np.any(u - np.diag(diag) != 0):
        raise ValueError("coordinate matrix must be diagonal")
    return diag


def diff_matrix(ops_f: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Differentiation matrix ``D = F^-1 U F`` dual to the coordinate matrix.

    Parameters
    ----------
    ops_f : numpy.ndarray
        Unitary DFT matrix (unitarity checked to 1e-10) on unit-spaced
        labels: each column must be the previous one times one fixed
        unit-modulus vector (checked to 1e-10).
    u : numpy.ndarray
        Real diagonal coordinate matrix, conformable with ``ops_f``.

    Returns
    -------
    numpy.ndarray
        Hermitian Toeplitz matrix ``F^H U F`` (``F^-1 = F^H`` for unitary
        F), filled from one column pair per diagonal.
    """
    f = np.asarray(ops_f)
    u = np.asarray(u)
    if f.ndim != 2 or f.shape[0] != f.shape[1]:
        raise ValueError(f"DFT matrix must be square, got {f.shape}")
    if u.shape != f.shape:
        raise ValueError(f"shape mismatch: F is {f.shape}, U is {u.shape}")
    n = f.shape[0]
    unit_resid = identity_residual(f @ f.conj().T)
    if unit_resid >= 1e-10:
        raise ValueError(
            f"diff_matrix requires a unitary F: max|F F^H - I| = {unit_resid:.3e}"
        )
    u_diag = _diagonal(u)
    if np.iscomplexobj(u_diag) and np.any(u_diag.imag != 0):
        raise ValueError("coordinate matrix must be real")
    # F[:, j] = F[:, 0] * w**j with |w| = 1 makes D[i, j] a function of
    # i - j alone; without it the Toeplitz fill below would be wrong.
    # A zero in F[:, 0] makes w non-finite, and the check fails.
    if n > 1:
        with np.errstate(divide="ignore", invalid="ignore"):
            step = f[:, 1] / f[:, 0]
            step_resid = max(
                abs(f[:, 1:] - f[:, :-1] * step[:, None]).max(),
                abs(abs(step) - 1.0).max(),
            )
        if not step_resid < 1e-10:
            raise ValueError(
                "diff_matrix requires a DFT on unit-spaced labels (each column of F "
                f"the previous one times a fixed unit-modulus vector): residual "
                f"{step_resid:.3e}"
            )
    # col[t] = D[i, j] for any i - j = t >= 0.  The stored F's phase
    # rounding grows with the label product, so each diagonal is read off
    # the column pair (i, j) nearest the middle of the grid, i + j = N-1
    # or N-2; reading them all against column 0 would copy that column's
    # rounding along every diagonal.
    col = np.empty(n, dtype=complex)
    for m in (n - 1, n - 2):
        if m >= 0:
            lo = (m + 1) // 2  # columns i = lo..m pair with j = m - i
            pairs = f[:, lo:m + 1].conj() * f[:, :m - lo + 1][:, ::-1]
            col[2 * lo - m::2] = u_diag.real @ pairs
    col[0] = col[0].real
    # ramp[N-1 + j - i] = D[i, j], with conj(col[j - i]) above the diagonal.
    ramp = np.concatenate([col[::-1], col[1:].conj()])
    return np.lib.stride_tricks.sliding_window_view(ramp, n)[::-1].copy()


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
    """The matrix family ``(F, U, D, generator)`` for one ``(N, scheme)``.

    Instances are built through :func:`operator_set`, which memoizes them
    per ``(n_samples, scheme)``; all held arrays are read-only.

    Attributes
    ----------
    n_samples : int
    scheme : IndexScheme
    grid : SampleGrid
        The sampling grid the operators act on.
    f : numpy.ndarray
        Unitary DFT matrix.
    u : numpy.ndarray
        Real diagonal coordinate matrix.
    d : numpy.ndarray
        Differentiation matrix ``F^-1 U F``.
    generator : numpy.ndarray
        Hermitian scaling generator ``(U D + D U)/2``.
    grid_symmetric : bool
        True when the index set is closed under negation (symmetry-based
        identities apply); False for odd-N centered grids.
    """

    def __init__(self, grid: SampleGrid, f, u, d, generator):
        self.grid = grid
        self.n_samples = grid.n_samples
        self.scheme = grid.scheme
        self.f = f
        self.u = u
        self.d = d
        self.generator = generator
        self.grid_symmetric = bool(
            np.array_equal(np.sort(-grid.indices), grid.indices)
        )

    @cached_property
    def generator_eig(self) -> HermitianEigenDecomposition | ParityEigenDecomposition:
        """Spectral decomposition of the generator (computed once, cached).

        On symmetric grids the generator commutes with index reversal and
        is decomposed as its even and odd blocks by
        :func:`~opscale.linalg.parity_eig`; elsewhere it is decomposed
        whole by :func:`~opscale.linalg.hermitian_eig`.
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
    """Build (or fetch the cached) :class:`OperatorSet` for ``(N, scheme)``."""
    grid = index_grid(n_samples, IndexScheme(scheme))
    f = dft_matrix(grid.n_samples, grid.scheme)
    u = coord_matrix(grid)
    d = diff_matrix(f, u)
    g = scaling_generator(u, d)
    for arr in (u, d, g):
        arr.setflags(write=False)
    return OperatorSet(grid, f, u, d, g)
