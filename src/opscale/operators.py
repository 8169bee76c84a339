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
to return u.  :func:`diff_matrix` builds the dense reference ``F^H (U
F)`` of a grid from the cached F.

The discrete scaling generator is the symmetrized product
``(U D + D U)/2``.  With U diagonal it collapses entrywise to
``G[m, n] = (u_m + u_n)/2 * D[m, n]``, which is how it is formed, in
O(N^2).  D filled from its column is exactly Hermitian and ``u_m + u_n``
is exactly symmetric, so G is exactly Hermitian as formed.

The generator is decomposed in real arithmetic.  F is symmetric, so
``conj(F) = F^H``; with U real, ``F^H conj(U) F = D`` and ``F^H conj(D)
F = U``, hence

    G = F^H conj(G) F

on every grid and both schemes: G commutes with the antiunitary map
``x -> F^H conj(x)``.  ``F^2`` is a signed permutation (label n goes to
the label congruent to -n mod N), so ``F^4 = I``, the eigenvalues of F
lie in {1, -i, -1, i}, and ``F^H = F^3``.  The principal square root
of ``F^H`` is therefore a cubic polynomial in F (Dickinson & Steiglitz,
IEEE TASSP 30(1), 1982; the order-1/2 discrete fractional Fourier
transform of Candan, Kutay & Ozaktas, IEEE TSP 48(5), 2000):

    Z = c0 I + c1 F^H + c2 F^2 + c3 F,
    (c0, c1, c2, c3) = ((1+sqrt2)/4 + i/4, (1+sqrt2)/4 - i/4,
                        (1-sqrt2)/4 + i/4, (1-sqrt2)/4 - i/4).

Z is symmetric and unitary, ``Z^2 = F^H`` and ``Z F = Z^H``.  So ``S =
Z^H G Z`` has ``conj(S) = Z conj(G) Z^H = (Z F) G (Z F)^H = S``: S is
real symmetric, and ``S = Q diag(lam) Q^T`` from a real ``eigh`` gives
``G = V diag(lam) V^H`` with ``V = Z Q``.  A real ``eigh`` costs about a
quarter to a fifth of the complex one at N = 512-1024.  Z is applied
with one FFT and a signed permutation, ``Z x = c0 x + c2 F^2 x + F (c3
x + c1 F^2 x)``, F with the label phases of the column above, reduced
by ``fmod``; no dense F is built.  The imaginary part of the computed S
must be rounding, below ``1e-10 * (1 + max|G|)``: a generator that
breaks ``G = F^H conj(G) F`` is rejected there.  The decomposition is
certified from S and Q in real arithmetic, with an a priori bound on the
computed Z (:mod:`opscale.linalg`, steps 6-8).  The decomposition keeps
Q (real, 8 k^2 bytes a block) and the transform, whose O(N) phases apply
Z at run time on the asymmetric grids; ``V = Z Q`` is built only on
request.

An :class:`OperatorSet` keeps only the grid, u and the column of D (O(N)
each).  Its dense ``f``, ``u``, ``d`` and ``generator`` are built on
request and not kept.  :attr:`OperatorSet.generator_eig`, the
generator's eigendecomposition (its eigenvalues, its real Q and the
transform Z), is kept in :data:`opscale.cache.grids`, keyed on the set,
beside the sets themselves, and built again, bit-identical, once
evicted.  The build forms G once, a row block at a time with no N x N
temporary, after the arrays its decomposition keeps; the real form is
then formed in G's own array, which is dropped once S is written.

On symmetric grids (index set closed under negation: centered with even
N, ordinary with odd N) U is odd and D is odd under index reversal, so
G commutes with reversal, and ``F^2`` is the reversal itself, so Z
commutes with it too.  U real and D purely imaginary there (D is
Hermitian Toeplitz and odd under reversal, so its column is imaginary),
G is purely imaginary, ``G = i B`` with B real antisymmetric, and every
``exp(-i theta G)`` is real.  :attr:`OperatorSet.generator_eig` then
decomposes G by :func:`opscale.linalg.parity_real_form_eig`, which
checks both properties and decomposes the blocks of S on the even and
odd halves of the reversal-parity basis that :mod:`opscale.linalg`
defines, through Z on the whole grid.  On a block Z is ``a I + b X``,
X the restriction of F (times -i on the odd half), which pairs the
columns of Q into the planes that B rotates: every factor is then
assembled and applied from Q alone, with no transform.  On the other
grids the fold is the identity and G is decomposed whole, by
:func:`opscale.linalg.real_form_eig`, as the one block of the
:class:`~opscale.linalg.GridDecomposition` every grid gets.

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

import math

import numpy as np

from .cache import grids
from .dft import IndexScheme, SampleGrid, _unitary_dft, as_sample_count, dft_matrix, index_grid
from .linalg import (
    GridDecomposition,
    _row_blocks,
    fft_error,
    parity_real_form_eig,
    real_form_eig,
)

__all__ = [
    "diff_matrix",
    "OperatorSet",
    "operator_set",
]


def _coord_diagonal(grid: SampleGrid) -> np.ndarray:
    n = grid.indices
    big_n = grid.n_samples
    return (np.sqrt(big_n) / np.pi) * np.sin(np.pi * n / big_n)


def diff_matrix(grid: SampleGrid) -> np.ndarray:
    """Differentiation matrix ``D = F^-1 U F`` of ``grid``, the dense reference.

    ``F^H (U F)`` from the cached DFT of the grid and the diagonal of U.
    :func:`operator_set` builds D without F, and its tests compare it
    with this.  Raises ``ArithmeticError`` if the unitarity residual kept
    with F exceeds 1e-10.
    """
    f = _unitary_dft(grid.n_samples, grid.scheme)
    return f.conj().T @ (_coord_diagonal(grid)[:, None] * f)


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


_ROOT2 = math.sqrt(2.0)

#: What the pointwise roundings of :meth:`_HalfDft.apply` add to the FFT's
#: relative error: about 80u to first order, counting the label phases' own
#: rounding, and a few u more where :mod:`opscale.linalg` folds and unfolds
#: it onto a parity block (step 6).
_POINTWISE_ERROR = 100 * float(np.finfo(float).eps) / 2

#: ``(c0, c1, c2, c3)`` of ``Z = c0 I + c1 F^H + c2 F^2 + c3 F = (F^H)^(1/2)``.
_HALF_DFT = (
    (1 + _ROOT2) / 4 + 0.25j,
    (1 + _ROOT2) / 4 - 0.25j,
    (1 - _ROOT2) / 4 + 0.25j,
    (1 - _ROOT2) / 4 - 0.25j,
)


class _HalfDft:
    """``Z = (F^H)^(1/2)`` of one grid, applied along an axis of a matrix.

    ``F x = post * fft(pre * x)``: the label product ``n_m n_k`` splits as
    ``n_0^2 + n_0 m + n_0 k + m k``, and each phase is reduced exactly
    with ``fmod``.  ``F^2 x = sign * x[perm]`` sends label n to the label
    congruent to -n mod N, with sign ``(-1)^(2 n_0 q)`` when it wraps by
    qN.  Z is symmetric, so ``x Z`` is Z applied along axis 1.  On a
    symmetric grid Z commutes with reversal, and :mod:`opscale.linalg`
    derives its restriction to either half of the reversal-parity basis
    from :meth:`apply`.

    A decomposition keeps its transform to apply Z at run time (on an
    asymmetric grid) or to build V on request, from any number of threads
    at once, so a transform holds only the O(N) tables it makes when
    built: every buffer :meth:`apply` writes is the caller's or its own
    call's.

    ``error`` bounds the relative error of Z, and of its restriction to
    either parity block, on any vector: the FFT's
    (:func:`~opscale.linalg.fft_error`) plus the pointwise roundings.
    """

    def __init__(self, grid: SampleGrid):
        n = grid.n_samples
        self.error = fft_error(n) + _POINTWISE_ERROR
        first = grid.indices[0]
        self.pre = _label_phase(-first, n)
        post = self.pre * (np.exp((-2j * np.pi / n) * np.fmod(first * first, n)) / math.sqrt(n))
        c0, c1, c2, c3 = _HALF_DFT
        twice = int(2 * first)
        negated = -twice - np.arange(n)  # index of the label -n_m, before wrapping
        self.perm = negated % n
        sign = np.where(twice * ((self.perm - negated) // n) % 2, -1.0, 1.0)
        # Z x = c0 (x + s F^2 x) + c3 F (x + r F^2 x), s = c2/c0, r = c1/c3.
        self.scaled_sign = sign * (c2 / c0)
        self.ratio = (c1 / c3 - c2 / c0) / (c2 / c0)
        self.post3 = post * c3

    def apply(self, x: np.ndarray, out: np.ndarray, axis: int) -> np.ndarray:
        """``out = Z x`` along ``axis`` of the complex matrix x, which is overwritten."""
        shape = (-1, 1) if axis == 0 else (-1,)
        np.take(x, self.perm, axis=axis, out=out, mode="wrap")  # every index is valid: no buffer
        out *= self.scaled_sign.reshape(shape)  # s F^2 x
        x += out
        out *= self.ratio
        out += x  # x + r F^2 x
        out *= self.pre.reshape(shape)
        np.fft.fft(out, axis=axis, out=out)
        out *= self.post3.reshape(shape)
        x *= _HALF_DFT[0]
        out += x
        return out


class OperatorSet:
    """The operators ``(F, U, D, generator)`` for one ``(N, scheme)``.

    Instances are built through :func:`operator_set`, which memoizes them
    per ``(n_samples, scheme)``.  An instance keeps O(N) arrays.  Its
    generator's decomposition is built from its own ``u_diagonal`` and
    ``d_column``, so a set built by hand from other arrays decomposes
    those; the dense matrices are built on request, as new read-only
    arrays that are bit-identical from call to call.

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
        d = self._d_rows().copy()
        d.setflags(write=False)
        return d

    def _d_rows(self) -> np.ndarray:
        """D as a read-only view of one ramp of 2N - 1 entries."""
        col = self.d_column
        n = col.shape[0]
        # ramp[N-1 + j - i] = D[i, j], with conj(col[j - i]) above the diagonal.
        ramp = np.concatenate([col[::-1], col[1:].conj()])
        return np.lib.stride_tricks.sliding_window_view(ramp, n)[::-1]

    def _formed_generator(self) -> np.ndarray:
        """G as a new array, filled a row block at a time: no N x N temporary."""
        u = self.u_diagonal
        d = self._d_rows()
        g = np.empty(d.shape, dtype=complex)
        # D is exactly Hermitian and (u_m + u_n) symmetric, so G is too.
        for rows in _row_blocks(len(u)):
            half_sums = np.add.outer(u[rows], u)
            half_sums *= 0.5
            np.multiply(d[rows], half_sums, out=g[rows])
        return g

    @property
    def generator(self) -> np.ndarray:
        """Hermitian scaling generator ``(U D + D U)/2``."""
        g = self._formed_generator()
        g.setflags(write=False)
        return g

    @property
    def generator_eig(self) -> GridDecomposition:
        """Spectral decomposition of the generator, kept in :data:`opscale.cache.grids`.

        It is built on first access, keyed on the set: threads that ask at
        once make one build, sets build side by side, a build that raises
        keeps nothing, and a forked child builds again.

        A fold and a tuple of blocks (module docstring): G whole, or on
        symmetric grids its even and odd blocks, folded and checked by
        :func:`~opscale.linalg.parity_real_form_eig`.  Each block is
        decomposed through its real form ``S = Z^H G Z``, ``Z =
        (F^H)^(1/2)`` restricted to the block, passes the checks of
        :func:`~opscale.linalg.real_form_eig`, which read its S and Q,
        not G, and keeps Q and the transform Z, of which ``V = Z Q``.  G
        is formed, checked, folded and transformed by row blocks and
        slabs, so that beside G, its blocks and the arrays kept no N x N
        temporary is made (:mod:`opscale.linalg`).  Neither the
        generator nor its blocks are kept, nor V.

        Raises ``ValueError`` if G is not Hermitian, and
        ``ArithmeticError`` if on a symmetric grid it does not commute
        with reversal or is not purely imaginary (``max|Re G| < 1e-10 *
        (1 + max|G|)``), its real form has an imaginary part beyond
        rounding, or a decomposition fails its checks.
        """
        return _decomposition(self)

    def __repr__(self) -> str:
        return (
            f"OperatorSet(n_samples={self.n_samples}, "
            f"scheme={self.scheme.value!r}, grid_symmetric={self.grid_symmetric})"
        )


@grids.memoize(nbytes=lambda eig: sum(b.basis.nbytes + b.eigenvalues.nbytes for b in eig.blocks))
def _decomposition(ops: OperatorSet) -> GridDecomposition:
    z = _HalfDft(ops.grid)
    if ops.grid_symmetric:
        return parity_real_form_eig(ops._formed_generator, ops.n_samples, z.apply, z.error)
    whole = real_form_eig(ops._formed_generator, ops.n_samples, z.apply, z.error)
    return GridDecomposition((whole,), None)


def operator_set(n_samples: int, scheme: IndexScheme) -> OperatorSet:
    """Build (or fetch the cached) :class:`OperatorSet` for ``(N, scheme)``.

    The arguments are validated and normalized before the cache lookup,
    so ``True`` or ``8.0`` cannot hit a cached grid, and equal grids given
    as a string or a numpy integer share one set.

    Raises ``ValueError`` if ``n_samples`` is not a positive integer, and
    ``ArithmeticError`` if the column of D, transformed back onto the
    labels, misses the diagonal of U by ``1e-10 * (1 + max|u|)``.
    """
    return _operator_set(as_sample_count(n_samples), IndexScheme(scheme).value)


@grids.memoize(nbytes=lambda ops: ops.grid.indices.nbytes + ops.u_diagonal.nbytes
               + ops.d_column.nbytes)
def _operator_set(n_samples: int, scheme: str) -> OperatorSet:
    # Keyed on the scheme's value: a str hashes in C, an Enum member in Python.
    grid = index_grid(n_samples, scheme)
    u = _coord_diagonal(grid)
    col = _diff_column(grid, u)
    u.setflags(write=False)
    col.setflags(write=False)
    return OperatorSet(grid, u, col)


# The grid cache's counts stay readable as ``operator_set.cache_info()``.
operator_set.cache_info = grids.info
