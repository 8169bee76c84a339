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
computed Z (:mod:`opscale.linalg`, steps 6-8).

An :class:`OperatorSet` keeps only the grid, u and the column of D (O(N)
each) and, once asked for, the generator's eigendecomposition.  Its
dense ``f``, ``u``, ``d`` and ``generator`` are built on request and not
kept.  :attr:`OperatorSet.generator_eig` forms G once and drops it as
soon as it is copied into the buffer of its transforms.

On symmetric grids (index set closed under negation: centered with even
N, ordinary with odd N) U is odd and D is odd under index reversal, so
G commutes with reversal, and ``F^2`` is the reversal itself, so Z
commutes with it too.  :attr:`OperatorSet.generator_eig` then checks
the symmetry, folds G into its even and odd half-size blocks by
:func:`opscale.linalg._reversal_fold`, and forms and decomposes the
matching blocks of S, on which Z is ``(c0 +- c2) I + (c3 +- c1) F``.
On the other grids it decomposes G whole.

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
from functools import cached_property, lru_cache, partial

import numpy as np

from .dft import IndexScheme, SampleGrid, as_sample_count, dft_matrix, index_grid
from .linalg import (
    HermitianEigenDecomposition,
    ParityEigenDecomposition,
    _check_symmetric,
    _hermiticity_residual,
    _real_part,
    _reversal_fold,
    _solve_real_form,
    fft_error,
    identity_residual,
)

__all__ = [
    "coord_matrix",
    "diff_matrix",
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


_ROOT2 = math.sqrt(2.0)

#: What the pointwise roundings of :meth:`_HalfDft.apply` and
#: :meth:`_HalfDft.apply_block` add to the FFT's relative error: about 80u
#: and 60u to first order, counting the label phases' own rounding
#: (:mod:`opscale.linalg`, step 6).
_POINTWISE_ERROR = 100 * np.finfo(float).eps / 2

#: ``(c0, c1, c2, c3)`` of ``Z = c0 I + c1 F^H + c2 F^2 + c3 F = (F^H)^(1/2)``.
_HALF_DFT = (
    (1 + _ROOT2) / 4 + 0.25j,
    (1 + _ROOT2) / 4 - 0.25j,
    (1 - _ROOT2) / 4 + 0.25j,
    (1 - _ROOT2) / 4 - 0.25j,
)


def _along(axis: int, index) -> tuple:
    """The index tuple that applies ``index`` along ``axis`` of a matrix."""
    return (index,) if axis == 0 else (slice(None), index)


class _HalfDft:
    """``Z = (F^H)^(1/2)`` of one grid, applied along an axis of a matrix.

    ``F x = post * fft(pre * x)``: the label product ``n_m n_k`` splits as
    ``n_0^2 + n_0 m + n_0 k + m k``, and each phase is reduced exactly
    with ``fmod``.  ``F^2 x = sign * x[perm]`` sends label n to the label
    congruent to -n mod N, with sign ``(-1)^(2 n_0 q)`` when it wraps by
    qN.  Z is symmetric, so ``x Z`` is Z applied along axis 1.

    On a symmetric grid ``F^2`` is the reversal, +1 on the even and -1 on
    the odd reversal basis of
    :class:`~opscale.linalg.ParityEigenDecomposition`, so Z restricted to
    either basis is ``(c0 +- c2) I + (c3 +- c1) F``.  :meth:`apply_block`
    unfolds each vector into an N-vector, transforms it by F and folds it
    back, in one N-long buffer shared by every call.

    ``error`` bounds the relative error of either on any vector: the
    FFT's (:func:`~opscale.linalg.fft_error`) plus the pointwise roundings.
    """

    def __init__(self, grid: SampleGrid):
        n = grid.n_samples
        self.error = fft_error(n) + _POINTWISE_ERROR
        self.first = grid.indices[0]
        self.pre = _label_phase(-self.first, n)
        self.post = self.pre * (
            np.exp((-2j * np.pi / n) * np.fmod(self.first * self.first, n)) / math.sqrt(n)
        )
        self.scratch = None

    @cached_property
    def _whole(self) -> tuple[np.ndarray, np.ndarray, complex, np.ndarray]:
        """``(perm, s * sign, (r - s)/s, c3 * post)`` for :meth:`apply`."""
        c0, c1, c2, c3 = _HALF_DFT
        n = self.pre.shape[0]
        twice = int(2 * self.first)
        negated = -twice - np.arange(n)  # index of the label -n_m, before wrapping
        perm = negated % n
        sign = np.where(twice * ((perm - negated) // n) % 2, -1.0, 1.0)
        # Z x = c0 (x + s F^2 x) + c3 F (x + r F^2 x), s = c2/c0, r = c1/c3.
        return perm, sign * (c2 / c0), (c1 / c3 - c2 / c0) / (c2 / c0), self.post * c3

    @cached_property
    def _blocks(self) -> dict:
        """``{odd: (alpha, head, tail, fold)}`` for :meth:`apply_block`."""
        c0, c1, c2, c3 = _HALF_DFT
        n = self.pre.shape[0]
        h = n // 2
        head = self.pre[:h] / _ROOT2
        blocks = {}
        for odd, sigma in ((False, 1.0), (True, -1.0)):
            fold = self.post[:h if odd else n - h] * (c3 + sigma * c1)
            fold[:h] *= _ROOT2
            blocks[odd] = (c0 + sigma * c2, head, (sigma / _ROOT2) * self.pre[n - h:], fold)
        return blocks

    def apply(self, x: np.ndarray, out: np.ndarray, axis: int) -> np.ndarray:
        """``out = Z x`` along ``axis`` of the complex matrix x, which is overwritten."""
        perm, scaled_sign, ratio, post3 = self._whole
        shape = (-1, 1) if axis == 0 else (-1,)
        np.take(x, perm, axis=axis, out=out)
        out *= scaled_sign.reshape(shape)  # s F^2 x
        x += out
        out *= ratio
        out += x  # x + r F^2 x
        out *= self.pre.reshape(shape)
        np.fft.fft(out, axis=axis, out=out)
        out *= post3.reshape(shape)
        x *= _HALF_DFT[0]
        out += x
        return out

    def apply_block(self, x: np.ndarray, out: np.ndarray, axis: int, odd: bool) -> np.ndarray:
        """:meth:`apply` on the even (``odd=False``) or odd reversal basis."""
        alpha, head_phase, tail, fold = self._blocks[odd]
        n = self.pre.shape[0]
        h = n // 2
        k = x.shape[axis]
        shape = (-1, 1) if axis == 0 else (-1,)
        across = x.shape[1 - axis]
        if self.scratch is None:  # one buffer for every call, sized for the even block
            self.scratch = np.empty((n - h) * n, dtype=complex)
        full = self.scratch[:across * n].reshape((n, across) if axis == 0 else (across, n))
        head = x[_along(axis, slice(0, h))]
        np.multiply(head, head_phase.reshape(shape), out=full[_along(axis, slice(0, h))])
        np.multiply(head[_along(axis, slice(None, None, -1))], tail.reshape(shape),
                    out=full[_along(axis, slice(n - h, n))])
        if k > h:  # the middle sample of an odd N, on the even basis
            full[_along(axis, h)] = x[_along(axis, h)] * self.pre[h]
        elif n % 2:
            full[_along(axis, h)] = 0.0
        np.fft.fft(full, axis=axis, out=full)
        np.multiply(full[_along(axis, slice(0, k))], fold.reshape(shape), out=out)
        x *= alpha
        out += x
        return out


def _real_form_eig(form, apply, error: float, kept=None) -> HermitianEigenDecomposition:
    """Decompose the Hermitian matrix ``A = form()`` through its real form.

    ``apply(x, out, axis)`` writes ``Z x`` along ``axis`` into ``out`` and
    may overwrite x, with relative error at most ``error`` on any vector.
    ``S = Z^H A Z`` is formed as the conjugate of ``Z conj(A Z)`` in two
    buffers allocated once, after A is copied into the first and dropped,
    and checked to be real.  Its real part is copied into the buffer V
    will take, and the two buffers are freed.  Z is checked to be
    symmetric on a probe pair (:func:`opscale.linalg._check_symmetric`),
    and :func:`opscale.linalg._solve_real_form` solves S, certifies it in
    real arithmetic, and forms ``V = Z Q`` over it.

    The eigenvalues and V are written into ``kept = (eigenvalues, v)``,
    allocated here once A is dropped when not given.  Either way they are
    allocated before the temporaries of the solve, so that the arrays a
    decomposition keeps sit below the freed temporaries in the heap, not
    between them.
    """
    a = form()
    scale, herm_resid = _hermiticity_residual(a)
    k = a.shape[0]
    work = np.empty((2, k, k), dtype=complex)
    x, y = work
    x[...] = a
    del a
    eigenvalues, v = kept or (np.empty(k), np.empty((k, k), dtype=complex))
    apply(x, y, axis=1)  # A Z
    np.conjugate(y, out=x)
    apply(x, y, axis=0)  # Z conj(A Z): the real part of S, and -Im(S)
    s, realness_resid = _real_part(y, scale)
    compact = v.view(float).reshape(-1)[:k * k].reshape(k, k)  # the first half of V's bytes
    compact[...] = s
    del work, x, y, s
    # After the transforms above, so that the probe allocates no buffer of
    # the transform's before the work buffers.
    _check_symmetric(lambda x: apply(x, np.empty_like(x), axis=0), k, error)

    def eigenvectors(q):
        zq = np.empty((k, k), dtype=complex)
        zq[...] = q
        return apply(zq, v, axis=0)

    return _solve_real_form(
        compact, eigenvalues, eigenvectors, error, scale, herm_resid, realness_resid
    )


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
        d = self._filled_d()
        d.setflags(write=False)
        return d

    def _filled_d(self) -> np.ndarray:
        col = self.d_column
        n = col.shape[0]
        # ramp[N-1 + j - i] = D[i, j], with conj(col[j - i]) above the diagonal.
        ramp = np.concatenate([col[::-1], col[1:].conj()])
        return np.lib.stride_tricks.sliding_window_view(ramp, n)[::-1].copy()

    def _formed_generator(self) -> np.ndarray:
        u = self.u_diagonal
        # D is exactly Hermitian and (u_m + u_n) symmetric, so G is too.
        g = self._filled_d()
        half_sums = np.add.outer(u, u)
        half_sums *= 0.5
        g *= half_sums
        return g

    @property
    def generator(self) -> np.ndarray:
        """Hermitian scaling generator ``(U D + D U)/2``."""
        g = self._formed_generator()
        g.setflags(write=False)
        return g

    @cached_property
    def generator_eig(self) -> HermitianEigenDecomposition | ParityEigenDecomposition:
        """Spectral decomposition of the generator (computed once, cached).

        G is decomposed through its real form ``S = Z^H G Z``, ``Z =
        (F^H)^(1/2)`` (module docstring): S is checked to be real, a real
        ``eigh`` gives ``S = Q diag(lam) Q^T``, and ``V = Z Q``.  On
        symmetric grids G is first checked to commute with index reversal
        and folded into its even and odd blocks by
        :func:`~opscale.linalg._reversal_fold`; Z commutes with reversal
        too, so the blocks of S are ``Z_b^H G_b Z_b``, formed from the
        blocks of G at half the transform cost, and each is decomposed on
        its own.  Every block passes the checks of
        :func:`~opscale.linalg._solve_real_form`, which read its S and Q,
        not G.  Neither the generator nor its blocks are kept.

        Raises ``ValueError`` if G is not Hermitian, and
        ``ArithmeticError`` if it does not commute with reversal on a
        symmetric grid, its real form has an imaginary part beyond
        rounding, or a decomposition fails its checks.
        """
        z = _HalfDft(self.grid)
        if self.grid_symmetric:
            *blocks, reversal_resid = _reversal_fold(self._formed_generator())
            kept = [(np.empty(len(b)), np.empty((len(b),) * 2, dtype=complex)) for b in blocks]
            # Each block of G is handed over, and dropped once its transforms have a copy.
            take = partial(blocks.pop, 0)
            return ParityEigenDecomposition(
                _real_form_eig(take, partial(z.apply_block, odd=False), z.error, kept[0]),
                _real_form_eig(take, partial(z.apply_block, odd=True), z.error, kept[1]),
                reversal_resid,
            )
        return _real_form_eig(self._formed_generator, z.apply, z.error)

    def __repr__(self) -> str:
        return (
            f"OperatorSet(n_samples={self.n_samples}, "
            f"scheme={self.scheme.value!r}, grid_symmetric={self.grid_symmetric})"
        )


def operator_set(n_samples: int, scheme: IndexScheme) -> OperatorSet:
    """Build (or fetch the cached) :class:`OperatorSet` for ``(N, scheme)``.

    The arguments are validated and normalized before the cache lookup,
    so ``True`` or ``8.0`` cannot hit a cached grid, and equal grids given
    as a string or a numpy integer share one set.

    Raises ``ValueError`` if ``n_samples`` is not a positive integer, and
    ``ArithmeticError`` if the column of D, transformed back onto the
    labels, misses the diagonal of U by ``1e-10 * (1 + max|u|)``.
    """
    return _operator_set(as_sample_count(n_samples), IndexScheme(scheme))


@lru_cache(maxsize=None)
def _operator_set(n_samples: int, scheme: IndexScheme) -> OperatorSet:
    grid = index_grid(n_samples, scheme)
    u = _coord_diagonal(grid)
    col = _diff_column(grid, u)
    u.setflags(write=False)
    col.setflags(write=False)
    return OperatorSet(grid, u, col)


# Build counts stay readable as ``operator_set.cache_info()``.
operator_set.cache_info = _operator_set.cache_info
