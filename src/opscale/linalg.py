"""Dense complex linear algebra helpers.

This module is the numerical engine for the rest of the package:
validated Hermitian eigendecompositions and unitary matrix functions
``exp(-i*theta*G)`` of Hermitian generators.

The heavy lifting is delegated to LAPACK through :func:`numpy.linalg.eigh`;
what this module adds is the contract enforcement the callers rely on:
inputs are checked for Hermiticity before the solve, and every
decomposition is verified (orthonormal eigenvectors, small reconstruction
residual) before it is handed back.  A generator that fails these checks
indicates a construction bug upstream, and raising here localizes it.

A Hermitian matrix that commutes with index reversal ``J`` (``A[i, j] ==
A[N-1-i, N-1-j]``) splits exactly into two blocks in the orthonormal
basis of reversal-even vectors ``(e_k + e_{N-1-k})/sqrt(2)`` (plus the
middle unit vector when N is odd) and reversal-odd vectors
``(e_k - e_{N-1-k})/sqrt(2)``, ``k < N//2``.  :func:`parity_eig` checks
the symmetry in O(N^2), folds the matrix into its even block of size
``ceil(N/2)`` and odd block of size ``floor(N/2)``, and decomposes each
through :func:`hermitian_eig` with its full checks.  From such a
decomposition :func:`unitary_from_eig` assembles ``exp(-i*theta*A)`` one
block at a time, certifies or checks each block's unitarity, and returns
the two blocks as a :class:`ParityUnitary`.  Two half-size blocks cost about a
quarter of the dense eigensolve and assembly, and half of its memory.
A :class:`ParityUnitary` is applied to a vector blockwise, reading half
the bytes of the dense matrix, and :meth:`ParityUnitary.dense` scatters
the blocks back into the N x N matrix in the original index order.

Each decomposition keeps the residuals its checks measured, as plain
floats: :class:`HermitianEigenDecomposition` the Hermiticity, gram and
reconstruction residuals, :class:`ParityEigenDecomposition` the reversal
residual.  From the gram residual it also keeps ``unitarity_bound``, an
upper bound on ``max|M^H M - I|`` for every block ``M`` that
:func:`unitary_from_eig` can assemble from it, whatever theta.  Where
that bound is below ``UNITARITY_TOL`` the block is certified unitary
and the dense O(k^3) re-check ``M^H M`` is skipped; elsewhere the check
runs.  Either way the block is assembled by the same code, bit for bit.

The bound (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd
ed., sections 3.5-3.6; ``u`` the unit roundoff, ``gamma_n = n u/(1 - n
u)``).  Let V be the k x k eigenvector matrix, ``E = V^H V - I`` with
``delta = max|E|``, and let ``d`` be the computed gram residual.

1. The gram product, a complex inner product of length k, errs by at
   most ``gamma_{k+2} |v_i|^T |v_j| <= gamma_{k+2} (1 + delta)`` per
   entry (the columns have squared norm ``1 + E_ii``); subtracting 1
   and taking the modulus lose at most a factor ``1 + gamma_3``.  So
   ``delta <= (d (1 + gamma_3) + gamma_{k+2}) / (1 - gamma_{k+2})``.
2. ``||E||_2 <= ||E||_F <= k delta``, so ``||V||_2^2 <= 1 + k delta``,
   and ``||V V^H - I||_2 = ||V^H V - I||_2`` for square V.  For any
   diagonal P of unit phases, ``M = V P V^H`` has ``M^H M - I = (V V^H - I) + V P^H E
   P V^H``, hence ``||M^H M - I||_2 <= (1 + k delta)^2 - 1`` and
   ``||M||_2 <= 1 + k delta``.
3. The computed phases ``p^ = exp(-i theta lam)`` are the unit phases
   ``p^/|p^|`` times a modulus off 1 by at most ``gamma_4`` (cos and sin
   within two ulps each); ``v * p^`` adds a complex product's
   ``sqrt(2) gamma_2``.  With ``beta = gamma_4 + (1 + gamma_4) sqrt(2)
   gamma_2`` and the conventional product's ``gamma_{k+2} |W| |V^H|``
   (W the computed ``v * p^``), the computed block is ``M^ = M + F``
   with ``|F| <= g' |V| |V^H|``, ``g' = gamma_{k+2} + beta (1 +
   gamma_{k+2})``.
4. ``|V| |V^H|`` has columns of norm ``<= || |V| ||_2 ||row_j(V)|| <=
   sqrt(k) (1 + k delta)``, since ``|| |V| ||_2 <= ||V||_F <= sqrt(k)
   ||V||_2`` and a row's norm is at most ``||V||_2``.  Each entry of
   ``M^H F``, ``F^H M`` and ``F^H F`` is an inner product of two columns,
   so ``max|M^^H M^ - I| <= (1 + k delta)^2 (1 + sqrt(k) g')^2 - 1``.

That last quantity is ``unitarity_bound``, evaluated once per
decomposed block.  With gram residuals of a few 1e-15 it is about
``2 k^2 u``: 1.7e-11 at k = 256 and 6.4e-11 at k = 512, which certify,
and 2.5e-10 at k = 1024, where the dense check runs.  The bound is only
as sound as the gram residual it is given, so a hand-built
decomposition must carry the measured ``max|V^H V - I|`` of its
eigenvectors.

Every function except :func:`identity_residual`, which overwrites the
product it is given, is pure and operates on immutable inputs, so they
are safe to call concurrently from multiple threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "HermitianEigenDecomposition",
    "ParityEigenDecomposition",
    "ParityUnitary",
    "hermitian_eig",
    "parity_eig",
    "unitary_from_eig",
]

#: Relative max-abs tolerance for accepting a matrix as Hermitian.
HERMITICITY_RTOL = 1e-10

#: Relative tolerance for the eigendecomposition residual ``A V - V diag(lam)``.
RESIDUAL_RTOL = 1e-9

#: Max-abs tolerance for eigenvector orthonormality ``V^H V - I``.
ORTHONORMALITY_TOL = 1e-10

#: Relative max-abs tolerance for accepting ``A == J A J`` (J: index reversal).
REVERSAL_RTOL = 1e-10

#: Max-abs tolerance for the unitarity ``M^H M - I`` of an assembled block.
UNITARITY_TOL = 1e-10

#: Unit roundoff ``u`` of float64.
_UNIT_ROUNDOFF = float(np.finfo(float).eps) / 2


def _gamma(n: int) -> float:
    """Higham's ``gamma_n = n u / (1 - n u)``."""
    return n * _UNIT_ROUNDOFF / (1 - n * _UNIT_ROUNDOFF)


def _unitarity_bound(gram_residual: float, k: int) -> float:
    """Bound on ``max|M^H M - I|`` of a block assembled from k eigenvectors.

    ``gram_residual`` is the computed ``max|V^H V - I|``; the derivation
    is in the module docstring.
    """
    g = _gamma(k + 2)
    delta = (gram_residual * (1 + _gamma(3)) + g) / (1 - g)
    beta = _gamma(4) + (1 + _gamma(4)) * math.sqrt(2.0) * _gamma(2)
    g_prime = g + beta * (1 + g)
    return ((1 + k * delta) * (1 + math.sqrt(k) * g_prime)) ** 2 - 1


def identity_residual(p: np.ndarray) -> float:
    """``max|P - I|`` of a square product ``P`` that the caller owns.

    One is subtracted from P's diagonal in place, so P is overwritten,
    and no identity matrix is allocated.
    """
    p.flat[::p.shape[0] + 1] -= 1
    return float(abs(p).max(initial=0.0))


def _as_matrix(a) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got array of ndim {a.ndim}")
    if not np.all(np.isfinite(a.view(float) if a.dtype.kind == "c" else a)):
        raise ValueError("matrix contains non-finite entries")
    return a


@dataclass(frozen=True, eq=False)
class HermitianEigenDecomposition:
    """Validated spectral decomposition ``A = V diag(eigenvalues) V^H``.

    Attributes
    ----------
    eigenvalues : numpy.ndarray
        Real eigenvalues in ascending order.
    eigenvectors : numpy.ndarray
        Unitary matrix whose column ``k`` pairs with ``eigenvalues[k]``.
    hermiticity_residual : float
        ``max|A - A^H|`` of the decomposed matrix.
    gram_residual : float
        ``max|V^H V - I|`` of the eigenvectors, as computed.
    reconstruction_residual : float
        ``max|A V - V diag(eigenvalues)|``.
    unitarity_bound : float
        Derived from ``gram_residual``: an upper bound on ``max|M^H M - I|``
        of every block :func:`unitary_from_eig` assembles from this
        decomposition (see the module docstring).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    hermiticity_residual: float
    gram_residual: float
    reconstruction_residual: float
    unitarity_bound: float = field(init=False)

    def __post_init__(self):
        bound = _unitarity_bound(self.gram_residual, self.eigenvectors.shape[0])
        object.__setattr__(self, "unitarity_bound", bound)


@dataclass(frozen=True, eq=False)
class ParityEigenDecomposition:
    """Validated block decomposition of a reversal-symmetric Hermitian matrix.

    Attributes
    ----------
    even : HermitianEigenDecomposition
        Decomposition of the ``ceil(N/2)`` block on the reversal-even
        basis ``(e_k + e_{N-1-k})/sqrt(2)``, ``k < N//2``, followed by the
        middle unit vector ``e_{N//2}`` when N is odd.
    odd : HermitianEigenDecomposition
        Decomposition of the ``floor(N/2)`` block on the reversal-odd
        basis ``(e_k - e_{N-1-k})/sqrt(2)``, ``k < N//2`` (empty for N = 1).
    reversal_residual : float
        ``max|A - J A J|`` of the decomposed matrix.
    """

    even: HermitianEigenDecomposition
    odd: HermitianEigenDecomposition
    reversal_residual: float


def hermitian_eig(a) -> HermitianEigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, with pre/post validation.

    Parameters
    ----------
    a : array_like
        Square matrix, Hermitian within ``1e-10 * (1 + max|a|)``.

    Returns
    -------
    HermitianEigenDecomposition
        Ascending eigenvalues and orthonormal eigenvectors.

    Raises
    ------
    ValueError
        If ``a`` is not square, not finite, or not Hermitian within
        tolerance.
    ArithmeticError
        If the solver fails to converge, the eigenvectors are not
        orthonormal to 1e-10, or the decomposition does not reproduce
        ``a`` within ``1e-9 * (1 + max|a|)``.
    """
    a = _as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"hermitian_eig requires a square matrix, got {a.shape}")
    scale = 1.0 + abs(a).max(initial=0.0)
    herm_resid = abs(a - a.conj().T).max(initial=0.0)
    if herm_resid >= HERMITICITY_RTOL * scale:
        raise ValueError(
            f"matrix is not Hermitian: max|a - a^H| = {herm_resid:.3e} "
            f"exceeds {HERMITICITY_RTOL * scale:.3e}"
        )
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise ArithmeticError(f"eigensolver did not converge: {exc}") from exc

    # Contract checks: orthonormal columns and a small reconstruction residual.
    gram_resid = identity_residual(eigenvectors.conj().T @ eigenvectors)
    if gram_resid >= ORTHONORMALITY_TOL:
        raise ArithmeticError(
            f"eigenvector columns not orthonormal: max|V^H V - I| = {gram_resid:.3e}"
        )
    recon_resid = abs(a @ eigenvectors - eigenvectors * eigenvalues).max(initial=0.0)
    if recon_resid >= RESIDUAL_RTOL * scale:
        raise ArithmeticError(
            f"eigendecomposition residual {recon_resid:.3e} exceeds tolerance"
        )
    eigenvalues.setflags(write=False)
    eigenvectors.setflags(write=False)
    return HermitianEigenDecomposition(
        eigenvalues, eigenvectors, float(herm_resid), gram_resid, float(recon_resid)
    )


def parity_eig(a) -> ParityEigenDecomposition:
    """Block eigendecomposition of a Hermitian matrix that commutes with reversal.

    Parameters
    ----------
    a : array_like
        Square matrix with ``a[i, j] == a[N-1-i, N-1-j]`` within
        ``1e-10 * (1 + max|a|)``, and Hermitian as :func:`hermitian_eig`
        requires.

    Returns
    -------
    ParityEigenDecomposition
        The even and odd blocks, each decomposed by :func:`hermitian_eig`.

    Raises
    ------
    ValueError
        If ``a`` is not square or not finite, or a block fails the
        Hermiticity check of :func:`hermitian_eig`.
    ArithmeticError
        If ``a`` does not commute with index reversal within tolerance,
        or a block decomposition fails its checks.
    """
    a = _as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"parity_eig requires a square matrix, got {a.shape}")
    scale = 1.0 + abs(a).max(initial=0.0)
    reversal_resid = abs(a - a[::-1, ::-1]).max(initial=0.0)
    if reversal_resid >= REVERSAL_RTOL * scale:
        raise ArithmeticError(
            f"matrix does not commute with index reversal: max|A - J A J| = "
            f"{reversal_resid:.3e} exceeds {REVERSAL_RTOL * scale:.3e}"
        )
    n = a.shape[0]
    h = n // 2
    p = a[:h, :h]
    q = a[:h, n - h:][:, ::-1]  # q[i, j] = a[i, N-1-j]
    even = p + q
    if n % 2:
        root2 = math.sqrt(2.0)
        even = np.block([
            [even, root2 * a[:h, h:h + 1]],
            [root2 * a[h:h + 1, :h], a[h:h + 1, h:h + 1]],
        ])
    return ParityEigenDecomposition(
        hermitian_eig(even), hermitian_eig(p - q), float(reversal_resid)
    )


def _unitary_block(eig: HermitianEigenDecomposition, theta: float) -> np.ndarray:
    # The result is allocated before the temporaries, so that an assembly
    # that is kept does not sit between freed temporaries in the heap.
    v = eig.eigenvectors
    out = np.empty(v.shape, dtype=complex)
    phases = np.exp(-1j * theta * eig.eigenvalues)
    np.matmul(v * phases, v.conj().T, out=out)
    # A certified block needs no dense re-check (module docstring).
    if eig.unitarity_bound >= UNITARITY_TOL:
        unit_resid = identity_residual(out.conj().T @ out)
        if unit_resid >= UNITARITY_TOL:
            raise ArithmeticError(
                f"matrix function lost unitarity: max|M^H M - I| = {unit_resid:.3e}"
            )
    out.setflags(write=False)
    return out


_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class ParityUnitary:
    """A unitary that commutes with index reversal, kept as its two blocks.

    Attributes
    ----------
    even : numpy.ndarray
        Read-only ``ceil(N/2)`` square block on the reversal-even basis of
        :class:`ParityEigenDecomposition`.
    odd : numpy.ndarray
        Read-only ``floor(N/2)`` square block on the reversal-odd basis.
    """

    even: np.ndarray
    odd: np.ndarray

    @property
    def nbytes(self) -> int:
        """Bytes held by the two blocks, about half of the dense matrix."""
        return self.even.nbytes + self.odd.nbytes

    def __matmul__(self, x) -> np.ndarray:
        """``U @ x`` for an N-vector, without forming U.

        ``x`` is folded onto the parity bases (``head + reversed tail``,
        with sqrt(2) times the middle sample for odd N, and ``head -
        reversed tail``), each fold is multiplied by its block, and the
        two products are unfolded.  Both folds carry a factor sqrt(2),
        which the final halving removes.
        """
        x = np.asarray(x)
        even, odd = self.even, self.odd
        h = odd.shape[0]
        n = even.shape[0] + h
        if x.shape != (n,):
            raise ValueError(f"operand has shape {x.shape}, expected ({n},)")
        head, tail = x[:h], x[:n - h - 1:-1]  # tail: the last h samples, reversed
        if n % 2:
            s = np.empty(h + 1, dtype=complex)
            np.add(head, tail, out=s[:h])
            s[h] = _SQRT2 * x[h]
        else:
            s = head + tail
        # np.dot: the same BLAS product as @, with less call overhead
        u = np.dot(even, s)
        v = np.dot(odd, head - tail)
        out = np.empty(n, dtype=u.dtype)
        np.add(u[:h], v, out=out[:h])
        np.subtract(u[:h], v, out=out[:n - h - 1:-1])
        if n % 2:
            out[h] = _SQRT2 * u[h]
        out *= 0.5
        return out

    def dense(self) -> np.ndarray:
        """The N x N matrix in the original index order, as a new read-only array."""
        even, odd = self.even, self.odd
        h = odd.shape[0]
        n = even.shape[0] + h
        out = np.empty((n, n), dtype=complex)
        plus = (even[:h, :h] + odd) / 2.0
        minus = (even[:h, :h] - odd) / 2.0
        out[:h, :h] = plus
        out[:h, n - h:] = minus[:, ::-1]
        out[n - h:, :h] = minus[::-1, :]
        out[n - h:, n - h:] = plus[::-1, ::-1]
        if n % 2:
            col = even[:h, h] / _SQRT2
            row = even[h, :h] / _SQRT2
            out[:h, h] = col
            out[n - h:, h] = col[::-1]
            out[h, :h] = row
            out[h, n - h:] = row[::-1]
            out[h, h] = even[h, h]
        out.setflags(write=False)
        return out


def unitary_from_eig(
    eig: HermitianEigenDecomposition | ParityEigenDecomposition, theta: float
) -> np.ndarray | ParityUnitary:
    """Assemble ``exp(-i*theta*G)`` from a precomputed decomposition of G.

    A :class:`HermitianEigenDecomposition` gives a read-only N x N array.
    A :class:`ParityEigenDecomposition` is assembled block by block and
    gives a :class:`ParityUnitary` of the two read-only blocks.  Every
    assembled block is unitary to 1e-10: certified by its decomposition's
    ``unitarity_bound``, or else checked with a dense product, which
    raises ``ArithmeticError`` if it fails.
    """
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    if isinstance(eig, ParityEigenDecomposition):
        return ParityUnitary(_unitary_block(eig.even, theta), _unitary_block(eig.odd, theta))
    return _unitary_block(eig, theta)
