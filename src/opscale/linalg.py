"""Dense complex linear algebra helpers.

This module is the numerical engine for the rest of the package: matrix
arithmetic with shape checking, validated Hermitian eigendecompositions,
and unitary matrix functions ``exp(-i*theta*G)`` of Hermitian generators.

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
block at a time, checks each block's unitarity, and scatters the blocks
back onto the original index order.  Two half-size blocks cost about a
quarter of the dense eigensolve and assembly.

All functions are pure and operate on immutable inputs, so they are safe
to call concurrently from multiple threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "HermitianEigenDecomposition",
    "ParityEigenDecomposition",
    "matmul",
    "adjoint",
    "hermitian_eig",
    "parity_eig",
    "unitary_from_eig",
    "unitary_function_of_hermitian",
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


def _as_matrix(a) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got array of ndim {a.ndim}")
    if not np.all(np.isfinite(a.view(float) if a.dtype.kind == "c" else a)):
        raise ValueError("matrix contains non-finite entries")
    return a


def matmul(a, b) -> np.ndarray:
    """Matrix product with explicit conformability checking.

    Parameters
    ----------
    a, b : array_like
        Matrices with ``a.shape[1] == b.shape[0]``.

    Returns
    -------
    numpy.ndarray
        The standard product, shape ``(a.rows, b.cols)``.
    """
    a = _as_matrix(a)
    b = _as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(
            f"dimension mismatch: ({a.shape[0]}x{a.shape[1]}) @ ({b.shape[0]}x{b.shape[1]})"
        )
    return a @ b


def adjoint(a) -> np.ndarray:
    """Conjugate transpose of ``a``."""
    return _as_matrix(a).conj().T


@dataclass(frozen=True, eq=False)
class HermitianEigenDecomposition:
    """Validated spectral decomposition ``A = V diag(eigenvalues) V^H``.

    Attributes
    ----------
    eigenvalues : numpy.ndarray
        Real eigenvalues in ascending order.
    eigenvectors : numpy.ndarray
        Unitary matrix whose column ``k`` pairs with ``eigenvalues[k]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


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
    """

    even: HermitianEigenDecomposition
    odd: HermitianEigenDecomposition


def hermitian_eig(a, tol: float = 1e-12) -> HermitianEigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, with pre/post validation.

    Parameters
    ----------
    a : array_like
        Square matrix, Hermitian within ``1e-10 * (1 + max|a|)``.
    tol : float
        Floor for the accepted reconstruction residual, relative to
        ``1 + max|a|``.  Retained from the sweep-based solver interface;
        the effective acceptance threshold is ``max(tol, 1e-9)``.

    Returns
    -------
    HermitianEigenDecomposition
        Ascending eigenvalues and orthonormal eigenvectors.

    Raises
    ------
    ValueError
        If ``a`` is not square, not finite, not Hermitian within
        tolerance, or ``tol`` is not positive.
    ArithmeticError
        If the solver fails to converge or the decomposition does not
        reproduce ``a`` within tolerance.
    """
    a = _as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"hermitian_eig requires a square matrix, got {a.shape}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
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
    n = a.shape[0]
    gram_resid = abs(eigenvectors.conj().T @ eigenvectors - np.eye(n)).max(initial=0.0)
    if gram_resid >= ORTHONORMALITY_TOL:
        raise ArithmeticError(
            f"eigenvector columns not orthonormal: max|V^H V - I| = {gram_resid:.3e}"
        )
    recon_resid = abs(a @ eigenvectors - eigenvectors * eigenvalues).max(initial=0.0)
    if recon_resid >= max(tol, RESIDUAL_RTOL) * scale:
        raise ArithmeticError(
            f"eigendecomposition residual {recon_resid:.3e} exceeds tolerance"
        )
    eigenvalues.setflags(write=False)
    eigenvectors.setflags(write=False)
    return HermitianEigenDecomposition(eigenvalues, eigenvectors)


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
    return ParityEigenDecomposition(hermitian_eig(even), hermitian_eig(p - q))


def _unitary_block(eig: HermitianEigenDecomposition, theta: float) -> np.ndarray:
    phases = np.exp(-1j * theta * eig.eigenvalues)
    out = (eig.eigenvectors * phases) @ eig.eigenvectors.conj().T
    unit_resid = abs(out.conj().T @ out - np.eye(out.shape[0])).max(initial=0.0)
    if unit_resid >= UNITARITY_TOL:
        raise ArithmeticError(
            f"matrix function lost unitarity: max|M^H M - I| = {unit_resid:.3e}"
        )
    return out


def _unfold_parity(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """Map a block-diagonal operator on the parity basis back to index order."""
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
        col = even[:h, h] / math.sqrt(2.0)
        row = even[h, :h] / math.sqrt(2.0)
        out[:h, h] = col
        out[n - h:, h] = col[::-1]
        out[h, :h] = row
        out[h, n - h:] = row[::-1]
        out[h, h] = even[h, h]
    return out


def unitary_from_eig(
    eig: HermitianEigenDecomposition | ParityEigenDecomposition, theta: float
) -> np.ndarray:
    """Assemble ``exp(-i*theta*G)`` from a precomputed decomposition of G.

    A :class:`ParityEigenDecomposition` is assembled block by block, each
    block checked for unitarity to 1e-10, and scattered back into one
    N x N matrix in the original index order.
    """
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    if isinstance(eig, ParityEigenDecomposition):
        return _unfold_parity(
            _unitary_block(eig.even, theta), _unitary_block(eig.odd, theta)
        )
    return _unitary_block(eig, theta)


def unitary_function_of_hermitian(g, theta: float) -> np.ndarray:
    """Unitary matrix function ``exp(-i*theta*g)`` of a Hermitian ``g``.

    Computed spectrally: ``V diag(exp(-i*theta*lam_k)) V^H``.  The spectral
    route keeps the result unitary up to eigenvector orthonormality, which
    is verified to 1e-10 before returning.

    Parameters
    ----------
    g : array_like
        Hermitian matrix (validated as in :func:`hermitian_eig`).
    theta : float
        Real, finite exponent scale.
    """
    return unitary_from_eig(hermitian_eig(g), theta)
