"""Dilated discrete Hermite-function scaling (the CDDHF comparison method).

This module implements the eigenbasis route to discrete scaling: build
the centered discrete dilated Hermite functions (CDDHFs) H_{p,M} as
eigenvectors of the commuting-operator combination

    S(M) = M^4 * D^2 + U^2,

expand the input signal in the M = 1 basis, and resynthesize the same
coefficients in the target-M basis.  Mapping one orthonormal basis onto
another, the resulting transform is unitary for every M.

Indexing here deliberately differs from the rest of the package: the
matrices use plain 0-based rows m = 0..N-1 with the centering folded into
the entries via the (N-1)/2 shift, exactly as this method is defined in
the source literature, rather than being remapped onto the half-integer
grid labels used elsewhere.  Concretely,

    U^2[m, m] = (m - (N-1)/2)^2,
    D^2       = F U^2 F^-1,

with F the standard centered DFT matrix

    F[m, n] = exp(-2j*pi*(m-(N-1)/2)*(n-(N-1)/2)/N) / sqrt(N),

the cached :func:`~opscale.dft.dft_matrix` of :func:`pei_scheme` (its
labels ``m - (N-1)/2`` are the centered scheme's for even N and the
ordinary scheme's for odd N).  :func:`pei_d_squared` builds D^2 for N
alone from that F, whose unitarity :mod:`opscale.dft` checked when it
built it, not measured again.

Both S-terms are positive semidefinite and, for this F, D^2 comes out
real symmetric (verified numerically; the imaginary rounding residue is
required to stay below 1e-10 and is scrubbed before eigensolving), so
the CDDHFs are real vectors, as in the source literature.

Conventions the eigenproblem itself does not fix (and which are
therefore implementation decisions, recorded here and in basis
metadata):

* Ordering: ascending eigenvalue.  This is not Hermite order p
  throughout.  Column p has p sign changes, as a Hermite function of
  order p does, except near the top of the spectrum, where ascending
  order interleaves the even and odd vectors out of sequence and
  adjacent columns swap: columns 6-7 at N = 8 have 7 and 6 sign changes,
  columns 12-15 at N = 16 have 13, 12, 15 and 14 (acceptance criterion
  7 fails on them).  The fix, interleaving the two parity classes, moves
  pinned benchmark cells and is ROADMAP Direction 1.
* Sign: for M = 1, each vector is flipped so its largest-magnitude entry
  is positive (ties broken by lowest index); for M != 1, so that
  <H_{p,M}, H_{p,1}> >= 0, falling back to the M = 1 rule when that
  inner product is negligibly small.  Deterministic across runs and
  continuity-preserving in M.
* Degenerate eigenvalues: paired strictly by sorted position between the
  M = 1 and M != 1 bases.  Near-degeneracies (gap < 1e-8) are logged, as
  pairing-by-position is the one place where they could matter.

``D^2`` does not depend on M, so it is kept per N, charged its bytes,
in the LRU cache :data:`opscale.cache.grids`, and shared by the bases of
every M.  The bases themselves are kept, read-only, in the LRU cache
:data:`opscale.cache.shared` that also holds the scaling operators,
keyed on ``(N, M)`` and charged for their vectors plus eigenvalues.  An
evicted D^2 or basis is rebuilt by the same products, ``eigh`` and sign
fixing and comes back bit-identical.  The caches' locks guard only
their bookkeeping, so concurrent callers are safe, and a key two threads
miss at once is built once.  N, M and the signal are checked by the
helpers of :mod:`opscale.dft`; signals must be finite.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .cache import grids, shared
from .dft import IndexScheme, as_sample_count, as_scaling_factor, as_signal, dft_matrix
from .linalg import _largest_entry_negative, _real_dot

__all__ = [
    "CddhfBasis",
    "pei_scheme",
    "pei_u_squared",
    "pei_d_squared",
    "cddhf_basis",
    "pei_scale",
]

logger = logging.getLogger(__name__)

#: Eigenvalue gaps below this are logged as near-degeneracies.
NEAR_DEGENERACY_GAP = 1e-8


def _u_squared_diagonal(n_samples: int) -> np.ndarray:
    m = np.arange(n_samples, dtype=float) - (n_samples - 1) / 2.0
    return m * m


def pei_u_squared(n_samples: int) -> np.ndarray:
    """Diagonal squared-coordinate matrix, 0-based centered indexing.

    ``U^2[m, m] = (m - (N-1)/2)^2`` for m = 0..N-1.
    """
    return np.diag(_u_squared_diagonal(as_sample_count(n_samples)))


def pei_scheme(n_samples: int) -> IndexScheme:
    """The scheme whose labels are ``m - (N-1)/2``: centered for even N, ordinary for odd N.

    The standard centered DFT of this method is ``dft_matrix(N,
    pei_scheme(N))``.
    """
    return IndexScheme.CENTERED if as_sample_count(n_samples) % 2 == 0 else IndexScheme.ORDINARY


def pei_d_squared(n_samples: int) -> np.ndarray:
    """Squared-differentiation matrix by duality: ``D^2 = F U^2 F^-1``.

    F is the standard centered DFT, ``dft_matrix(N, pei_scheme(N))``.
    ``U^2`` is diagonal, so ``F U^2`` is F with its columns scaled, which
    leaves one dense product.  F is exactly symmetric, so ``F^-1 = F^H =
    conj(F)`` and the product is ``conj(conj(F U^2) F)``, both
    conjugations in place, the second as ``0 - Im``, which leaves an
    exactly zero imaginary part +0, as the product with ``F^H`` does:
    bit-identical to ``(F U^2) @ F^H``, without an N x N copy of ``F^H``.
    The result is complex, real to rounding.
    Raises ``ValueError`` if ``n_samples`` is not a positive integer, and
    ``ArithmeticError`` if F fails its unitarity check.
    """
    n_samples = as_sample_count(n_samples)
    f = dft_matrix(n_samples, pei_scheme(n_samples))
    scaled = f * _u_squared_diagonal(n_samples)
    d2 = np.conjugate(scaled, out=scaled) @ f
    np.subtract(0.0, d2.imag, out=d2.imag)
    return d2


@grids.memoize(nbytes=lambda kept: kept[0].nbytes)
def _d_squared(n_samples: int) -> tuple[np.ndarray, float]:
    """Real part of ``D^2`` and the largest magnitude of its imaginary part."""
    d2 = pei_d_squared(n_samples)
    d2_real = d2.real.copy()
    d2_real.setflags(write=False)
    imag = d2.imag
    return d2_real, float(max(imag.max(), -imag.min()))


@dataclass(frozen=True, eq=False)
class CddhfBasis:
    """Ordered, sign-fixed CDDHF eigenbasis for one ``(N, M)``.

    Attributes
    ----------
    n_samples : int
    m_factor : float
    vectors : numpy.ndarray
        Real N x N matrix whose column p is H_{p,M}.
    eigenvalues : numpy.ndarray
        Ascending eigenvalues of ``M^4 D^2 + U^2``, paired with columns.
    """

    n_samples: int
    m_factor: float
    vectors: np.ndarray
    eigenvalues: np.ndarray


@shared.memoize(nbytes=lambda basis: basis.vectors.nbytes + basis.eigenvalues.nbytes)
def _cddhf_basis_cached(n_samples: int, m_factor: float) -> CddhfBasis:
    d2_real, d2_imag_max = _d_squared(n_samples)
    m4 = m_factor ** 4
    s = m4 * d2_real
    s.reshape(-1)[::n_samples + 1] += _u_squared_diagonal(n_samples)
    # The imaginary part of S is M^4 Im(D^2) and must be pure rounding
    # residue.  The bound scales with the matrix magnitude: at large N and
    # M the entries reach ~1e6 and their roundoff legitimately exceeds any
    # absolute threshold.  Rounding is monotonic, so M^4 max|Im D^2| is
    # exactly max|Im S|, and the real part above is exactly Re S.
    imag_resid = m4 * d2_imag_max
    if imag_resid >= 1e-10 * (1.0 + abs(s).max()):
        raise ArithmeticError(
            f"CDDHF matrix is not numerically real: max|Im| = {imag_resid:.3e}"
        )
    s = (s + s.T) / 2.0
    eigenvalues, vectors = np.linalg.eigh(s)

    gaps = np.diff(eigenvalues)
    near = np.flatnonzero(gaps < NEAR_DEGENERACY_GAP)
    if near.size:
        logger.info(
            "near-degenerate CDDHF eigenvalues at N=%d, M=%g: orders %s (gap < %g)",
            n_samples, m_factor, near.tolist(), NEAR_DEGENERACY_GAP,
        )

    if m_factor == 1.0:
        flip = _largest_entry_negative(vectors)
    else:
        overlap = np.einsum("ij,ij->j", cddhf_basis(n_samples, 1.0).vectors, vectors)
        flip = np.where(abs(overlap) < 1e-12, _largest_entry_negative(vectors), overlap < 0)
    vectors *= np.where(flip, -1.0, 1.0)

    vectors.setflags(write=False)
    eigenvalues.setflags(write=False)
    return CddhfBasis(n_samples, m_factor, vectors, eigenvalues)


def cddhf_basis(n_samples: int, m_factor: float) -> CddhfBasis:
    """Build (or fetch the cached) CDDHF basis of ``M^4 D^2 + U^2``.

    Eigenvectors are ordered by ascending eigenvalue, which departs from
    Hermite order p at the top of the spectrum, and sign-fixed
    deterministically; see the module docstring for the conventions.
    """
    return _cddhf_basis_cached(as_sample_count(n_samples), as_scaling_factor(m_factor))


def pei_scale(signal, m_factor: float) -> np.ndarray:
    """Scale a signal by expansion in H_{p,1} and resynthesis in H_{p,M}.

    Computes ``f_M = sum_p <H_{p,1}, f> H_{p,M}``.  For M = 1 this is the
    identity (expansion and resynthesis in the same orthonormal basis);
    for any M it preserves the norm to 1e-8 relative.

    Raises
    ------
    ValueError
        If the signal is not one-dimensional or has a NaN or infinite
        sample, or ``m_factor`` is not positive and finite.
    """
    vec = np.ascontiguousarray(as_signal(signal))
    m_factor = as_scaling_factor(m_factor)
    base = cddhf_basis(vec.shape[0], 1.0)
    target = cddhf_basis(vec.shape[0], m_factor)
    # Real bases on the signal's real and imaginary parts: no complex copy of either.
    return _real_dot(target.vectors, _real_dot(base.vectors.T, vec))
