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

    F[m, n] = exp(-2j*pi*(m-(N-1)/2)*(n-(N-1)/2)/N) / sqrt(N).

Both S-terms are positive semidefinite and, for this F, D^2 comes out
real symmetric (verified numerically; the imaginary rounding residue is
required to stay below 1e-10 and is scrubbed before eigensolving), so
the CDDHFs are real vectors, as in the source literature.

Conventions the eigenproblem itself does not fix (and which are
therefore implementation decisions, recorded here and in basis
metadata):

* Ordering: ascending eigenvalue, which matches Hermite order p — both
  terms of S are positive semidefinite and the continuous eigenvalue
  grows with p.  A zero-crossing count oracle in the test suite checks
  this identification at desk scale.
* Sign: for M = 1, each vector is flipped so its largest-magnitude entry
  is positive (ties broken by lowest index); for M != 1, so that
  <H_{p,M}, H_{p,1}> >= 0, falling back to the M = 1 rule when that
  inner product is negligibly small.  Deterministic across runs and
  continuity-preserving in M.
* Degenerate eigenvalues: paired strictly by sorted position between the
  M = 1 and M != 1 bases.  Near-degeneracies (gap < 1e-8) are logged, as
  pairing-by-position is the one place where they could matter.

Bases are memoized per (N, M) under the same read-mostly cache contract
as the scaling matrices.  ``D^2`` does not depend on M, so it is built
once per N and shared by the bases of every M.  Signals must be finite.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dft import IndexScheme, dft_matrix

__all__ = [
    "CddhfBasis",
    "pei_centered_dft",
    "pei_u_squared",
    "pei_d_squared",
    "cddhf_basis",
    "pei_scale",
]

logger = logging.getLogger(__name__)

#: Eigenvalue gaps below this are logged as near-degeneracies.
NEAR_DEGENERACY_GAP = 1e-8


def pei_u_squared(n_samples: int) -> np.ndarray:
    """Diagonal squared-coordinate matrix, 0-based centered indexing.

    ``U^2[m, m] = (m - (N-1)/2)^2`` for m = 0..N-1.
    """
    n_samples = int(n_samples)
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    m = np.arange(n_samples, dtype=float) - (n_samples - 1) / 2.0
    return np.diag(m * m)


def pei_centered_dft(n_samples: int) -> np.ndarray:
    """Standard centered DFT matrix on 0-based rows/columns.

    ``F[m, n] = exp(-2j*pi*(m-(N-1)/2)*(n-(N-1)/2)/N)/sqrt(N)``.  The
    labels ``m - (N-1)/2`` are the centered scheme's for even N and the
    ordinary scheme's for odd N, so this is the cached, read-only
    :func:`~opscale.dft.dft_matrix` of that scheme.
    """
    n_samples = int(n_samples)
    scheme = IndexScheme.CENTERED if n_samples % 2 == 0 else IndexScheme.ORDINARY
    return dft_matrix(n_samples, scheme)


def pei_d_squared(u2: np.ndarray, f_centered: np.ndarray) -> np.ndarray:
    """Squared-differentiation matrix by duality: ``D^2 = F U^2 F^-1``."""
    u2 = np.asarray(u2)
    f = np.asarray(f_centered)
    if u2.shape != f.shape or f.ndim != 2 or f.shape[0] != f.shape[1]:
        raise ValueError(f"dimension mismatch: U^2 is {u2.shape}, F is {f.shape}")
    n = f.shape[0]
    unit_resid = abs(f @ f.conj().T - np.eye(n)).max()
    if unit_resid >= 1e-10:
        raise ValueError(
            f"pei_d_squared requires a unitary F: max|F F^H - I| = {unit_resid:.3e}"
        )
    return f @ u2 @ f.conj().T


@lru_cache(maxsize=None)
def _d_squared(n_samples: int) -> tuple[np.ndarray, float]:
    """Real part of ``D^2`` and the largest magnitude of its imaginary part."""
    d2 = pei_d_squared(pei_u_squared(n_samples), pei_centered_dft(n_samples))
    d2_real = d2.real.copy()
    d2_real.setflags(write=False)
    return d2_real, float(abs(d2.imag).max())


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


def _fix_sign_largest_entry(v: np.ndarray) -> np.ndarray:
    # argmax returns the first maximizer, which is exactly the
    # lowest-index tie-break the convention asks for.
    return -v if v[int(np.argmax(np.abs(v)))] < 0 else v


@lru_cache(maxsize=None)
def _cddhf_basis_cached(n_samples: int, m_factor: float) -> CddhfBasis:
    d2_real, d2_imag_max = _d_squared(n_samples)
    m4 = m_factor ** 4
    s = m4 * d2_real + pei_u_squared(n_samples)
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
        for p in range(n_samples):
            vectors[:, p] = _fix_sign_largest_entry(vectors[:, p])
    else:
        ref = cddhf_basis(n_samples, 1.0).vectors
        for p in range(n_samples):
            overlap = float(ref[:, p] @ vectors[:, p])
            if abs(overlap) < 1e-12:
                vectors[:, p] = _fix_sign_largest_entry(vectors[:, p])
            elif overlap < 0:
                vectors[:, p] = -vectors[:, p]

    vectors.setflags(write=False)
    eigenvalues.setflags(write=False)
    return CddhfBasis(n_samples, m_factor, vectors, eigenvalues)


def cddhf_basis(n_samples: int, m_factor: float) -> CddhfBasis:
    """Build (or fetch the cached) CDDHF basis of ``M^4 D^2 + U^2``.

    Eigenvectors are ordered by ascending eigenvalue (Hermite order p)
    and sign-fixed deterministically; see the module docstring for the
    conventions.
    """
    n_samples = int(n_samples)
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    m_factor = float(m_factor)
    if not math.isfinite(m_factor) or m_factor <= 0:
        raise ValueError(f"m_factor must be positive and finite, got {m_factor}")
    return _cddhf_basis_cached(n_samples, m_factor)


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
    vec = np.asarray(signal, dtype=complex)
    if vec.ndim != 1:
        raise ValueError(f"signal must be one-dimensional, got shape {vec.shape}")
    if not np.isfinite(vec).all():
        raise ValueError("signal contains non-finite samples")
    n_samples = vec.shape[0]
    base = cddhf_basis(n_samples, 1.0)
    target = cddhf_basis(n_samples, float(m_factor))
    coefficients = base.vectors.T @ vec
    return target.vectors @ coefficients
