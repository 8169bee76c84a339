"""Dense complex linear algebra helpers.

This module is the numerical engine for the rest of the package:
validated Hermitian eigendecompositions and unitary matrix functions
``exp(-i*theta*G)`` of Hermitian generators.

The heavy lifting is delegated to LAPACK through :func:`numpy.linalg.eigh`;
what this module adds is the contract enforcement the callers rely on:
inputs are checked for Hermiticity before the solve
(:func:`_hermiticity_residual`), and every decomposition is verified
(orthonormal eigenvectors, small reconstruction residual) before it is
handed back.  :func:`hermitian_eig` measures both on ``(A, V)`` with
complex products.  A generator that fails these checks indicates a
construction bug upstream, and raising here localizes it.

The scaling generator is decomposed through a real form.  For a
Hermitian A and a unitary Z with ``Z^H A Z`` real, that form ``S`` is
real symmetric, a real ``eigh`` gives ``S = Q diag(lam) Q^T``, and ``A =
V diag(lam) V^H`` with ``V = Z Q``: a real solve, a fifth to a quarter
of the complex one's cost at N = 512-1024.  For the
generator G, ``G = F^H conj(G) F`` with F the unitary DFT; ``F^4 = I``,
so ``Z = (F^H)^(1/2)`` is a cubic polynomial in F, symmetric with ``Z F =
Z^H``, and ``conj(S) = Z conj(G) Z^H = (Z F) G (Z F)^H = S``
(:mod:`opscale.operators` has the coefficients and the transform).
:func:`_real_part` checks that the computed S is real to rounding,
``max|Im S| < 1e-10 * (1 + max|A|)``, before its real part is solved.
:func:`_solve_real_form` solves it and certifies ``(A, V)`` from ``(S, Q)``
in real arithmetic, with an a priori bound on the transform Z (steps 6-8
below), so neither A nor a complex N x N product is needed for the
checks.

A Hermitian matrix that commutes with index reversal ``J`` (``A[i, j] ==
A[N-1-i, N-1-j]``) splits exactly into two blocks in the orthonormal
basis of reversal-even vectors ``(e_k + e_{N-1-k})/sqrt(2)`` (plus the
middle unit vector when N is odd) and reversal-odd vectors
``(e_k - e_{N-1-k})/sqrt(2)``, ``k < N//2``.  :func:`_reversal_fold`
checks the symmetry in O(N^2) and folds the matrix into its even block
of size ``ceil(N/2)`` and odd block of size ``floor(N/2)``, which are
decomposed separately into a :class:`ParityEigenDecomposition`.  From
such a decomposition :func:`unitary_from_eig` assembles
``exp(-i*theta*A)`` one block at a time, certifies or checks each
block's unitarity, and returns the two blocks as a
:class:`ParityUnitary`.  Two half-size blocks cost about a quarter of
the dense eigensolve and assembly, and half of its memory.  A
:class:`ParityUnitary` is applied to a vector blockwise, reading half
the bytes of the dense matrix, and :meth:`ParityUnitary.dense` scatters
the blocks back into the N x N matrix in the original index order.
A block ``V P V^H`` and its dense check ``M^H M`` are formed 128
columns of the right factor at a time: the same products, without an
N x N copy of ``V^H`` or ``M^H`` among the temporaries.

:func:`apply_from_eig` applies ``exp(-i*theta*A)`` to one vector
without assembling it, in factored form ``V (p * (V^H x))``: two
matrix-vector products per block, O(k^2) instead of the assembly's
O(k^3), but reading V twice where an assembled block is read once.
``V^H x`` is computed as ``conj(x^H V)``, so no copy of ``V^H`` is made.
On a :class:`ParityEigenDecomposition` the vector is folded onto the
parity bases, each block applied, and the results unfolded, by the same
code as :meth:`ParityUnitary.__matmul__`.  The factored form runs only
on a decomposition whose every block ``factored_bound`` certifies; it
raises ``ArithmeticError`` elsewhere, where the assembled block and its
dense check are the only path.

Each decomposition keeps the residuals its checks measured (or, for a
real form, bounded), as plain floats: :class:`HermitianEigenDecomposition`
the Hermiticity, gram and reconstruction residuals,
:class:`ParityEigenDecomposition` the reversal residual.  From a bound
on ``||V^H V - I||_2`` it also keeps ``unitarity_bound``, an
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
and 2.5e-10 at k = 1024, where the dense check runs.

5. The factored product ``y^ = fl(V fl(p^ * fl(V^H x)))`` of
   :func:`apply_from_eig`.  Let ``nu = sqrt(1 + k delta) >= ||V||_2``
   (step 2) and ``a = sqrt(k) nu gamma_{k+2}``.  The conjugations are
   exact, so ``c^ = fl(V^H x) = V^H x + e1`` with ``|e1| <= gamma_{k+2}
   |V^H| |x|`` and, as in step 4, ``||e1|| <= a ||x||``.  The phases
   give ``w^ = P c^ + e2`` with ``|e2| <= beta |c^|`` (step 3), so
   ``||e2|| <= beta (nu + a) ||x||`` and ``||w^|| <= (1 + beta) (nu + a)
   ||x||``.  The last product gives ``y^ = V w^ + e3`` with ``||e3|| <=
   a ||w^||``.  Hence ``y^ - M x = V (P e1 + e2) + e3`` and ``||y^ - M
   x|| <= eps ||x||``, ``eps = nu a + (nu + a) (nu beta + a (1 +
   beta))``.  By step 2, ``||M x||^2 / ||x||^2`` lies between ``2 - (1 +
   k delta)^2`` and ``(1 + k delta)^2``, so ``| ||y^||^2 / ||x||^2 - 1 |
   <= (1 + k delta + eps)^2 - 1`` (for a bound below 1).  On parity
   blocks this holds per block; the fold and unfold, sums of two samples
   and exact halvings, add a few ``u``, as they do to an assembled
   :class:`ParityUnitary`.

That last quantity is ``factored_bound``, the factored apply's
counterpart of ``unitarity_bound``: to first order ``2 k delta + 4
sqrt(k) gamma_{k+2} + 2 beta``.  From a measured gram residual of a few
1e-15 it stops certifying at k of about 635, a dozen sizes before
``unitarity_bound`` does (the real form's bounds stop a little earlier,
see below); both certify every block up to k = 512 and neither the
dense k = 1024.  Neither bound is sounder
than the gram residual it is given, so a hand-built decomposition must
carry the measured ``max|V^H V - I|`` of its eigenvectors.

Steps 2-5 use ``delta`` only through ``k delta``, a bound on ``||V^H V -
I||_2``.  A decomposition keeps that bound as ``gram_bound``; from a
measured gram residual it is ``k delta`` of step 1.  A real-form
decomposition bounds it without forming ``V^H V``:

6. The transform (an a priori bound).  numpy (>= 2.0) computes
   ``fft`` with pocketfft, whose accuracy this module assumes as
   follows (Higham, ch. 24; ``mu = 4u`` bounds the error of each
   twiddle and chirp factor).  Below length 50, or when the largest
   prime factor p of n has ``p^2 <= n``, or when pocketfft's cost rule
   prefers it, the plan is mixed-radix Cooley-Tukey: one pass per prime
   factor r of n (its radix-4 and radix-8 passes count as two and three
   radix-2 passes).  A pass is ``sqrt(r)`` times a unitary map; its
   length-r sums of r products err by ``sqrt(r) (gamma_{r+2} + mu)``
   relative in the 2-norm, and its twiddle products by ``mu + sqrt(2)
   gamma_2``, so ``eta_r = (1 + sqrt(r) (gamma_{r+2} + mu)) (1 + mu +
   sqrt(2) gamma_2) - 1`` and ``eta_ct(n) = prod_r (1 + eta_r) - 1``.
   Otherwise the plan is Bluestein's: ``y = conj(b) * C (conj(b) *
   x)``, b the chirp, C a circular convolution of smooth length ``n2 >=
   2n - 1`` applied by two Cooley-Tukey FFTs around a product with the
   precomputed spectrum of the chirp.  With ``kappa = max|spectrum| /
   sqrt(n) <= 2.25`` (the largest over n = 50..4096 is 2.18, at n = 52),
   each FFT error and each rounding inside C is amplified by at most
   kappa relative to ``||y|| = sqrt(n) ||x||``.  The spectrum is assumed
   accurate to ``eta_ct(n2) + 2u`` times its largest entry in every entry
   (the normwise bound spread evenly; a worst case may gather it into
   one entry, sqrt(n2) times larger).  To first order, ``eta_bs(n) =
   kappa (3 eta_ct(n2) + 12u) + 7u``.  :func:`fft_error` evaluates
   ``eta_fft(n)``.  The transform Z of :mod:`opscale.operators`, one FFT
   and about ten pointwise products with its coefficients and label
   phases, errs by at most ``eta = eta_fft(N) + 100u`` relative on every
   vector.  So the computed ``V = Z Q + E`` with ``||E e_j|| <= eta
   ||q_j||`` for each column, Z the exact unitary transform.
7. The gram of V.  The measured ``d_Q = max|Q^T Q - I|`` (a real product)
   bounds ``delta_Q = max|Q^T Q - I|`` as in step 1, and ``||q_j||^2 <= 1
   + delta_Q``.  ``V^H V - I = (Q^T Q - I) + Q^T Z^H E + E^H Z Q + E^H E``,
   so each entry is within ``delta_V = delta_Q + (2 eta + eta^2) (1 +
   delta_Q)`` (``gram_residual``) and, with ``||E||_F <= eta sqrt(k (1 +
   delta_Q))`` and ``||Z Q||_2 = ||Q||_2``, ``||V^H V - I||_2 <= k delta_Q
   + 2 sqrt(1 + k delta_Q) e + e^2``, ``e = eta sqrt(k (1 + delta_Q))``
   (``gram_bound``).  The transform enters as ``sqrt(k) eta``, not ``k
   eta``.  Eta is assumed, not measured, so two runtime checks test what
   it rests on.  The computed column norms ``||v_j||^2`` must equal
   ``||q_j||^2`` to ``(1 + eta)^2 (1 + gamma_{2k}) / (1 - gamma_k) - 1``
   relative: that catches a transform that is not unitary, such as one
   that scales its output.  And the derivation uses that Z is symmetric:
   the form is computed as ``conj(Z conj(A Z^T)) = (Z^T)^H A Z^T`` (the
   row transforms apply Z^T), and ``V = Z Q`` diagonalizes A only if
   ``Z^T Q = Z Q``.  A probe pair checks it, ``|r^T Z p - p^T Z r| <= (2
   eta + 2 gamma_{k+2} (1 + eta)) ||p|| ||r||``, which catches a
   transform that is unitary but not symmetric, such as one that flips
   the signs of some outputs.
8. The reconstruction.  Let ``S = Z^H A Z`` exactly (Hermitian; real
   only to the extent that A has the Fourier symmetry), ``s`` the real
   part of the computed form, ``rho`` its measured ``max|Im|`` and ``r =
   max|s Q - Q diag(lam)|`` measured in real arithmetic.  The form is two
   transforms of the rows and columns of A, so it is within ``(2 eta +
   eta^2) ||A||_F`` of S in the Frobenius norm, and ``||S - s||_2 <= (2
   eta + eta^2) ||A||_F + k rho``; ``||A||_F = ||S||_F <= m_A = (||s||_F +
   k rho) / (1 - 2 eta - eta^2)``.  ``A V - V diag(lam) = Z (S Q - Q
   diag(lam)) + A E - E diag(lam)``, and ``S Q - Q diag(lam) = (s Q - Q
   diag(lam)) + (S - s) Q``; the product ``s Q`` errs by ``gamma_k |s|
   |Q|``, whose columns have norm ``<= gamma_k ||s||_F ||q_j||``.  Every
   entry of a column is at most its norm, so ``max|A V - V diag(lam)| <=
   sqrt(k) r / (1 - u) + sqrt(1 + delta_Q) (gamma_{k+2} ||s||_F + (3 eta
   + eta^2) m_A + k rho + (gamma_2 + eta) max|lam|)``
   (``reconstruction_residual``), held to the same ``1e-9 * (1 +
   max|A|)`` as a measured one.

With ``eta`` about 3e-14 (Cooley-Tukey, N = 1024) to 1.6e-13 (Bluestein,
N = 1021), the transform adds ``2 sqrt(k) eta`` to ``k delta_Q``.
Against the bounds from a measured complex gram, that term dominates on
small blocks, whose bounds stay far below 1e-10 (1.2-3.9 times as large
for k = 65-128, up to 18 times below), and adds 1.3-26 % from k = 513
on.  Every block up to k = 512 stays certified, and k = 1024 stays
uncertified; near the edge, ``factored_bound`` now certifies every
whole grid up to N = 590 (some to 625; 632 before) and
``unitarity_bound`` every one up to 600 (some to 637; 645 before).  The
checks cost two real k x k products, ``Q^T Q`` (a symmetric rank-k
update) and ``s Q``, instead of two complex ones.

Every function except :func:`identity_residual`, which overwrites the
product it is given, and :func:`_solve_real_form`, which fills and marks
read-only the arrays it is given, is pure and operates on immutable
inputs, so they are safe to call concurrently from multiple threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

__all__ = [
    "HermitianEigenDecomposition",
    "ParityEigenDecomposition",
    "ParityUnitary",
    "apply_from_eig",
    "hermitian_eig",
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

#: Relative max-abs tolerance for the imaginary part of a real form ``Z^H A Z``.
REALNESS_RTOL = 1e-10

#: Max-abs tolerance for the unitarity ``M^H M - I`` of an assembled block.
UNITARITY_TOL = 1e-10

#: Columns per product when a block is assembled and checked.
_COLUMN_BLOCK = 128

#: Unit roundoff ``u`` of float64.
_UNIT_ROUNDOFF = float(np.finfo(float).eps) / 2


def _gamma(n: int) -> float:
    """Higham's ``gamma_n = n u / (1 - n u)``."""
    return n * _UNIT_ROUNDOFF / (1 - n * _UNIT_ROUNDOFF)


def _entry_bound(gram_residual: float, k: int) -> float:
    """Step 1: a bound on the exact ``max|V^H V - I|`` from the computed one."""
    g = _gamma(k + 2)
    return (gram_residual * (1 + _gamma(3)) + g) / (1 - g)


def _bounds(gram_bound: float, k: int) -> tuple[float, float]:
    """``unitarity_bound`` and ``factored_bound`` of a block of k eigenvectors.

    ``gram_bound`` bounds ``||V^H V - I||_2``; the derivation is in the
    module docstring (steps 2-4, then 5).
    """
    g = _gamma(k + 2)
    beta = _gamma(4) + (1 + _gamma(4)) * math.sqrt(2.0) * _gamma(2)
    g_prime = g + beta * (1 + g)
    unitarity = ((1 + gram_bound) * (1 + math.sqrt(k) * g_prime)) ** 2 - 1
    nu = math.sqrt(1 + gram_bound)
    a = math.sqrt(k) * nu * g
    eps = nu * a + (nu + a) * (nu * beta + a * (1 + beta))
    return unitarity, (1 + gram_bound + eps) ** 2 - 1


#: Assumed error of an FFT twiddle or chirp factor (step 6).
_TWIDDLE_ERROR = 4 * _UNIT_ROUNDOFF

#: Assumed bound on ``max|chirp spectrum| / sqrt(n)`` in Bluestein's plan (step 6).
_CHIRP_SPECTRUM = 2.25


def _prime_factors(n: int) -> list[int]:
    """The prime factors of n, with multiplicity, in ascending order."""
    factors, p = [], 2
    while p * p <= n:
        while n % p == 0:
            factors.append(p)
            n //= p
        p += 1
    return factors + [n] if n > 1 else factors


def _good_size(n: int) -> int:
    """The smallest product of 2, 3, 5, 7 and 11 that is at least n."""
    while max(_prime_factors(n), default=1) > 11:
        n += 1
    return n


def _cost_guess(n: int) -> float:
    """pocketfft's operation-count estimate for one FFT of length n."""
    factors = _prime_factors(n)
    twos = factors.count(2)
    cost = 2 * (twos // 2) + 1.1 * (twos % 2)  # a factor 4 costs 2, a last factor 2 1.1
    cost += sum(r if r <= 5 else 1.1 * r for r in factors if r > 2)
    return cost * n


def _cooley_tukey_error(n: int) -> float:
    """``eta_ct(n)`` of step 6: one pass per prime factor."""
    eta = 1.0
    for r in _prime_factors(n):
        eta *= ((1 + math.sqrt(r) * (_gamma(r + 2) + _TWIDDLE_ERROR))
                * (1 + _TWIDDLE_ERROR + math.sqrt(2.0) * _gamma(2)))
    return eta - 1


def fft_error(n: int) -> float:
    """A bound on ``||fl(fft(x)) - fft(x)|| / ||fft(x)||`` at length n.

    ``eta_fft(n)`` of the module docstring's step 6, under its model of
    numpy's pocketfft: the plan pocketfft picks for n, Cooley-Tukey or
    Bluestein's, and that plan's error bound.
    """
    largest = max(_prime_factors(n), default=1)
    smooth = _good_size(2 * n - 1)
    if n < 50 or largest * largest <= n or 3 * _cost_guess(smooth) >= _cost_guess(n):
        return _cooley_tukey_error(n)
    return (_CHIRP_SPECTRUM * (3 * _cooley_tukey_error(smooth) + 12 * _UNIT_ROUNDOFF)
            + 7 * _UNIT_ROUNDOFF)


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
        ``max|V^H V - I|`` of the eigenvectors, as computed; for a
        real-form decomposition, a bound on it (module docstring, step 7).
    reconstruction_residual : float
        ``max|A V - V diag(eigenvalues)|``, as computed; for a real-form
        decomposition, a bound on it (step 8).
    realness_residual : float or None
        ``max|Im(Z^H A Z)|`` of the real form the eigenvalues were solved
        from (see :func:`_real_part`); None for a complex solve.
    gram_bound : float
        A bound on ``||V^H V - I||_2``: ``k`` times step 1's bound on the
        exact ``max|V^H V - I|`` when not given (or None); a real-form
        decomposition gives step 7's.
    unitarity_bound : float
        Derived from ``gram_bound``: an upper bound on ``max|M^H M - I|``
        of every block :func:`unitary_from_eig` assembles from this
        decomposition (see the module docstring).
    factored_bound : float
        Derived from ``gram_bound``: an upper bound on ``| ||y||^2 /
        ||x||^2 - 1 |`` of every ``y`` that :func:`apply_from_eig`
        computes from an ``x`` with this decomposition.
    block_size : int
        The number k of eigenvectors.
    factored_certified : bool
        Whether ``factored_bound`` is below ``UNITARITY_TOL``, so that
        :func:`apply_from_eig` may run.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    hermiticity_residual: float
    gram_residual: float
    reconstruction_residual: float
    realness_residual: float | None = None
    gram_bound: float | None = None
    unitarity_bound: float = field(init=False)
    factored_bound: float = field(init=False)
    block_size: int = field(init=False)
    factored_certified: bool = field(init=False)

    def __post_init__(self):
        k = self.eigenvectors.shape[0]
        if self.gram_bound is None:
            object.__setattr__(self, "gram_bound", k * _entry_bound(self.gram_residual, k))
        unitarity, factored = _bounds(self.gram_bound, k)
        object.__setattr__(self, "unitarity_bound", unitarity)
        object.__setattr__(self, "factored_bound", factored)
        object.__setattr__(self, "block_size", k)
        object.__setattr__(self, "factored_certified", factored < UNITARITY_TOL)


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
    block_size : int
        The size k of the larger block, the even one.
    factored_certified : bool
        Whether both blocks are, so that :func:`apply_from_eig` may run.
    """

    even: HermitianEigenDecomposition
    odd: HermitianEigenDecomposition
    reversal_residual: float
    block_size: int = field(init=False)
    factored_certified: bool = field(init=False)

    def __post_init__(self):
        certified = self.even.factored_certified and self.odd.factored_certified
        object.__setattr__(self, "block_size", self.even.block_size)
        object.__setattr__(self, "factored_certified", certified)


def _hermiticity_residual(a) -> tuple[float, float]:
    """``(1 + max|a|, max|a - a^H|)`` of a square matrix, checked.

    The first value is the scale every relative tolerance of this module
    is taken against.  Raises ``ValueError`` if ``a`` is not square or not
    finite, or not Hermitian within ``1e-10 * (1 + max|a|)``.
    """
    a = _as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got {a.shape}")
    scale = 1.0 + float(abs(a).max(initial=0.0))
    herm_resid = float(abs(a - a.conj().T).max(initial=0.0))
    if herm_resid >= HERMITICITY_RTOL * scale:
        raise ValueError(
            f"matrix is not Hermitian: max|a - a^H| = {herm_resid:.3e} "
            f"exceeds {HERMITICITY_RTOL * scale:.3e}"
        )
    return scale, herm_resid


def _real_part(s: np.ndarray, scale: float) -> tuple[np.ndarray, float]:
    """The real part of a form ``Z^H A Z`` that should be real, checked.

    ``s`` is that form, or its conjugate, computed in complex arithmetic
    for a Hermitian A and a unitary Z; its imaginary part must be
    rounding, below ``1e-10 * scale`` with ``scale = 1 + max|A|``, or
    ``ArithmeticError`` is raised.  Returns the view ``s.real`` and
    ``max|Im s|``.
    """
    imag = s.imag
    imag_resid = max(float(imag.max(initial=0.0)), -float(imag.min(initial=0.0)))
    if not imag_resid < REALNESS_RTOL * scale:
        raise ArithmeticError(
            f"real form is not real: max|Im(Z^H A Z)| = {imag_resid:.3e} "
            f"exceeds {REALNESS_RTOL * scale:.3e}"
        )
    return s.real, imag_resid


def _check_symmetric(transform, k: int, error: float) -> None:
    """Raise ``ArithmeticError`` unless ``r^T Z p = p^T Z r`` on a probe pair.

    ``transform(x)`` returns ``Z x`` for a k x 1 matrix x, within
    ``error * ||x||`` of exact.  Two fixed real chirps are transformed
    (no random generator: ``numpy.random`` costs 6 MiB to import); for a
    symmetric Z the two bilinear forms differ only by rounding, ``(2
    error + 2 gamma_{k+2} (1 + error)) ||p|| ||r||`` (module docstring,
    step 7).
    """
    t = np.arange(k, dtype=float).reshape(k, 1)
    p, r = np.cos(0.7 * t * t + t), np.sin(0.3 * t * t + 2.0 * t + 1.0)
    asym = abs(complex(r[:, 0] @ transform(p.astype(complex))[:, 0]
                       - p[:, 0] @ transform(r.astype(complex))[:, 0]))
    tol = 2 * (error + _gamma(k + 2) * (1 + error)) * float(np.linalg.norm(p) * np.linalg.norm(r))
    if not asym <= tol:
        raise ArithmeticError(
            f"transform is not symmetric: |r^T Z p - p^T Z r| = {asym:.3e} exceeds {tol:.3e}"
        )


def _solve_real_form(
    s: np.ndarray, eigenvalues: np.ndarray, transform, transform_error: float,
    scale: float, herm_resid: float, realness_resid: float,
) -> HermitianEigenDecomposition:
    """Solve a real form ``s`` of a Hermitian A, and certify ``A = V diag(lam) V^H``.

    ``s`` is the real part of the computed ``Z^H A Z``, ``(scale,
    herm_resid)`` what :func:`_hermiticity_residual` measured on A and
    ``realness_resid`` what :func:`_real_part` measured on the form.  A
    real ``eigh`` gives ``s = Q diag(lam) Q^T``; lam is written into
    ``eigenvalues``, and ``transform(q)`` returns ``V = Z Q``, each column
    within ``transform_error * ||q_j||`` of ``Z q_j``, and may overwrite
    s.  The checks use only s, Q and the column norms of V, in
    real arithmetic (module docstring, steps 6-8).  Raises
    ``ArithmeticError`` unless the bound on ``max|V^H V - I|`` is below
    1e-10, the bound on ``max|A V - V diag(lam)|`` below ``1e-9 * scale``,
    and the column norms of V those of Q within the transform's error.
    """
    k = s.shape[0]
    eta = transform_error
    try:
        lam, q = np.linalg.eigh(s)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise ArithmeticError(f"eigensolver did not converge: {exc}") from exc
    gram = q.T @ q
    q_norms = gram.diagonal().copy()
    delta_q = _entry_bound(identity_residual(gram), k)
    del gram
    gram_resid = delta_q + (2 * eta + eta * eta) * (1 + delta_q)
    if not gram_resid < ORTHONORMALITY_TOL:
        raise ArithmeticError(
            f"eigenvector columns not orthonormal: max|V^H V - I| <= {gram_resid:.3e}"
        )
    recon = s @ q
    recon -= q * lam
    s_resid = float(abs(recon).max(initial=0.0))
    del recon
    s_norm = float(np.linalg.norm(s)) * (1 + _gamma(k * k + 2))
    a_norm = (s_norm + k * realness_resid) / (1 - 2 * eta - eta * eta)
    recon_resid = math.sqrt(k) * s_resid / (1 - _UNIT_ROUNDOFF) + math.sqrt(1 + delta_q) * (
        _gamma(k + 2) * s_norm + (3 * eta + eta * eta) * a_norm + k * realness_resid
        + (_gamma(2) + eta) * float(abs(lam).max(initial=0.0))
    )
    if not recon_resid < RESIDUAL_RTOL * scale:
        raise ArithmeticError(
            f"eigendecomposition residual bound {recon_resid:.3e} exceeds tolerance"
        )
    eigenvalues[...] = lam
    v = transform(q)
    del q
    parts = v.view(float).reshape(k, k, 2)
    v_norms = np.einsum("ijc,ijc->j", parts, parts)
    drift = float(abs(v_norms - q_norms).max(initial=0.0))
    norm_tol = (1 + eta) ** 2 * (1 + _gamma(2 * k)) / (1 - _gamma(k)) - 1
    if not drift <= norm_tol * float(q_norms.max(initial=0.0)):
        raise ArithmeticError(
            f"transform is not unitary: the squared column norms of Z Q and Q differ "
            f"by {drift:.3e}"
        )
    e = eta * math.sqrt(k * (1 + delta_q))
    gram_bound = k * delta_q + 2 * math.sqrt(1 + k * delta_q) * e + e * e
    eigenvalues.setflags(write=False)
    v.setflags(write=False)
    return HermitianEigenDecomposition(
        eigenvalues, v, herm_resid, gram_resid, recon_resid, realness_resid, gram_bound
    )


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
    a = np.asarray(a)
    scale, herm_resid = _hermiticity_residual(a)
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise ArithmeticError(f"eigensolver did not converge: {exc}") from exc
    gram_resid = identity_residual(eigenvectors.conj().T @ eigenvectors)
    if gram_resid >= ORTHONORMALITY_TOL:
        raise ArithmeticError(
            f"eigenvector columns not orthonormal: max|V^H V - I| = {gram_resid:.3e}"
        )
    recon = a @ eigenvectors
    recon -= eigenvectors * eigenvalues
    recon_resid = float(abs(recon).max(initial=0.0))
    del recon
    if recon_resid >= RESIDUAL_RTOL * scale:
        raise ArithmeticError(
            f"eigendecomposition residual {recon_resid:.3e} exceeds tolerance"
        )
    eigenvalues.setflags(write=False)
    eigenvectors.setflags(write=False)
    return HermitianEigenDecomposition(eigenvalues, eigenvectors, herm_resid, gram_resid, recon_resid)


def _reversal_fold(a) -> tuple[np.ndarray, np.ndarray, float]:
    """The even and odd blocks of a matrix that commutes with index reversal.

    Returns ``(even, odd, max|A - J A J|)``; the blocks are new arrays on
    the bases of :class:`ParityEigenDecomposition`.  Raises
    ``ValueError`` if ``a`` is not square or not finite, and
    ``ArithmeticError`` if it does not commute with reversal within
    ``1e-10 * (1 + max|a|)``.
    """
    a = _as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got {a.shape}")
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
    return even, p - q, float(reversal_resid)


def _unitary_block(eig: HermitianEigenDecomposition, theta: float) -> np.ndarray:
    # The result is allocated before the temporaries, so that an assembly
    # that is kept does not sit between freed temporaries in the heap.
    v = eig.eigenvectors
    k = v.shape[0]
    out = np.empty(v.shape, dtype=complex)
    vp = v * np.exp(-1j * theta * eig.eigenvalues)
    # v p v^H a block of columns at a time, and below the check's M^H M a
    # block of rows at a time: the same products, without an N x N copy of
    # v^H or M^H among the temporaries.  A last block of one column joins
    # the one before; BLAS would take it as a matrix-vector product, which
    # rounds differently.
    blocks = [slice(j, j + _COLUMN_BLOCK if j + _COLUMN_BLOCK < k - 1 else k)
              for j in range(0, max(k - 1, 1), _COLUMN_BLOCK)]
    for cols in blocks:
        np.matmul(vp, v[cols].conj().T, out=out[:, cols])
    del vp
    # A certified block needs no dense re-check (module docstring).
    if eig.unitarity_bound >= UNITARITY_TOL:
        gram = np.empty(v.shape, dtype=complex)
        for rows in blocks:
            np.matmul(out[:, rows].conj().T, out, out=gram[rows])
        unit_resid = identity_residual(gram)
        if unit_resid >= UNITARITY_TOL:
            raise ArithmeticError(
                f"matrix function lost unitarity: max|M^H M - I| = {unit_resid:.3e}"
            )
    out.setflags(write=False)
    return out


_SQRT2 = math.sqrt(2.0)


def _parity_apply(x: np.ndarray, h: int, even, odd) -> np.ndarray:
    """``U x`` for a U that commutes with index reversal, from its two blocks.

    ``x`` is an N-vector and ``h = N // 2``; ``even`` and ``odd`` apply
    the blocks, of sizes ``N - h`` and ``h``, to a vector.  ``x`` is
    folded onto the parity bases (``head + reversed tail``, with sqrt(2)
    times the middle sample for odd N, and ``head - reversed tail``),
    each fold goes through its block, and the two results are unfolded.
    Both folds carry a factor sqrt(2), which the final halving removes.
    """
    n = x.shape[0]
    head, tail = x[:h], x[:n - h - 1:-1]  # tail: the last h samples, reversed
    if n % 2:
        s = np.empty(h + 1, dtype=complex)
        np.add(head, tail, out=s[:h])
        s[h] = _SQRT2 * x[h]
    else:
        s = head + tail
    u = even(s)
    v = odd(head - tail)
    out = np.empty(n, dtype=u.dtype)
    np.add(u[:h], v, out=out[:h])
    np.subtract(u[:h], v, out=out[:n - h - 1:-1])
    if n % 2:
        out[h] = _SQRT2 * u[h]
    out *= 0.5
    return out


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
        """``U @ x`` for an N-vector, without forming U (:func:`_parity_apply`)."""
        x = np.asarray(x)
        even, odd = self.even, self.odd
        h = odd.shape[0]
        n = even.shape[0] + h
        if x.shape != (n,):
            raise ValueError(f"operand has shape {x.shape}, expected ({n},)")
        # ndarray.dot: the same BLAS product as @, with less call overhead
        return _parity_apply(x, h, even.dot, odd.dot)

    dot = __matmul__  # the name scale_signal calls on either kind of operator

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


def _factored_block(eig: HermitianEigenDecomposition, theta: float, x: np.ndarray) -> np.ndarray:
    v = eig.eigenvectors
    # V^H x as conj(x^H V): no copy of V^H is made.
    c = np.dot(x.conj(), v)
    np.conjugate(c, out=c)
    c *= np.exp(-1j * theta * eig.eigenvalues)  # the phases _unitary_block uses
    return np.dot(v, c)


def apply_from_eig(
    eig: HermitianEigenDecomposition | ParityEigenDecomposition, theta: float, x
) -> np.ndarray:
    """``exp(-i*theta*G) @ x`` for an N-vector, in factored form, without assembling.

    Each block is applied as ``V (p * (V^H x))``, ``p = exp(-i*theta*lam)``;
    on a :class:`ParityEigenDecomposition` through the parity fold of
    :meth:`ParityUnitary.__matmul__`.  The result's relative norm error is
    within the decomposition's ``factored_bound`` (module docstring).

    Raises ``ValueError`` if theta is not finite or ``x`` is not an
    N-vector, and ``ArithmeticError`` if the decomposition is not
    ``factored_certified``: such an operator must be assembled, through
    :func:`unitary_from_eig` and its dense unitarity check.
    """
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    if not eig.factored_certified:
        raise ArithmeticError(
            "the factored apply is not certified for this decomposition; assemble it"
        )
    x = np.asarray(x)
    parity = isinstance(eig, ParityEigenDecomposition)
    n = eig.even.block_size + eig.odd.block_size if parity else eig.block_size
    if x.shape != (n,):
        raise ValueError(f"operand has shape {x.shape}, expected ({n},)")
    if parity:
        return _parity_apply(x, eig.odd.block_size,
                             partial(_factored_block, eig.even, theta),
                             partial(_factored_block, eig.odd, theta))
    return _factored_block(eig, theta, x)
