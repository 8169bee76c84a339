"""Dense complex linear algebra helpers.

This module is the numerical engine for the rest of the package:
validated Hermitian eigendecompositions and unitary matrix functions
``exp(-i*theta*G)`` of Hermitian generators.

The heavy lifting is delegated to LAPACK's real symmetric solve,
:func:`numpy.linalg.eigh` of a real form; what this module adds is the
contract enforcement the callers rely on: inputs are checked for
Hermiticity before the solve (:func:`_hermiticity_residual`), and every
decomposition is certified (orthonormal eigenvectors, small
reconstruction residual) before it is handed back.  A generator that
fails these checks indicates a construction bug upstream, and raising
here localizes it.

The scaling generator is decomposed through a real form.  For a
Hermitian A and a unitary Z with ``Z^H A Z`` real, that form ``S`` is
real symmetric, a real ``eigh`` gives ``S = Q diag(lam) Q^T``, and ``A =
V diag(lam) V^H`` with ``V = Z Q``: a real solve, a fifth to a quarter
of the complex one's cost at N = 512-1024.  For the
generator G, ``G = F^H conj(G) F`` with F the unitary DFT; ``F^4 = I``,
so ``Z = (F^H)^(1/2)`` is a cubic polynomial in F, symmetric with ``Z F =
Z^H``, and ``conj(S) = Z conj(G) Z^H = (Z F) G (Z F)^H = S``
(:mod:`opscale.operators` has the coefficients and the transform).
:func:`real_form_eig` forms S, checks that it is real to rounding,
``max|Im S| < 1e-10 * (1 + max|A|)``, solves its real part and
certifies ``(A, V)`` from ``(S, Q)`` in real arithmetic, with an a
priori bound on the transform Z (steps 6-8 below), so neither A nor a
complex N x N product is needed for the checks.  The decomposition
keeps ``(lam, Q, Z)``: Q as read-only float64, 8 k^2 bytes a block
where V would take 16, and Z as the transform that applies it, which
holds only O(N) phases.  No assembly and no apply builds V: it is built
only for a caller that asks for it, 48 columns at a time into one new
array (:attr:`HermitianEigenDecomposition.eigenvectors`), and not kept.

A cold decomposition makes no N x N temporary of its own.  Every check
of A and of S takes its maxima a row block at a time
(:func:`_row_block_maxima`), S is formed in A's own array, 48 rows and
then 48 columns at a time, straight into the buffer Q takes
(:func:`_write_real_form`), and a fold writes each mirrored pair of row
blocks straight into the blocks (:func:`_reversal_fold`).  Beside the
arrays a decomposition keeps, allocated first, only A, its blocks, the
solve's Q and the k x k products of the checks after it are whole: at
N = 512 the traced peak is 29.2 N^2 bytes ordinary and 30.6 N^2
centered (``tools/cold_peak.py`` measures it).  The transforms of a slab are
those of the whole matrix, row by row or column by column, so every
array and residual is bit-identical to the whole-matrix computation.
The real ``eigh`` then allocates its own copy of S and its workspace,
about 24 k^2 bytes, outside Python's view.

Every grid is a fold and a tuple of blocks, one decomposition per block
(:class:`GridDecomposition`); a whole grid has the identity fold and one
block.  A Hermitian matrix that commutes with index reversal ``J``
(``A[i, j] == A[N-1-i, N-1-j]``) splits exactly into two blocks on the
reversal-parity basis, which :func:`_fold` and :func:`_unfold` alone lay
out for the package: with ``h = N // 2``, the even part E has the
columns ``(e_k + e_{N-1-k})/sqrt(2)``, ``k < h``, then ``e_h`` when N is
odd, and the odd part O the columns ``(e_k - e_{N-1-k})/sqrt(2)``.
:func:`_reversal_fold` checks the symmetry in O(N^2), and that A is
purely imaginary, ``max|Re A| < 1e-10 * (1 + max|A|)``, as the scaling
generator is on a symmetric grid: then ``A = i B`` with B real
antisymmetric, and ``exp(-i*theta*A) = exp(theta*B)`` is real
orthogonal.  It folds A, a pair of mirrored row blocks at a time, into
``E^T A E`` and ``O^T A O``, of sizes ``ceil(N/2)`` and h, which
:func:`parity_real_form_eig` decomposes as the blocks ``(even, odd)``,
each through ``fold(Z unfold(x))``, the whole grid's Z restricted to its
block (Z commutes with reversal).

On a block, ``F^2 = J`` is the identity (even) or minus it (odd), so Z
is ``a I + b X`` with X a real symmetric involution and ``conj(a) b =
-i/2``: ``((1+i) I + (1-i) C)/2`` with ``C = F`` on the even block,
``(I + i Y)/sqrt(2)`` with ``Y = i F`` on the odd one, ``X = -Y``.  X
anticommutes with the real form (``G = F^H conj(G) F`` and ``conj(G) =
-G``), so ``X q_j`` is an eigenvector of S for ``-lam_j``: ``X q_j = s_j
q_{j'} + d_j``, ``j' = k-1-j`` in ascending order, ``d_j`` rounding.
:func:`real_form_eig` reads ``X q_j`` from the slabs of ``Z Q`` it
transforms for its column-norm check (``2 Re(Z q) - q``, ``-sqrt(2)
Im(Z q)``), and keeps the signs ``t_j = s_j``, ``j < k // 2``, in the
block's ``rotation``.  Writing ``Z^H q_j`` and ``G q_j = Z S Z^H q_j``
out in a, b and X gives ``B q_j = -t_j mu_j q_{j'} + r_j``, ``B q_{j'} =
t_j mu_j q_j + r_{j'}``, ``mu_j = (lam_j - lam_{j'})/2``: B rotates each
plane ``(q_j, q_{j'})`` at the rate ``mu_j``, and the middle column of
an odd k is its kernel.  (Golub & Van Loan, *Matrix Computations*, 4th
ed., section 7.4: this is the real Schur form of B.)  So ``exp(theta B)
= Q K Q^T``, K the rotation by ``theta mu_j`` in each plane, ``(c_j,
c_{j'})`` to ``(cos c_j + t_j sin c_{j'}, cos c_{j'} - t_j sin c_j)``,
and a paired block is assembled and applied from Q and K in real
arithmetic, with no transform and no complex phase (step 5); step 8
bounds the residuals ``r_j``.  Two half-size blocks cost about a
quarter of the dense eigensolve and assembly, and the two real blocks a
quarter of the dense complex matrix's memory.

On every grid an assembly, a factored apply and the apply of an
assembled :class:`GridUnitary` are the same steps: fold
(:func:`_fold_into`), one call per block, unfold (:func:`_unfold_from`).
A real block is applied as one real product on the (k, 2) float view of
its part (:func:`_real_dot`), a quarter of the bytes of the dense
complex matrix, and an adjoint through the transposed view, or as
``conj(conj(x) M)`` for a complex block: no copy of ``M^H``.

The module has one helper thread, and one call onto it,
``_beside(here, there)``: where BLAS is pinned to one thread, the
process may run on two CPUs or more and no other caller holds the
helper, it runs ``there()`` on the helper while ``here()`` runs on the
caller, waits for both and returns True; otherwise it runs nothing and
returns False, and the caller does all the work itself, so no caller
waits on another's job.  Three kinds of work share it:

* :meth:`GridUnitary.dot`, above ``_SPLIT_BYTES`` (2 MiB) of blocks: on
  two blocks, one block per thread; on one complex block, two slabs of
  its product, ``M[r] x`` by rows forward and ``conj(conj(x) M[:, c])``
  by columns for the adjoint, cut at ``k // 2`` rounded down to a
  multiple of 64 (:func:`_split_jobs`).  A real block is never cut, as
  its product, one real product with two columns, rounds otherwise by row
  slabs from k = 709 on.  numpy's ``matmul``, which the adjoint of a
  column slab runs, keeps the GIL for a result of 500 entries or fewer,
  so the caller's slab of an adjoint takes 512 columns at least.
* the slab loops of a build of k > 512, where a real k x k array is above
  ``_SPLIT_BYTES`` (:func:`_dealt`): the row and column passes of
  :func:`_write_real_form` and :func:`_real_form_block`, the triangle
  slabs of :func:`_unitarity_residual`, and in :func:`real_form_eig` the
  row blocks of ``s Q``, shared or not, and the slabs of V.  Each thread
  takes the next slab until none is left, in its own buffers.  ``Q^T Q``
  stays one product, and the solve one ``eigh``.
* :func:`opscale.bench.run_bench`'s cold builds of a sweep.

The premise is that of :func:`_row_blocks`: with one BLAS thread each
slab is summed as in the whole product or transform, so every result is
bit-identical to the unshared one.  With more BLAS threads sharing does
not pay, and a shared result would differ at rounding level.  A forked
child has none of its parent's threads: an ``os.register_at_fork`` hook
drops the helper there, and the lock that marks it busy, which another
of the parent's threads may hold; the child starts its own.  The helper
is a daemon thread, so it never holds an exiting interpreter open.

A block is assembled straight into its final array, a row block at a
time, with no k x k temporary:

* a paired block: row block r of ``(Q K) Q^T`` is ``(Q[r] K) Q^T``, the
  rows ``Q[r] K`` rotated in two real buffers of a row block;
* a real form ``M = Z W Z^H``, ``W = Q P Q^T = (Q cos) Q^T - i (Q sin)
  Q^T`` (``p = cos - i sin``; step 9): row block r of ``conj(W)`` is two
  real products, ``(Q[r] cos) Q^T`` and ``(Q[r] sin) Q^T``, and Z
  transforms its rows straight into the result; then Z runs down the
  conjugated columns, 48 at a time, in place: ``M = Z conj(conj(W) Z)``,
  as Z is symmetric.  The two products are written into the result's
  own rows, and one complex buffer of a row block serves each pass.

``Q^T`` is a view, so no transposed copy is made.  Row
blocks are 96 rows from row 0, and a last block of fewer than 48 rows
takes 48 from the one before (:func:`_row_blocks`), so that BLAS sums
each entry in the same order as in the whole product: with one BLAS
thread each block is its one product, bit for bit, and each transform
is, row by row or column by column, the whole one's.  Where
the dense check runs, it forms only the upper triangle of the Hermitian
``M^H M``, ``M[:, r]^H M[:, a:]`` for each block r of 48 rows from its
first row a, in two complex buffers of its own, allocated once the
assembly's are freed: half the flops of the whole product, and no k x k
gram.

:func:`apply_from_eig` applies ``exp(-i*theta*A)`` to one vector
without assembling it, in factored form ``Z (Q (p * (Q^T (Z^H x))))``:
two matrix-vector products per block, O(k^2) instead of the assembly's
O(k^3), but reading Q twice where an assembled block is read once.
Each product with a real Q is one real product on the (k, 2) float view
of the complex vector (:func:`_real_dot`; ``Q^T`` is a view), reading
half the bytes of a complex V.  ``Z^H x = conj(Z conj(x))``, as Z is
symmetric, so each side costs one transform of the whole N-vector, an
FFT and a few pointwise products.  A paired block is applied as ``Q (K
(Q^T x))``: no transform at all.  The factored form runs only on a grid
whose every block it certifies (``factored_certified``); it raises
``ArithmeticError`` elsewhere, where the assembled block and its dense
check are the only path.

Each decomposition keeps the residuals its checks measured (or, for a
real form, bounded), as plain floats: each block the Hermiticity, gram,
reconstruction and realness residuals in its read-only ``residuals``, a
reversal fold the reversal residual, and a :class:`GridUnitary` each
block's measured unitarity.  No code path reads a block's
``residuals``; what decides a path is kept beside them.  From a bound
on ``||Q^T Q - I||_2`` and the error of the transform the assembly runs,
if any, it also keeps ``unitarity_bound``, an upper bound on ``max|M^H
M - I|`` for every block ``M`` that :func:`unitary_from_eig` can assemble
from it, whatever theta.  Where that bound is below ``UNITARITY_TOL``
the block is certified unitary and the dense O(k^3) re-check ``M^H M``
is skipped; elsewhere the check runs.  Either way the block is assembled
by the same code, bit for bit.

The bound (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd
ed., sections 3.5-3.6; ``u`` the unit roundoff, ``gamma_n = n u/(1 - n
u)``).  Let V be a k x k basis: the real Q that a paired block is
assembled from, or a real form's ``V = Z Q`` (steps 5, 7 and 9); ``E =
V^H V - I`` with ``delta = max|E|``, and ``d`` the computed gram residual.

1. The gram product of a basis that is measured, ``V = Q``, an inner
   product of length k, errs by at most ``gamma_{k+2} |v_i|^T |v_j| <=
   gamma_{k+2} (1 + delta)`` per entry (the columns have squared norm
   ``1 + E_ii``); subtracting 1 and taking the modulus lose at most a
   factor ``1 + gamma_3``.  So ``delta <= (d (1 + gamma_3) +
   gamma_{k+2}) / (1 - gamma_{k+2})``.
2. ``||E||_2 <= ||E||_F <= k delta``, so ``||V||_2^2 <= 1 + k delta``,
   and ``||V V^H - I||_2 = ||V^H V - I||_2`` for square V.  For any
   unitary P (diagonal unit phases, or a paired block's rotation K), ``M
   = V P V^H`` has ``M^H M - I = (V V^H - I) + V P^H E P V^H``, hence
   ``||M^H M - I||_2 <= (1 + k delta)^2 - 1`` and ``||M||_2 <= 1 + k
   delta``.
3. The computed phases ``p^ = exp(-i theta lam)`` are the unit phases
   ``p^/|p^|`` times a modulus off 1 by at most ``gamma_4`` (cos and sin
   within two ulps each); ``v * p^`` adds a complex product's
   ``sqrt(2) gamma_2``.  With ``beta = gamma_4 + (1 + gamma_4) sqrt(2)
   gamma_2`` and the conventional product's ``gamma_{k+2} |W| |V^H|``
   (W the computed ``v * p^``), the computed block is ``M^ = M + F``
   with ``|F| <= g' |V| |V^H|``, ``g' = gamma_{k+2} + beta (1 +
   gamma_{k+2})``.  A rotation K^ with computed cos and sin is, in each
   plane, the exact rotation times such a modulus, and each rotated
   entry, ``cos c_j + t sin c_{j'}``, adds ``gamma_2`` of ``|cos c_j| +
   |sin c_{j'}|``, at most ``sqrt(2) gamma_2`` of the pair's norm.
4. ``|V| |V^H|`` has columns of norm ``<= || |V| ||_2 ||row_j(V)|| <=
   sqrt(k) (1 + k delta)``, since ``|| |V| ||_2 <= ||V||_F <= sqrt(k)
   ||V||_2`` and a row's norm is at most ``||V||_2``.  Each entry of
   ``M^H F``, ``F^H M`` and ``F^H F`` is an inner product of two columns,
   so ``max|M^^H M^ - I| <= (1 + k delta)^2 (1 + sqrt(k) g')^2 - 1``.  For
   ``(Q K^) Q^T`` the columns of F are bounded the same way, with the
   rotated rows' ``|| Q K^ ||_F <= sqrt(k) ||Q||_2 (1 + gamma_4)`` for
   ``|| |V| ||_2`` and their ``gamma_2`` inside ``g'``.

That last quantity is ``unitarity_bound`` of a paired block, evaluated
once per decomposed block.  With gram residuals of a
few 1e-15 it is about ``2 k^2 u``: 1.7e-11 at k = 256 and 6.4e-11 at k
= 512, which certify, and 2.5e-10 at k = 1024, where the dense check
runs.  A real form is assembled otherwise, with the bound of step 9.

5. The factored product ``y^ = fl(Z fl(Q fl(p^ * fl(Q^T fl(Z^H
   x)))))`` of :func:`apply_from_eig`, for ``V = Z Q`` with Z the exact
   unitary transform.  Let ``delta_Q`` bound ``max|Q^T Q - I|`` (step 1,
   kept by step 7), ``nu = sqrt(1 + k delta_Q) >= ||Q||_2`` (step 2) and
   ``a = sqrt(k) nu gamma_{k+2}``.  The conjugations are exact, so the first
   transform gives ``w^ = Z^H x + e0`` with ``||e0|| <= eta ||x||`` (step
   6).  Then ``c^ = fl(Q^T w^) = Q^T w^ + e1`` with ``|e1| <= gamma_{k+2}
   |Q^T| |w^|`` and, as in step 4, ``||e1|| <= a ||w^||``; the phases
   give ``d^ = P c^ + e2`` with ``||e2|| <= beta ||c^||`` (step 3); the
   second product ``z^ = Q d^ + e3`` with ``||e3|| <= a ||d^||``; and the
   last transform ``y^ = Z z^ + e4`` with ``||e4|| <= eta ||z^||``.  So
   ``||c^|| <= (nu + a) (1 + eta) ||x||``, ``||d^|| <= (1 + beta)
   ||c^||`` and ``||z^|| <= (nu + a) ||d^||``.  With ``M = Z Q P Q^T
   Z^H``, ``y^ - M x = Z Q P Q^T e0 + Z Q P e1 + Z Q e2 + Z e3 + e4`` and
   ``||y^ - M x|| <= eps ||x||``, ``eps = nu^2 eta + (1 + eta) (nu a +
   (nu + a) (nu beta + a (1 + beta)) + eta (nu + a)^2 (1 + beta))``.  Z
   is unitary, so ``(Z Q)^H (Z Q) = Q^T Q`` and by step 2 ``||M x||^2 /
   ||x||^2`` lies between ``2 - (1 + k delta_Q)^2`` and ``(1 + k
   delta_Q)^2``; hence ``| ||y^||^2 / ||x||^2 - 1 | <= (1 + k delta_Q +
   eps)^2 - 1`` (for a bound below 1).  A paired block runs no
   transform: ``y^ = fl(Q fl(K^ fl(Q^T x)))`` is the case ``eta = 0``,
   with the rotation in place of the phases (its ``beta`` is step 3's).
   On parity blocks the fold is sqrt(2) times an orthogonal map, which
   the final halving undoes exactly: the two blocks' errors add in
   quadrature, and the bound holds with the larger block's terms.  The
   fold's and unfold's sums of two samples add a few ``u``, as they do
   to an assembled operator's apply.

That last quantity is ``factored_bound``, the factored apply's
counterpart of ``unitarity_bound``: to first order ``2 k delta_Q + 4
sqrt(k) gamma_{k+2} + 2 beta + 4 eta``.  The transform enters as ``4
eta``: it is applied to one vector, not to the k columns of Q.  A block
is ``factored_certified`` exactly where its ``factored_bound`` is below
``UNITARITY_TOL``.  The bound is no sounder than the gram residual it is
given, so a hand-built decomposition must carry the measured ``max|Q^T
Q - I|`` of its basis.

Steps 2-5 and 9 use ``delta`` only through ``k delta_Q``, a bound on
``||Q^T Q - I||_2`` (V = Q in steps 2-4), which a decomposition keeps as
``basis_gram_bound``; steps 6-8 bound V without forming ``V^H V``:

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
   vector, and so does a block's ``fold(Z unfold(x))``, whose sums of two
   samples and products with sqrt(2) add a few u.  So the computed ``V =
   Z Q + E`` with ``||E e_j|| <= eta ||q_j||`` for each column, Z the
   exact unitary transform.
7. The gram of V.  The measured ``d_Q = max|Q^T Q - I|`` (a real product)
   bounds ``delta_Q = max|Q^T Q - I|`` as in step 1, and ``||q_j||^2 <= 1
   + delta_Q``.  ``V^H V - I = (Q^T Q - I) + Q^T Z^H E + E^H Z Q + E^H E``,
   so each entry is within ``delta_V = delta_Q + (2 eta + eta^2) (1 +
   delta_Q)`` (``gram_residual``).  Eta is assumed, not measured, so two
   runtime checks test what it rests on.  The computed column norms
   ``||v_j||^2`` must equal ``||q_j||^2`` to ``(1 + eta)^2 (1 +
   gamma_{2k}) / (1 - gamma_k) - 1`` relative: that catches a transform
   that is not unitary, such as one that scales its output.  And the
   derivation uses that Z is symmetric: the form is computed as ``conj(Z
   conj(A Z^T)) = (Z^T)^H A Z^T`` (the row transforms apply Z^T), and
   ``V = Z Q`` diagonalizes A only if ``Z^T Q = Z Q``.  A probe pair
   checks it, ``|r^T Z p - p^T Z r| <= (2 eta + 2 gamma_{k+2} (1 + eta))
   ||p|| ||r||``, which catches a transform that is unitary but not
   symmetric, such as one that flips the signs of some outputs.
8. The reconstruction.  Let ``S = Z^H A Z`` exactly (Hermitian; real
   only to the extent that A has the Fourier symmetry), ``s`` the real
   part of the computed form, ``rho`` its measured ``max|Im|`` and ``r =
   max|s Q - Q diag(lam)|`` measured in real arithmetic.  The form is two
   transforms of the rows and columns of A, so it is within ``(2 eta +
   eta^2) ||A||_F`` of S in the Frobenius norm, and ``||S - s||_2 <= (2
   eta + eta^2) ||A||_F + k rho``; ``||A||_F = ||S||_F <= m_A = (||s||_F +
   k rho) / (1 - 2 eta - eta^2)``.  ``S Q - Q diag(lam) = (s Q - Q
   diag(lam)) + (S - s) Q``, and the product ``s Q`` errs by ``gamma_k
   |s| |Q|``, whose columns have norm ``<= gamma_k ||s||_F ||q_j||``;
   every entry of a column is at most its norm, so each column of ``S Q -
   Q diag(lam)`` has norm ``<= f = sqrt(k) r / (1 - u) + sqrt(1 +
   delta_Q) (gamma_{k+2} ||s||_F + (2 eta + eta^2) m_A + k rho)``.  ``A V
   - V diag(lam) = Z (S Q - Q diag(lam)) + A E - E diag(lam)``, so
   ``max|A V - V diag(lam)| <= f + sqrt(1 + delta_Q) (eta m_A + (gamma_2
   + eta) max|lam|)`` (``reconstruction_residual``), held to the same
   ``1e-9 * (1 + max|A|)`` as a measured one.
   A paired block is held to the same on its rotation form, ``max|A Q -
   i Q Omega|`` (``B Q - Q Omega`` for ``A = i B``), Omega with ``Omega
   q_j = -t_j mu_j q_{j'}``.  The measured pair error ``p^ = max_j ||X^
   q_j - s_j q_{j'}||`` is taken on the computed V, whose columns are
   within ``eta ||q_j||`` of ``Z q_j``, so the exact ``d_j`` has ``||d_j||
   <= p = p^ (1 + gamma_{k+3}) + (2 eta + 4u) sqrt(1 + delta_Q)``.
   Expanding ``A q_j = Z S Z^H q_j`` with ``S q_j = lam_j q_j + (S q_j -
   lam_j q_j)`` and ``X q_j = s_j q_{j'} + d_j`` gives ``||A q_j + i t_j
   mu_j q_{j'}|| <= |nu_j| + (|lam_j| + |lam_{j'}|) p / 2 + (2 f + m_A p)
   / sqrt(2)``, ``nu_j = (lam_j + lam_{j'})/2``; the kernel column of an
   odd k is the case ``j = j'``, where ``mu_j = 0``.  With ``u`` terms
   for the rounding of ``mu_j``, ``max|nu| (1 + u) + max|lam| (p + u) +
   (2 f + m_A p) / sqrt(2)`` is the paired block's
   ``reconstruction_residual``.
9. The assembly of a real form, without V: ``M^ = fl(Z conj(fl(C^
   Z)))``, ``C^`` the computed ``conj(W)``.  Let M and W be exact with the
   unit phases ``p^/|p^|`` (any unit phases give a unitary M) and ``b = k
   delta_Q`` (step 7).  An entry of ``(Q[r] cos^) Q^T`` is a real inner
   product of k rounded products, within ``gamma_{k+1} |Q| |cos^| |Q^T|``,
   and so is the sine's; together they err by at most ``gamma_{k+1} |Q|
   |p^| |Q^T|`` in modulus, and ``|p^|`` is within ``gamma_4`` of 1 (step
   3), so ``W^ = W + F_W`` with ``|F_W| <= g' |Q| |Q^T|``, g' of step 3.
   Z spreads that error over whole columns, so only its 2-norm counts:
   ``|| |Q| |Q^T| ||_2 <= ||Q||_F^2 <= k + b`` gives ``||F_W||_2 <= g' (k
   + b)``, a ``k gamma_k`` where a factored product (step 5) has ``sqrt(k)
   gamma_k``.  The row pass errs by ``E1`` with ``||E1||_F <= eta
   ||C^||_F`` (step 6, row by row), the column pass by ``||E2||_F <= eta
   (1 + eta) ||C^||_F``, and ``||C^||_F <= c = sqrt(k) (1 + b) + g' (k +
   b)`` (step 2: ``||W||_2 <= 1 + b``).  So ``M^ = M + Z F_W Z^H + Z
   conj(E1) + E2``, ``||M^ - M||_2 <= eps_W = g' (k + b) + eta (2 + eta)
   c``, and with ``||M||_2 <= 1 + b`` and ``||M^H M - I||_2 <= (1 + b)^2 -
   1`` (step 2), ``max|M^^H M^ - I| <= (1 + b + eps_W)^2 - 1``, a real
   form's ``unitarity_bound``.  To first order it is ``2 b + 2 k
   gamma_{k+2} + 4 sqrt(k) eta``, about ``4 k^2 u`` from a gram residual of
   a few 1e-15, and it certifies blocks up to k of about 450.  (Each
   column as the factored product of step 5 has ``factored_bound`` and
   certifies to about k = 630, but costs four real k x k products and
   two transforms of the rows: at k = 512 this order's two products and
   the dense check cost about as much, and at k = 1024 30 % less.)

With ``eta`` about 3e-14 (Cooley-Tukey, N = 1024) to 1.6e-13 (Bluestein,
N = 1021), the transform adds ``4 eta`` to ``factored_bound`` and ``4
sqrt(k) eta`` to a real form's ``unitarity_bound``.  Every block up to k
= 512 is certified for the factored path, and k = 1024 is not; near the
edge, every whole grid up to N = 629 is, and with one BLAS thread also
N = 630 and 632 (the measured gram residual moves with the thread
count).  Step 9 certifies
the assembly of every whole grid up to N = 442 (some to 459); from there
the dense check runs, at N = 512 and 1024 among others.  A paired
block's bounds carry no eta: the symmetric grids are certified for the
factored path up to N = 1258, and their assemblies up to N = 1287.  The checks cost two real
k x k products, ``Q^T Q`` (a symmetric rank-k update) and ``s Q``,
instead of two complex ones, and one transform of Q, 48 columns at a
time, for the column norms of V and the pair errors.

Every function except :func:`identity_residual`, which overwrites the
product it is given, and :func:`real_form_eig`, which overwrites the
matrix its ``form()`` returns and fills and marks read-only the arrays
it is given, is pure and operates on immutable inputs, so they are safe
to call concurrently from multiple threads.
That includes the transforms a decomposition keeps, which
:func:`apply_from_eig` runs on every call: they write only into the
buffers they are handed or allocate per call, and the helper thread,
which runs one caller's job at a time into that caller's own arrays.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field
from functools import partial
from queue import SimpleQueue
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

__all__ = [
    "GridDecomposition",
    "GridUnitary",
    "HermitianEigenDecomposition",
    "apply_from_eig",
    "parity_real_form_eig",
    "real_form_eig",
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

#: Relative max-abs tolerance for the part of a matrix that must vanish: the
#: imaginary part of a real form ``Z^H A Z``, the real part of a purely
#: imaginary matrix folded by reversal.
REALNESS_RTOL = 1e-10

#: Max-abs tolerance for the unitarity ``M^H M - I`` of an assembled block.
UNITARITY_TOL = 1e-10

#: Rows per product when a block is assembled (:func:`_row_blocks`); half
#: of it per product of the dense check and columns per transform.
_ROW_BLOCK = 96

#: Unit roundoff ``u`` of float64.
_UNIT_ROUNDOFF = float(np.finfo(float).eps) / 2


def _gamma(n: int) -> float:
    """Higham's ``gamma_n = n u / (1 - n u)``."""
    return n * _UNIT_ROUNDOFF / (1 - n * _UNIT_ROUNDOFF)


def _entry_bound(gram_residual: float, k: int) -> float:
    """Step 1: a bound on the exact ``max|V^H V - I|`` from the computed one."""
    g = _gamma(k + 2)
    return (gram_residual * (1 + _gamma(3)) + g) / (1 - g)


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
    and no identity matrix is allocated; so are the moduli of a real P.
    """
    p.flat[::p.shape[0] + 1] -= 1
    return float(np.abs(p, out=p.real).max(initial=0.0))


def _square_matrix(a, k: int | None = None) -> np.ndarray:
    """a as an array, checked to be square, and k x k when k is given."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got array of ndim {a.ndim}")
    n = a.shape[0] if k is None else k
    if a.shape != (n, n):
        raise ValueError(f"expected a square matrix of size {n}, got {a.shape}")
    return a


def _row_block_maxima(a: np.ndarray, *parts) -> tuple[float, ...]:
    """``1 + max|a|``, then ``max|part(rows)|`` for each part, over the row blocks of a.

    Each part maps a row block of the square matrix a (a slice) to the
    same rows of the matrix it measures, so that no temporary is larger
    than a row block (:func:`_row_blocks`).  Raises ``ValueError`` if a is
    not finite.
    """
    big, resid = 0.0, [0.0] * len(parts)
    for rows in _row_blocks(a.shape[0]):
        block = float(abs(a[rows]).max(initial=0.0))
        if not math.isfinite(block):
            raise ValueError("matrix contains non-finite entries")
        big = max(big, block)
        resid = [max(r, float(abs(part(rows)).max(initial=0.0))) for r, part in zip(resid, parts)]
    return 1.0 + big, *resid


def _rotation_table(
    eigenvalues: np.ndarray, pair_signs: np.ndarray, out: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """A paired block's rates and signs over all k entries, in the rows of the (2, k) ``out``.

    ``mu_j = (lam_j - lam_{k-1-j})/2`` and ``t_j`` at j, ``mu_j`` and
    ``-t_j`` at ``k-1-j``, zeros at the kernel entry of an odd k (step 5);
    out is marked read-only.
    """
    k, h = len(eigenvalues), len(pair_signs)
    rates, signs = out
    rates[:h] = (eigenvalues[:h] - eigenvalues[::-1][:h]) * 0.5
    rates[k - h:] = rates[:h][::-1]
    signs[:h], signs[k - h:] = pair_signs, -pair_signs[::-1]
    out[:, h:k - h] = 0.0
    out.setflags(write=False)
    return rates, signs


@dataclass(frozen=True, eq=False)
class HermitianEigenDecomposition:
    """Validated spectral decomposition ``A = V diag(eigenvalues) V^H``, ``V = Z Q``.

    :func:`real_form_eig` makes it, through :func:`_certified`.  It keeps
    the real orthogonal Q and the transform Z, which applies Z with an
    FFT, and builds V only on request (:attr:`eigenvectors`).

    Attributes
    ----------
    eigenvalues : numpy.ndarray
        Real eigenvalues in ascending order.
    basis : numpy.ndarray
        Q, read-only float64, whose column ``k`` pairs with
        ``eigenvalues[k]``.
    transform : callable
        ``transform(x, out, axis)`` writes Z x along ``axis`` of the
        complex matrix x into ``out`` and may overwrite x.
    rotation : tuple of numpy.ndarray or None
        For a block of a purely imaginary ``A = i B`` whose column j of Q
        pairs with column ``k-1-j``, ``B q_j = -t_j mu_j q_{k-1-j}`` with
        ``mu_j = (lam_j - lam_{k-1-j})/2`` (step 5), so that
        ``exp(-i*theta*A) = Q K Q^T``, K a rotation of each pair: K's rates
        and signs over all k entries, ``(mu_j, t_j)`` at j, ``(mu_j, -t_j)``
        at ``k-1-j`` and ``(0, 0)`` at the kernel entry of an odd k, as two
        read-only rows of one array (:func:`_rotation_table`).  Such a
        block is assembled and applied from Q and K alone, without Z.  None
        exactly when the block is not paired.
    residuals : mapping of str to float
        Read-only, for reports and tests: ``hermiticity_residual``
        (``max|A - A^H|``), ``gram_residual`` (a bound on ``max|V^H V -
        I|``, step 7), ``reconstruction_residual`` (a bound on ``max|A V -
        V diag(eigenvalues)|``, step 8), ``realness_residual``
        (``max|Im(Z^H A Z)|``, :func:`_write_real_form`),
        ``transform_error`` (``eta`` of step 6), ``basis_gram_bound`` (a
        bound on ``||Q^T Q - I||_2``, ``k delta_Q`` of step 7) and
        ``factored_bound`` (a bound on ``| ||y||^2 / ||x||^2 - 1 |`` of
        every ``y`` that :func:`apply_from_eig` computes from an ``x``,
        step 5).
    unitarity_bound : float
        An upper bound on ``max|M^H M - I|`` of every block
        :func:`unitary_from_eig` assembles from this decomposition (steps
        2-4; step 9 for a block that is not paired).
    factored_certified : bool
        Whether ``factored_bound`` is below ``UNITARITY_TOL``, so that
        :func:`apply_from_eig` may run.
    block_size : int
        The number k of eigenvectors.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray
    transform: Callable
    rotation: tuple[np.ndarray, np.ndarray] | None
    residuals: Mapping[str, float]
    unitarity_bound: float
    factored_certified: bool
    block_size: int

    @property
    def eigenvectors(self) -> np.ndarray:
        """The unitary ``V = Z Q`` whose column ``k`` pairs with ``eigenvalues[k]``.

        Built on each request as a new read-only array, 48 columns at a
        time (:func:`_transformed_slab`), and not kept.
        """
        k = self.block_size
        v = np.empty((k, k), dtype=complex)
        work = _slab_work(k)
        for cols in _column_slabs(k):
            v[:, cols] = _transformed_slab(self.basis, cols, self.transform, work)
        v.setflags(write=False)
        return v


def _certified(eigenvalues, basis, transform, rotation, **residuals) -> HermitianEigenDecomposition:
    """A block's decomposition, with the bounds of steps 4, 5 and 9 derived from its residuals.

    ``residuals`` holds the block's residuals, among them
    ``basis_gram_bound``, b, and ``transform_error``, eta; the
    ``factored_bound`` derived here is added, or replaces one given.  A
    paired block (``rotation`` given) runs no transform after its
    decomposition and is assembled as ``(Q K) Q^T`` (step 4), any other
    as ``Z W Z^H`` (step 9).  The derivation is in the module docstring.
    """
    k = basis.shape[0]
    b = residuals["basis_gram_bound"]
    eta = 0.0 if rotation is not None else residuals["transform_error"]
    g = _gamma(k + 2)
    beta = _gamma(4) + (1 + _gamma(4)) * math.sqrt(2.0) * _gamma(2)
    g_prime = g + beta * (1 + g)
    nu = math.sqrt(1 + b)
    a = math.sqrt(k) * nu * g
    eps = nu * nu * eta + (1 + eta) * (
        nu * a + (nu + a) * (nu * beta + a * (1 + beta)) + eta * (nu + a) ** 2 * (1 + beta)
    )
    factored = (1 + b + eps) ** 2 - 1
    if rotation is not None:
        unitarity = ((1 + b) * (1 + math.sqrt(k) * g_prime)) ** 2 - 1
    else:
        # Step 9: the products' error in W, which Z spreads over whole columns,
        # and the two transforms of W's rows and columns.
        spread = g_prime * (k + b)
        eps_w = spread + eta * (2 + eta) * (math.sqrt(k) * (1 + b) + spread)
        unitarity = (1 + b + eps_w) ** 2 - 1
    report = {name: float(value) for name, value in residuals.items()}
    report["factored_bound"] = float(factored)
    return HermitianEigenDecomposition(eigenvalues, basis, transform, rotation,
                                       MappingProxyType(report), float(unitarity),
                                       factored < UNITARITY_TOL, k)


@dataclass(frozen=True, eq=False)
class GridDecomposition:
    """Validated decomposition of a grid's Hermitian matrix: a fold and one decomposition per block.

    One block on the identity fold (a whole grid), or two paired blocks,
    even then odd, on the reversal fold (:func:`_fold`), whose every
    assembly is real; ``ValueError`` is raised for anything else.

    Attributes
    ----------
    blocks : tuple of HermitianEigenDecomposition
        ``(whole,)``, or ``(even, odd)`` of sizes ``ceil(N/2)`` and
        ``floor(N/2)`` (the odd one empty for N = 1).
    reversal_residual : float or None
        ``max|A - J A J|`` of a folded matrix; None on the identity fold.
    size : int
        N, the sum of the block sizes.
    block_size : int
        The size k of the largest block, the first.
    factored_certified : bool
        Whether every block is, so that :func:`apply_from_eig` may run.
    """

    blocks: tuple[HermitianEigenDecomposition, ...]
    reversal_residual: float | None
    size: int = field(init=False)
    block_size: int = field(init=False)
    factored_certified: bool = field(init=False)

    def __post_init__(self):
        if not (len(self.blocks) == 1 or len(self.blocks) == 2
                and all(b.rotation is not None for b in self.blocks)):
            raise ValueError("a grid is one block, or two paired blocks on the reversal fold")
        sizes = [b.block_size for b in self.blocks]
        object.__setattr__(self, "size", sum(sizes))
        object.__setattr__(self, "block_size", max(sizes))
        object.__setattr__(self, "factored_certified",
                           all(b.factored_certified for b in self.blocks))


def _hermiticity_residual(a: np.ndarray) -> tuple[float, float]:
    """``(1 + max|a|, max|a - a^H|)`` of a square matrix, checked a row block at a time.

    The first value is the scale every relative tolerance of this module
    is taken against.  Raises ``ValueError`` if ``a`` is not finite, or
    not Hermitian within ``1e-10 * (1 + max|a|)``.
    """
    def gap(rows):
        conj_t = np.conjugate(a[:, rows]).T  # rows of a^H, new also for a real a
        return np.subtract(a[rows], conj_t, out=conj_t)

    scale, herm_resid = _row_block_maxima(a, gap)
    if herm_resid >= HERMITICITY_RTOL * scale:
        raise ValueError(
            f"matrix is not Hermitian: max|a - a^H| = {herm_resid:.3e} "
            f"exceeds {HERMITICITY_RTOL * scale:.3e}"
        )
    return scale, herm_resid


def _write_real_form(a: np.ndarray, transform, s: np.ndarray, scale: float) -> float:
    """Write the real part of ``S = Z^H A Z`` into s, checked, overwriting the complex A.

    S is formed as the conjugate of ``Z conj(A Z)``, with no k x k
    temporary: Z transforms the rows of A into ``A Z`` in place, 48 at a
    time, through one buffer of 48 rows, then the conjugated columns of
    ``A Z`` 48 at a time (:func:`_transformed_columns`), and each slab's
    real part goes into s.  For a Hermitian A and a unitary Z the
    imaginary part must be rounding, ``max|Im S|`` below ``1e-10 * scale``
    with ``scale = 1 + max|A|``, or ``ArithmeticError`` is raised.  Each
    row and column goes through the same products and FFT as in a
    transform of the whole matrix, so s and the returned ``max|Im S|``
    are bit-identical to them.
    """
    k = a.shape[0]
    slabs = _column_slabs(k)

    def rows_of_az(rows, buffer):
        part = a[rows]
        x = buffer[:part.size].reshape(part.shape)
        x[...] = part
        transform(x, part, axis=1)  # the rows of A Z

    def real_part(cols, work):  # Z conj(A Z): Re S and -Im S
        slab = _transformed_slab(a, cols, transform, work)
        s[:, cols] = slab.real
        return max(float(slab.imag.max(initial=0.0)), -float(slab.imag.min(initial=0.0)))

    _dealt(slabs, rows_of_az, partial(np.empty, min(_ROW_BLOCK // 2, k) * k, dtype=complex))
    imag_resid = max(_dealt(slabs, real_part, partial(_slab_work, k)), default=0.0)
    if not imag_resid < REALNESS_RTOL * scale:
        raise ArithmeticError(
            f"real form is not real: max|Im(Z^H A Z)| = {imag_resid:.3e} "
            f"exceeds {REALNESS_RTOL * scale:.3e}"
        )
    return imag_resid


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


def _largest_entry_negative(q: np.ndarray) -> np.ndarray:
    """Whether each column's largest-magnitude entry, the first on ties, is negative.

    Read from the column maxima and minima; only a column where the two
    tie in magnitude is searched, so no k x k temporary is made.
    """
    high, low = q.max(axis=0, initial=0.0), q.min(axis=0, initial=0.0)
    negative = -low > high
    for j in np.flatnonzero(-low == high):
        negative[j] = q[np.argmax(abs(q[:, j])), j] < 0
    return negative


def real_form_eig(
    form, k: int, transform, transform_error: float, kept=None, involution=None,
) -> HermitianEigenDecomposition:
    """Decompose the k x k Hermitian ``A = form()`` through its real form, and certify it.

    ``form()`` returns a new array, which this function overwrites (a real
    one is converted to complex first).  A is checked to be Hermitian a
    row block at a time.
    ``transform(x, out, axis)`` writes ``Z x`` along ``axis`` into
    ``out`` and may overwrite x, each column within ``transform_error *
    ||x_j||`` of exact.  ``S = Z^H A Z`` is formed in A's own array and 48
    rows or columns of buffer, its real part written into the buffer Q
    will take, and checked to be real (:func:`_write_real_form`).  A is
    then dropped, and Z is checked to be symmetric on a probe pair
    (:func:`_check_symmetric`).  A real ``eigh`` gives ``S = Q diag(lam)
    Q^T``, each column of Q then negated where its largest-magnitude entry
    is negative (:func:`_largest_entry_negative`), as the CDDHF basis is;
    the decomposition keeps lam and Q with the transform, not ``V = Z
    Q``.  The checks use only S, Q and the column norms of V, built 48
    columns at a time and not kept, in real arithmetic (module docstring,
    steps 6-8).

    ``involution(q, zq)``, given for a block of a purely imaginary A
    whose Z is ``a I + b X`` with X a real symmetric involution and ``conj(a)
    b = -i/2``, returns ``X q`` from the real columns q and their
    transforms ``Z q``.  Each column j of Q is then paired with column
    ``k-1-j`` by the sign of ``q_{k-1-j}^T X q_j``, the pair error ``X q_j
    - s_j q_{k-1-j}`` is measured on the same slabs of V, and the block is
    kept with its ``rotation``; its reconstruction bound is then on the
    rotation form of step 5.

    The eigenvalues, Q and, for a paired block, the (2, k) rotation table
    (:func:`_rotation_table`) are written into ``kept = (eigenvalues, q,
    table)``, allocated here when not given, and marked read-only.  Either
    way they are allocated before A is formed, so that the arrays a
    decomposition keeps sit below A and the freed temporaries of the solve
    in the heap, not between them: a table allocated after them raised
    apply_stream's peak RSS by 4.8 MiB, and Q allocated after A by about
    5 MiB.

    Raises ``ValueError`` if A is not k x k, finite and Hermitian within
    ``1e-10 * (1 + max|A|)``, and ``ArithmeticError`` if S is not real
    within that, Z fails the probe, the bound on ``max|V^H V - I|`` is not
    below 1e-10, the column norms of V miss those of Q by more than the
    transform's error, or the bound on ``max|A V - V diag(lam)|`` (of a
    paired block, ``max|B Q - Q Omega|``) is not below ``1e-9 * (1 +
    max|A|)``.
    """
    eigenvalues, s, table = kept or (
        np.empty(k), np.empty((k, k)), None if involution is None else np.empty((2, k)))
    a = _square_matrix(form(), k)
    scale, herm_resid = _hermiticity_residual(a)
    eta = transform_error
    a = np.asarray(a, dtype=complex)
    realness_resid = _write_real_form(a, transform, s, scale)
    del a
    # After the transforms above, so that the probe allocates no buffer of
    # the transform's before their buffers.
    _check_symmetric(lambda x: transform(x, np.empty_like(x), axis=0), k, eta)
    try:
        lam, q = np.linalg.eigh(s)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise ArithmeticError(f"eigensolver did not converge: {exc}") from exc
    # Each column's sign fixed, not left to LAPACK.  Negation is exact, and
    # a column's sign cancels in Q P Q^T, in every product below and in
    # the pair sign that follows it, so no operator or residual moves.
    q *= np.where(_largest_entry_negative(q), -1.0, 1.0)
    gram = q.T @ q
    q_norms = gram.diagonal().copy()
    delta_q = _entry_bound(identity_residual(gram), k)
    del gram
    gram_resid = delta_q + (2 * eta + eta * eta) * (1 + delta_q)
    if not gram_resid < ORTHONORMALITY_TOL:
        raise ArithmeticError(
            f"eigenvector columns not orthonormal: max|V^H V - I| <= {gram_resid:.3e}"
        )
    recon = np.empty((k, k))  # s Q, by row blocks, shared or not
    _dealt(_row_blocks(k), lambda rows, _: np.matmul(s[rows], q, out=recon[rows]), lambda: None)
    for rows in _row_blocks(k):
        recon[rows] -= q[rows] * lam
    s_resid = float(np.abs(recon, out=recon).max(initial=0.0))
    del recon
    s_norm = float(np.linalg.norm(s)) * (1 + _gamma(k * k + 2))
    eigenvalues[...] = lam
    s[...] = q
    del q
    v_norms = np.empty(k)
    signs, pair_sq = (None, None) if involution is None else (np.empty(k), np.empty(k))

    def columns_of_v(cols, work):
        slab = _transformed_slab(s, cols, transform, work)
        parts = slab.view(float).reshape(k, -1, 2)
        v_norms[cols] = np.einsum("ijc,ijc->j", parts, parts)
        if involution is not None:
            pair = involution(s[:, cols], slab)
            partner = s[:, ::-1][:, cols]  # column k-1-j beside column j
            signs[cols] = np.where(np.einsum("ij,ij->j", pair, partner) < 0, -1.0, 1.0)
            pair -= partner * signs[cols]
            pair_sq[cols] = np.einsum("ij,ij->j", pair, pair)

    _dealt(_column_slabs(k), columns_of_v, partial(_slab_work, k))
    drift = float(abs(v_norms - q_norms).max(initial=0.0))
    norm_tol = (1 + eta) ** 2 * (1 + _gamma(2 * k)) / (1 - _gamma(k)) - 1
    if not drift <= norm_tol * float(q_norms.max(initial=0.0)):
        raise ArithmeticError(
            f"transform is not unitary: the squared column norms of Z Q and Q differ "
            f"by {drift:.3e}"
        )
    # Step 8: the columns of S Q - Q diag(lam), S the exact form, and A's norm.
    a_norm = (s_norm + k * realness_resid) / (1 - 2 * eta - eta * eta)
    lam_max = float(abs(lam).max(initial=0.0))
    root_q = math.sqrt(1 + delta_q)
    form_resid = math.sqrt(k) * s_resid / (1 - _UNIT_ROUNDOFF) + root_q * (
        _gamma(k + 2) * s_norm + (2 * eta + eta * eta) * a_norm + k * realness_resid
    )
    if involution is None:
        recon_resid = form_resid + root_q * (eta * a_norm + (_gamma(2) + eta) * lam_max)
    else:
        # Step 8 on the rotation form: the exact X's pair error, from the measured one.
        pair_err = (math.sqrt(float(pair_sq.max(initial=0.0))) * (1 + _gamma(k + 3))
                    + (2 * eta + 4 * _UNIT_ROUNDOFF) * root_q)
        mismatch = float(abs(lam + lam[::-1]).max(initial=0.0)) / 2
        recon_resid = (mismatch * (1 + _UNIT_ROUNDOFF) + lam_max * (pair_err + _UNIT_ROUNDOFF)
                       + (2 * form_resid + a_norm * pair_err) / _SQRT2)
        table = _rotation_table(eigenvalues, signs[:k // 2], table)
    if not recon_resid < RESIDUAL_RTOL * scale:
        raise ArithmeticError(
            f"eigendecomposition residual bound {recon_resid:.3e} exceeds tolerance"
        )
    eigenvalues.setflags(write=False)
    s.setflags(write=False)
    return _certified(
        eigenvalues, s, transform, table, hermiticity_residual=herm_resid,
        gram_residual=gram_resid, reconstruction_residual=recon_resid,
        realness_residual=realness_resid, transform_error=eta, basis_gram_bound=k * delta_q,
    )


_SQRT2 = math.sqrt(2.0)


def _fold_part(x: np.ndarray, odd: bool, axis: int = 0, out=None) -> np.ndarray:
    """``sqrt(2) E^T x`` (``odd=False``) or ``sqrt(2) O^T x`` along ``axis``, E, O the parity basis.

    With ``h = N // 2`` samples along ``axis``, E has the columns ``(e_k +
    e_{N-1-k})/sqrt(2)``, ``k < h``, then ``e_h`` when N is odd, and O the
    columns ``(e_k - e_{N-1-k})/sqrt(2)``.  So the even part is the head
    plus the reversed tail, then sqrt(2) times the middle sample of an odd
    N, and the odd part the head minus the reversed tail.  Written into
    ``out`` when given, else into a new array laid out as x.
    """
    along = x.swapaxes(0, axis) if axis else x  # the folded axis first, as a view
    n = along.shape[0]
    h = n // 2
    if out is None:
        shape = list(x.shape)
        shape[axis] = h if odd else n - h
        out = np.empty(shape, dtype=np.promote_types(x.dtype, float))
    out_along = out.swapaxes(0, axis) if axis else out
    head, tail = along[:h], along[:n - h - 1:-1]
    if odd:
        np.subtract(head, tail, out=out_along)
    else:
        np.add(head, tail, out=out_along[:h])
        if n % 2:
            np.multiply(along[h:h + 1], _SQRT2, out=out_along[h:])
    return out


def _fold(x: np.ndarray, axis: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """``(sqrt(2) E^T x, sqrt(2) O^T x)`` along ``axis`` (:func:`_fold_part`), as new arrays."""
    return _fold_part(x, False, axis), _fold_part(x, True, axis)


def _unfold(even: np.ndarray, odd: np.ndarray, axis: int = 0) -> np.ndarray:
    """``(E even + O odd)/sqrt(2)`` along ``axis``: the exact inverse of :func:`_fold`.

    Sums, differences and one halving, into a new array.  A part that is
    absent is passed as zeros, such as a broadcast zero.
    """
    shape = list(even.shape)
    h = odd.shape[axis]
    n = shape[axis] = shape[axis] + h
    out = np.empty(shape, dtype=np.promote_types(even.dtype, odd.dtype))
    out_along = out.swapaxes(0, axis) if axis else out  # the unfolded axis first
    even_along = even.swapaxes(0, axis) if axis else even
    odd_along = odd.swapaxes(0, axis) if axis else odd
    head = even_along[:h]
    np.add(head, odd_along, out=out_along[:h])
    np.subtract(head, odd_along, out=out_along[:n - h - 1:-1])
    if n % 2:
        out_along[h] = even_along[h] * _SQRT2
    out *= 0.5
    return out


def _fold_into(x: np.ndarray, count: int) -> tuple[np.ndarray, ...]:
    """An N-vector on the fold of ``count`` blocks: ``(x,)`` for one, :func:`_fold` for two."""
    return (x,) if count == 1 else _fold(x)


def _unfold_from(parts) -> np.ndarray:
    """The inverse of :func:`_fold_into`: the one part, or :func:`_unfold` of two."""
    return parts[0] if len(parts) == 1 else _unfold(*parts)


def _reversal_fold(a) -> tuple[np.ndarray, np.ndarray, float]:
    """The even and odd blocks of a matrix that commutes with index reversal.

    Returns ``(E^T A E, O^T A O, max|A - J A J|)`` on the reversal-parity
    basis of :func:`_fold`, each block as a new array: A is folded along
    both axes and halved.  Raises ``ValueError`` if ``a`` is not square or
    not finite, and ``ArithmeticError`` if it does not commute with
    reversal, or is not purely imaginary, within ``1e-10 * (1 + max|a|)``.
    Both checks and the fold run a row block at a time, so that beside A
    and the blocks no temporary is larger than a row block.
    """
    a = _square_matrix(a)
    mirrored = a[::-1]  # row N-1-i of a at i
    scale, reversal_resid, real_resid = _row_block_maxima(
        a, lambda rows: a[rows] - mirrored[rows, ::-1], lambda rows: a[rows].real)
    if reversal_resid >= REVERSAL_RTOL * scale:
        raise ArithmeticError(
            f"matrix does not commute with index reversal: max|A - J A J| = "
            f"{reversal_resid:.3e} exceeds {REVERSAL_RTOL * scale:.3e}"
        )
    if real_resid >= REALNESS_RTOL * scale:
        raise ArithmeticError(
            f"matrix is not purely imaginary: max|Re A| = {real_resid:.3e} "
            f"exceeds {REALNESS_RTOL * scale:.3e}"
        )
    # Row i of a block is the column fold of row i plus (even) or minus
    # (odd) that of row N-1-i, the sums of a fold along the columns, then
    # the rows, in the same order: each mirrored pair of row blocks is
    # folded along its columns, straight into the blocks.
    n = a.shape[0]
    h = n // 2
    dtype = np.promote_types(a.dtype, float)
    even, odd = np.empty((n - h, n - h), dtype), np.empty((h, h), dtype)
    for rows in _row_blocks(h):
        _fold_part(a[rows], False, axis=1, out=even[rows])
        even[rows] += _fold_part(mirrored[rows], False, axis=1)
        _fold_part(a[rows], True, axis=1, out=odd[rows])
        odd[rows] -= _fold_part(mirrored[rows], True, axis=1)
    if n % 2:
        _fold_part(a[h:h + 1], False, axis=1, out=even[h:])
        even[h] *= _SQRT2
    even *= 0.5
    odd *= 0.5
    return even, odd, reversal_resid


def _parity_transform(transform, n: int, odd: bool):
    """Z on the even (``odd=False``) or odd block of an N-grid: ``fold(Z unfold(x))``.

    ``transform(x, out, axis)`` applies a Z that commutes with reversal to
    the whole grid; the block's transform has the same protocol, and the
    error of Z plus the few u of the fold and unfold (step 6).
    """
    other = n - n // 2 if odd else n // 2  # the size of the part that is zero

    def block(x: np.ndarray, out: np.ndarray, axis: int) -> np.ndarray:
        shape = list(x.shape)
        shape[axis] = other
        zero = np.broadcast_to(np.zeros((), dtype=x.dtype), shape)
        full = _unfold(zero, x, axis) if odd else _unfold(x, zero, axis)
        full = transform(full, np.empty_like(full), axis=axis)
        return _fold_part(full, odd, axis, out=out)

    return block


def _even_involution(q: np.ndarray, zq: np.ndarray) -> np.ndarray:
    """``C q = 2 Re(Z q) - q``: Z is ``((1+i) I + (1-i) C)/2`` on the even block."""
    return 2 * zq.real - q


def _odd_involution(q: np.ndarray, zq: np.ndarray) -> np.ndarray:
    """``-Y q = -sqrt(2) Im(Z q)``: Z is ``(I + i Y)/sqrt(2)`` on the odd block."""
    return -_SQRT2 * zq.imag


def parity_real_form_eig(form, n: int, transform, transform_error: float
                         ) -> GridDecomposition:
    """:func:`real_form_eig` of each parity block of a reversal-symmetric n x n ``A = form()``.

    A is checked and folded (:func:`_reversal_fold`) and dropped, and each
    block is handed to :func:`real_form_eig` with its transform derived
    from the whole grid's Z (:func:`_parity_transform`), which must
    commute with reversal and be within ``transform_error`` there too,
    and with its involution: Z is ``(F^H)^(1/2)`` with ``F^2 = J``, so on
    the even block, where ``F = C`` is a real symmetric involution, it
    is ``((1+i) I + (1-i) C)/2``, and on the odd one, where ``F = -i Y``,
    ``(I + i Y)/sqrt(2)`` (module docstring).  The arrays both
    blocks keep are allocated before A is formed.  Raises as
    :func:`_reversal_fold` and :func:`real_form_eig` do.
    """
    sizes = (n - n // 2, n // 2)
    kept = [(np.empty(k), np.empty((k, k)), np.empty((2, k))) for k in sizes]
    *blocks, reversal_resid = _reversal_fold(_square_matrix(form(), n))
    take = partial(blocks.pop, 0)
    return GridDecomposition((
        real_form_eig(take, sizes[0], _parity_transform(transform, n, odd=False),
                      transform_error, kept[0], _even_involution),
        real_form_eig(take, sizes[1], _parity_transform(transform, n, odd=True),
                      transform_error, kept[1], _odd_involution),
    ), reversal_resid)


def _row_blocks(k: int) -> list[slice]:
    """The row blocks of a k x k product, each one product that rounds as the whole does.

    Blocks of 96 rows from row 0; a last block of fewer than 48 rows takes
    48 from the one before, and a product of fewer than 144 rows is one
    block.  Each block then starts where BLAS's kernels start a group of
    rows in the whole product (96 is a multiple of their row unrolls, 4
    to 24), and none is so small that BLAS takes it through its kernels
    for small products, which round differently.  Measured with the
    OpenBLAS numpy ships and one BLAS thread, for a right operand given as
    is or transposed, real or complex, at every k up to 1100.  The
    premise is one thread: with two, OpenBLAS splits each product among
    them by its shape, so a row block and the whole product split, and
    round, differently at 823 of those k (most k from 145 on that are not
    a multiple of 8), and no block size of 32 to 512 rows avoided it.
    The split depends only on the shapes, so at any thread count an
    assembly is a function of its inputs and an evicted operator comes
    back bit-identical; only the equality with the whole product is lost.
    """
    if k < 3 * _ROW_BLOCK // 2:
        return [slice(0, k)]
    starts = list(range(0, k, _ROW_BLOCK))
    if k - starts[-1] < _ROW_BLOCK // 2:
        starts[-1] -= _ROW_BLOCK // 2
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [k])]


def _block_entries(k: int) -> int:
    """The entries of the largest row block of a k x k product."""
    return max(r.stop - r.start for r in _row_blocks(k)) * k


def _column_slabs(k: int) -> list[slice]:
    """The slabs of 48 columns (or rows) of a k x k matrix, from the first."""
    step = _ROW_BLOCK // 2
    return [slice(start, min(start + step, k)) for start in range(0, k, step)]


def _slab_work(k: int) -> np.ndarray:
    """Two complex buffers of one slab of a k x k matrix (:func:`_column_slabs`)."""
    return np.empty((2, k * min(_ROW_BLOCK // 2, k)), dtype=complex)


def _transformed_slab(q: np.ndarray, cols: slice, transform, work: np.ndarray) -> np.ndarray:
    """``Z conj(q[:, cols])`` for a k x k q, in the buffers ``work`` (:func:`_slab_work`).

    ``Z q[:, cols]`` for a real q.  The slab is conjugated into the first
    buffer and transformed into the second, which the result is a view
    of, so no k x k complex copy of q is made.  Every column goes through
    the same pointwise products and FFT as in a transform of the whole
    ``conj(q)``, so the columns are bit-identical to it.
    """
    shape = (q.shape[0], cols.stop - cols.start)
    x = np.conjugate(q[:, cols], out=work[0][:shape[0] * shape[1]].reshape(shape))
    return transform(x, work[1][:x.size].reshape(shape), axis=0)


def _unitarity_residual(m: np.ndarray) -> float:
    """``max|M^H M - I|`` of a square block, from the upper triangle of ``M^H M``.

    ``M^H M`` is Hermitian, so a block of 48 rows is formed only from its
    diagonal on, ``M[:, r]^H M[:, a:]`` with a the first row of r, in two
    complex buffers of 48 rows allocated here (:func:`_dealt`).
    """
    k = m.shape[0]

    def block(rows, work):
        a, n = rows.start, rows.stop - rows.start
        left = m[:, rows].T
        if m.dtype.kind == "c":
            left = np.conjugate(left, out=work[0, :n * k].reshape(n, k))
        gram = np.matmul(left, m[:, a:], out=work[1].view(m.dtype)[:n * (k - a)].reshape(n, k - a))
        gram.reshape(-1)[:n * (k - a + 1):k - a + 1] -= 1
        mag = np.abs(gram, out=work[0].view(float)[:gram.size].reshape(gram.shape))
        return float(mag.max(initial=0.0))

    return max([0.0, *_dealt(_column_slabs(k), block, partial(_slab_work, k))])


def _rotation(eig: HermitianEigenDecomposition, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """``(cos, tsin)`` of a paired block's rotation K at the angles ``theta mu_j`` (step 5).

    From the block's ``rotation`` table, over all k entries: ``(cos_j, t_j
    sin_j)`` at j, ``(cos_j, -t_j sin_j)`` at ``k-1-j``, and ``(1, 0)`` at
    the kernel entry of an odd k, so that ``K c = cos * c + tsin *
    reversed(c)``.
    """
    rates, signs = eig.rotation
    angles = rates * theta
    return np.cos(angles), signs * np.sin(angles)


def _rotated(c: np.ndarray, cos: np.ndarray, tsin: np.ndarray,
             out=None, scratch=None) -> np.ndarray:
    """``K c = cos * c + tsin * reversed(c)`` along the last axis (:func:`_rotation`).

    ``(c_j, c_{k-1-j})`` goes to ``(cos_j c_j + t_j sin_j c_{k-1-j}, cos_j
    c_{k-1-j} - t_j sin_j c_j)``, and the kernel entry stays; ``out`` and
    ``scratch``, when given, hold the result and the second product.
    """
    out = np.multiply(c, cos, out=out)
    out += np.multiply(c[..., ::-1], tsin, out=scratch)
    return out


def _paired_block(eig: HermitianEigenDecomposition, theta: float, out: np.ndarray) -> None:
    """``out = (Q K) Q^T`` of a paired block, a row block at a time, in two real buffers."""
    k = eig.block_size
    q = eig.basis
    cos, tsin = _rotation(eig, theta)
    rows_of_qk = np.empty((2, _block_entries(k)))
    for rows in _row_blocks(k):
        shape = (rows.stop - rows.start, k)
        # The rows of Q K: K^T rotates each row, t sin turned to -t sin.
        buffers = (b[:shape[0] * k].reshape(shape) for b in rows_of_qk)
        left = _rotated(q[rows], cos, -tsin, *buffers)
        np.matmul(left, q.T, out=out[rows])


def _real_form_block(eig: HermitianEigenDecomposition, theta: float, out: np.ndarray) -> None:
    """``out = Z W Z^H``, ``W = (Q cos) Q^T - i (Q sin) Q^T``, for a real basis Q, without V.

    Row block r of ``conj(W)`` is two real products, ``(Q[r] cos) Q^T`` and
    ``(Q[r] sin) Q^T``, whose rows Z transforms straight into ``out[r]``;
    then Z runs down the conjugated columns of out, 48 at a time, and
    writes them back: ``M = Z conj(conj(W) Z)``, Z symmetric (step 9).
    The two products are written into ``out[r]``'s float view, and
    ``conj(W)[r]`` is formed over the spent left operand in one complex
    buffer, of a size that also holds both of a column slab's buffers;
    each thread that takes part in a pass (:func:`_dealt`) has one.
    """
    k = eig.block_size
    q, transform = eig.basis, eig.transform
    angles = theta * eig.eigenvalues
    cos, sin = np.cos(angles), np.sin(angles)
    slab = k * min(_ROW_BLOCK // 2, k)

    def rows_of_m(rows, work):
        n = rows.stop - rows.start
        left = work.view(float)[:n * k].reshape(n, k)
        product = out[rows].view(float).reshape(2, n, k)
        for part, phase in zip(product, (cos, sin)):
            np.matmul(np.multiply(q[rows], phase, out=left), q.T, out=part)
        x = work[:n * k].reshape(n, k)  # conj(W)[r], over the spent left operand
        x.real, x.imag = product
        transform(x, out[rows], axis=1)

    def columns_of_m(cols, work):
        out[:, cols] = _transformed_slab(out, cols, transform, work[:2 * slab].reshape(2, slab))

    buffer = partial(np.empty, max(_block_entries(k), 2 * slab), dtype=complex)
    _dealt(_row_blocks(k), rows_of_m, buffer)
    _dealt(_column_slabs(k), columns_of_m, buffer)


def _unitary_block(
    eig: HermitianEigenDecomposition, theta: float
) -> tuple[np.ndarray, float | None]:
    """``M = exp(-i theta A)`` of one decomposed block, certified or checked.

    A paired block is real, ``(Q K) Q^T``, and any other block is ``Z (Q
    P Q^T) Z^H`` (module docstring).
    Returns the read-only block and its measured ``max|M^H M - I|``, None
    where the block is certified.
    """
    # The result is allocated before the temporaries, so that an assembly
    # that is kept does not sit between freed temporaries in the heap.
    k = eig.block_size
    paired = eig.rotation is not None
    out = np.empty((k, k), dtype=float if paired else complex)
    if paired:
        _paired_block(eig, theta, out)
    else:
        _real_form_block(eig, theta, out)
    resid = None
    # A certified block needs no dense re-check (module docstring).
    if eig.unitarity_bound >= UNITARITY_TOL:
        resid = _unitarity_residual(out)
        if resid >= UNITARITY_TOL:
            raise ArithmeticError(
                f"matrix function lost unitarity: max|M^H M - I| = {resid:.3e}"
            )
    out.setflags(write=False)
    return out, resid


#: A complex128 vector viewed as the (n, 2) float matrix of its real and imaginary parts.
_PAIRS = np.dtype((np.float64, (2,)))


def _real_dot(a: np.ndarray, x: np.ndarray, out=None) -> np.ndarray:
    """``a @ x`` for a real matrix a and a C-contiguous complex128 vector x.

    The real and imaginary parts of x are the two columns of its (n, 2)
    float view, so the product is one real product with two columns,
    viewed back as a complex vector: no complex copy of a is made, and a
    vector with a zero imaginary part comes back with a zero imaginary
    part.  ``out``, when given, is a C-contiguous complex vector that
    takes the product through its own (n, 2) view.
    """
    if out is None:
        return a.dot(x.view(_PAIRS)).view(complex).reshape(-1)
    a.dot(x.view(_PAIRS), out=out.view(_PAIRS))
    return out


def _block_dot(m: np.ndarray, x: np.ndarray, adjoint: bool, out=None) -> np.ndarray:
    """``m @ x``, or ``m^H @ x``, for an assembled block and a complex vector, copying neither.

    A real block is one real product (:func:`_real_dot`) with m or its
    transposed view; a complex one ``m.dot(x)``, or ``conj(conj(x) m)``.
    m may be a slab of a block, rows for ``m @ x`` and columns for ``m^H
    @ x``; ``out``, when given, is the C-contiguous vector that takes the
    result.  The adjoint of a whole block is ``np.dot``, which releases
    the GIL at every size; that of a column slab is ``np.matmul``, as
    ``np.dot`` would copy the slab.  The two are bit-identical (measured
    at 273 sizes from 1 to 1100, one and two BLAS threads).
    """
    if m.dtype.kind == "f":
        return _real_dot(m.T if adjoint else m, np.ascontiguousarray(x), out)
    if not adjoint:
        return m.dot(x, out=out)
    product = np.dot if m.flags.c_contiguous else np.matmul
    y = product(np.conjugate(x), m, out=out)
    return np.conjugate(y, out=y)


#: Bytes of assembled blocks above which :meth:`GridUnitary.dot` shares
#: its products with the helper thread, and of a real k x k array above
#: which a build's slab loops do (:func:`_dealt`; module docstring).
_SPLIT_BYTES = 2 << 20

#: One complex block's product is cut at a multiple of this many rows.
_SPLIT_ALIGN = 64

#: The fewest columns of a complex adjoint's slab for which numpy's
#: ``matmul`` releases the GIL (it keeps it for 500 result entries or fewer).
_GIL_FREE_COLUMNS = 512


#: The helper thread's job queue, None until :func:`_beside` first starts it.
_helper: SimpleQueue | None = None

#: Held by the caller whose job the helper runs (:func:`_beside`).
_idle = threading.Lock()


def _serve(jobs: SimpleQueue) -> None:
    """The helper thread: runs each ``(work, done, errors)`` job, then releases ``done``."""
    while True:
        work, done, errors = jobs.get()
        try:
            work()
        except BaseException as exc:  # handed to the caller, which raises it
            errors.append(exc)
        del work, errors  # nothing of a finished job is kept alive here
        done.release()


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


#: The variables OpenBLAS, numpy's usual BLAS, takes its thread count
#: from, in the order it reads them.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _one_blas_thread() -> bool:
    """Whether the first of ``_BLAS_THREAD_VARS`` set to a positive integer is 1.

    Without one, BLAS runs a thread per CPU, and the helper thread is
    never used (:func:`_beside`).
    """
    for var in _BLAS_THREAD_VARS:
        try:
            threads = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if threads > 0:
            return threads == 1
    return False


def _beside(here: Callable[[], object], there: Callable[[], object]) -> bool:
    """``there()`` on the helper thread while ``here()`` runs on the caller; whether it did.

    False, with nothing run, unless BLAS is pinned to one thread
    (:func:`_one_blas_thread`), two CPUs are usable and no other caller
    holds the helper.  Otherwise it returns once both have finished, as
    ``there()`` writes into the caller's arrays, and raises ``here()``'s
    exception, else ``there()``'s.
    """
    global _helper
    if not _one_blas_thread() or _usable_cpus() < 2 or not _idle.acquire(blocking=False):
        return False
    try:
        if _helper is None:  # kept only once its thread has started
            jobs = SimpleQueue()
            threading.Thread(target=_serve, args=(jobs,), name="opscale.linalg helper",
                             daemon=True).start()
            _helper = jobs
        done, errors = threading.Lock(), []
        done.acquire()
        _helper.put((there, done, errors))
        try:
            here()
        finally:
            done.acquire()
    finally:
        _idle.release()
    if errors:
        raise errors[0]
    return True


def _forget_helper() -> None:
    """In a forked child, which has no thread but the one that forked: start afresh."""
    global _helper, _idle
    _helper, _idle = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # a platform without fork has no forked child
    os.register_at_fork(after_in_child=_forget_helper)


def _dealt(slabs: list, body, buffer) -> list:
    """``[body(slab, work) for slab in slabs]``, ``work = buffer()``, shared where it pays.

    Where a real k x k array, k the end of the last slab, is above
    ``_SPLIT_BYTES`` and the helper takes part (:func:`_beside`), the
    caller and the helper each take the next slab from one list until
    none is left, and the results come back in slab order; each body
    writes only its slab's part of the caller's arrays.  Otherwise the
    caller runs every slab in order alone.  Each thread that takes slabs
    calls ``buffer()`` once, for its own work buffers.
    """
    results = [None] * len(slabs)
    left = enumerate(slabs)  # each next() hands out one slab, under the GIL

    def drain():
        work = buffer()
        for i, slab in left:
            results[i] = body(slab, work)

    if not (slabs and 8 * slabs[-1].stop ** 2 > _SPLIT_BYTES and _beside(drain, drain)):
        drain()
    return results


def _split_jobs(blocks, parts, outs, adjoint: bool) -> list:
    """Jobs that write the blocks' products into ``outs``: one per block, or two slabs of one.

    A complex block's product is cut in two slabs of rows of its result,
    the rows of m, or for ``m^H @ x`` the columns of m, at ``k // 2``
    rounded down to a multiple of 64, and for ``m^H @ x`` at 512 at least
    (module docstring).  A block that would leave a slab of fewer than 64
    rows is one job: a slab of one row is an inner product, which rounds
    otherwise.
    """
    if len(blocks) == 2:
        return [partial(_block_dot, m, x, adjoint, out) for m, x, out in zip(blocks, parts, outs)]
    (m,), (x,), (out,) = blocks, parts, outs
    cut = len(m) // 2 // _SPLIT_ALIGN * _SPLIT_ALIGN
    if adjoint:
        cut = max(cut, _GIL_FREE_COLUMNS)
    if m.dtype.kind != "c" or not _SPLIT_ALIGN <= cut <= len(m) - _SPLIT_ALIGN:
        return [partial(_block_dot, m, x, adjoint, out)]
    return [partial(_block_dot, m[:, rows] if adjoint else m[rows], x, adjoint, out[rows])
            for rows in (slice(0, cut), slice(cut, None))]


@dataclass(frozen=True, eq=False)
class GridUnitary:
    """``exp(-i*theta*G)`` of a grid, kept as one assembled block per block of its decomposition.

    Attributes
    ----------
    blocks : tuple of numpy.ndarray
        Read-only square blocks on the fold of the
        :class:`GridDecomposition` it was assembled from: ``(whole,)``,
        complex, or ``(even, odd)``, real.
    unitarity_residual : tuple of (float or None)
        ``max|M^H M - I|`` of each block where the dense check ran, None
        where the block was certified.
    size : int
        N, the sum of the block sizes.
    nbytes : int
        Bytes held by the blocks: two real blocks take a quarter of the
        dense complex matrix.
    """

    blocks: tuple[np.ndarray, ...]
    unitarity_residual: tuple[float | None, ...]
    size: int = field(init=False)
    nbytes: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "size", sum(len(m) for m in self.blocks))
        object.__setattr__(self, "nbytes", sum(m.nbytes for m in self.blocks))

    def dot(self, x, adjoint: bool = False) -> np.ndarray:
        """``U @ x``, or ``U^H @ x``, for an N-vector: fold, one product per block, unfold.

        A real operand is promoted to complex; no block is copied.  Above
        ``_SPLIT_BYTES`` of blocks the products are shared with the
        helper thread, each entry still one product's (module docstring).
        """
        x = np.asarray(x, dtype=complex)
        if x.shape != (self.size,):
            raise ValueError(f"operand has shape {x.shape}, expected ({self.size},)")
        parts = _fold_into(x, len(self.blocks))
        if self.nbytes <= _SPLIT_BYTES:
            return _unfold_from([_block_dot(m, part, adjoint)
                                 for m, part in zip(self.blocks, parts)])
        outs = [np.empty(len(m), dtype=complex) for m in self.blocks]
        jobs = _split_jobs(self.blocks, parts, outs, adjoint)
        if not (len(jobs) == 2 and _beside(*jobs)):
            for job in jobs:
                job()
        return _unfold_from(outs)

    def dense(self, adjoint: bool = False) -> np.ndarray:
        """U, or ``U^H``, as a read-only N x N complex matrix in the original index order.

        One block is U itself, returned as kept, and its conjugate
        transpose a new array.  Two blocks, or their transposes, are
        unfolded along their rows, the other part zero, then down the
        columns, ``(E even E^T + O odd O^T)/2`` doubled exactly, into a new
        array, bit-identical from call to call.
        """
        if len(self.blocks) == 1:
            (m,) = self.blocks
            if not adjoint:
                return m
            out = np.conjugate(m.T, out=np.empty_like(m))
        else:
            even, odd = (m.T for m in self.blocks) if adjoint else self.blocks
            k, h = even.shape[0], odd.shape[0]
            half = _unfold(_unfold(even, np.broadcast_to(0.0, (k, h)), axis=1),
                           _unfold(np.broadcast_to(0.0, (h, k)), odd, axis=1))
            out = np.multiply(half, 2.0, out=np.empty(half.shape, dtype=complex))
        out.setflags(write=False)
        return out


def unitary_from_eig(eig: GridDecomposition, theta: float) -> GridUnitary:
    """Assemble ``exp(-i*theta*G)`` from a precomputed decomposition of G, block by block.

    Each block is read-only: real for a paired block, complex otherwise.
    Every block is unitary to 1e-10: certified by its decomposition's
    ``unitarity_bound``, or else checked with a dense product, which
    raises ``ArithmeticError`` if it fails.
    """
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    blocks, resid = zip(*(_unitary_block(block, theta) for block in eig.blocks))
    return GridUnitary(blocks, resid)


def _transformed(transform, x: np.ndarray, adjoint: bool) -> np.ndarray:
    """``Z x``, or ``Z^H x = conj(Z conj(x))`` (Z is symmetric), for an N-vector.

    The vector is taken as a 1 x N row, along whose axis 1 Z applies,
    in buffers of this call's own; in the forward direction x, which
    the caller owns, is overwritten.
    """
    row = (np.conjugate(x, dtype=complex) if adjoint else x).reshape(1, -1)
    out = transform(row, np.empty_like(row), axis=1).reshape(-1)
    return np.conjugate(out, out=out) if adjoint else out


def _factored_block(eig: HermitianEigenDecomposition, theta: float, x: np.ndarray) -> np.ndarray:
    """``exp(-i theta A) x`` of one decomposed block, in factored form (module docstring, step 5).

    ``Q (K (Q^T x))`` for a paired block; ``Z (Q (p * (Q^T (Z^H x))))``
    otherwise.
    """
    q = eig.basis
    if eig.rotation is not None:
        c = _real_dot(q.T, np.ascontiguousarray(x, dtype=complex))  # Q^T is a view
        return _real_dot(q, _rotated(c, *_rotation(eig, theta)))
    c = _real_dot(q.T, _transformed(eig.transform, x, adjoint=True))
    c *= np.exp(-1j * theta * eig.eigenvalues)
    return _transformed(eig.transform, _real_dot(q, c), adjoint=False)


def apply_from_eig(eig: GridDecomposition, theta: float, x) -> np.ndarray:
    """``exp(-i*theta*G) @ x`` for an N-vector, in factored form, without assembling.

    Fold, one factored product per block, unfold: ``Z (Q (p * (Q^T (Z^H
    x))))``, ``p = exp(-i*theta*lam)``, with one transform of the whole
    vector on each side, or on a paired block ``Q (K (Q^T x))``, K the
    rotation of its pairs, with no transform and no complex phase.  The
    result's relative norm error is within the largest of the blocks'
    ``factored_bound`` (module docstring).

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
    if x.shape != (eig.size,):
        raise ValueError(f"operand has shape {x.shape}, expected ({eig.size},)")
    parts = _fold_into(x, len(eig.blocks))
    return _unfold_from([_factored_block(block, theta, part)
                         for block, part in zip(eig.blocks, parts)])
