"""
The generator's real form
=========================

The scaling generator G satisfies G = F^H conj(G) F, so with the square
root Z = (F^H)^(1/2) (a cubic polynomial in the DFT F) the matrix
S = Z^H G Z is real symmetric.  opscale decomposes S with a real
eigensolver and maps its eigenvectors back with V = Z Q.  This script
shows, for each grid, how close the computed S came to real, the checks
every decomposition passes (orthonormal V, small A V - V diag(lam)), and
the wall time of one cold decomposition.  On symmetric grids (centered
with even N, ordinary with odd N) each parity block is shown.
"""

import time

from opscale import IndexScheme, OperatorSet, operator_set
from opscale.linalg import ParityEigenDecomposition

print(f"{'N':>5} {'scheme':<9} {'block':<5} {'max|Im S|':>10} {'max|V^H V - I|':>15} "
      f"{'max|GV - V lam|':>16} {'eig time':>9}")
for n in (128, 512):
    for scheme in IndexScheme:
        cached = operator_set(n, scheme)
        # A fresh set over the same grid, so the cached decomposition is not reused.
        ops = OperatorSet(cached.grid, cached.u_diagonal, cached.d_column)
        start = time.perf_counter()
        eig = ops.generator_eig
        seconds = time.perf_counter() - start
        if isinstance(eig, ParityEigenDecomposition):
            blocks = [("even", eig.even), ("odd", eig.odd)]
        else:
            blocks = [("whole", eig)]
        for name, block in blocks:
            print(f"{n:>5} {scheme.value:<9} {name:<5} {block.realness_residual:>10.2e} "
                  f"{block.gram_residual:>15.2e} {block.reconstruction_residual:>16.2e} "
                  f"{seconds:>8.3f}s")

# The realness check rejects max|Im S| >= 1e-10 * (1 + max|G|); the values
# above are rounding, about six orders of magnitude below it.
