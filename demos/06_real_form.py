"""
The generator's real form
=========================

The scaling generator G satisfies G = F^H conj(G) F, so with the square
root Z = (F^H)^(1/2) (a cubic polynomial in the DFT F) the matrix
S = Z^H G Z is real symmetric.  opscale decomposes S with a real
eigensolver and maps its eigenvectors back with V = Z Q.  The checks
every decomposition passes (orthonormal V, small G V - V diag(lam)) are
made on S and Q in real arithmetic, with an a priori bound on the FFT
that applies Z, so they give bounds, not measurements.  This script
shows, for each grid, how close the computed S came to real, those
bounds beside the residuals measured on (G, V) with complex products,
and the wall time of one cold decomposition.  On symmetric grids
(centered with even N, ordinary with odd N) each parity block is shown.
"""

import time

import numpy as np

from opscale import IndexScheme, OperatorSet, operator_set
from opscale.linalg import ParityEigenDecomposition, _reversal_fold

print(f"{'N':>5} {'scheme':<9} {'block':<5} {'max|Im S|':>10} {'max|V^H V - I|':>23} "
      f"{'max|GV - V lam|':>23} {'eig time':>9}")
print(f"{'':>32}{'bound':>11} {'measured':>11} {'bound':>11} {'measured':>11}")
for n in (128, 512):
    for scheme in IndexScheme:
        cached = operator_set(n, scheme)
        # A fresh set over the same grid, so the cached decomposition is not reused.
        ops = OperatorSet(cached.grid, cached.u_diagonal, cached.d_column)
        start = time.perf_counter()
        eig = ops.generator_eig
        seconds = time.perf_counter() - start
        if isinstance(eig, ParityEigenDecomposition):
            even, odd, _ = _reversal_fold(ops.generator)
            blocks = [("even", even, eig.even), ("odd", odd, eig.odd)]
        else:
            blocks = [("whole", ops.generator, eig)]
        for name, g, block in blocks:
            v = block.eigenvectors
            gram = np.abs(v.conj().T @ v - np.eye(len(v))).max()
            recon = np.abs(g @ v - v * block.eigenvalues).max()
            print(f"{n:>5} {scheme.value:<9} {name:<5} {block.realness_residual:>10.2e} "
                  f"{block.gram_residual:>11.2e} {gram:>11.2e} "
                  f"{block.reconstruction_residual:>11.2e} {recon:>11.2e} {seconds:>8.3f}s")

# The realness check rejects max|Im S| >= 1e-10 * (1 + max|G|); the values
# above are rounding, about six orders of magnitude below it.  The bounds
# are held to the limits the measured residuals were held to before:
# 1e-10 for the gram, 1e-9 * (1 + max|G|) for the reconstruction.
