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
Such a block of G = i B is kept paired: column j of Q with column
k-1-j, which B rotates into each other at the rate mu_j = (lam_j -
lam_{k-1-j})/2.  Its reconstruction bound, and the residual shown beside
it, are those of that rotation form, max|B Q - Q Omega|.
"""

import time

import numpy as np

from opscale import IndexScheme, OperatorSet, operator_set
from opscale.linalg import _reversal_fold


def rotation_residual(b, block):
    """``max|B Q - Q Omega|``: ``B q_j = -t_j mu_j q_{k-1-j}``, ``B q_{k-1-j} = t_j mu_j q_j``."""
    q, lam = block.basis, block.eigenvalues
    h = len(lam) // 2
    t = block.rotation[1][:h]  # the signs t_j, j < k // 2
    rate = t * (lam[:h] - lam[::-1][:h]) / 2
    omega_q = np.zeros_like(q)
    omega_q[:, :h] = -rate * q[:, ::-1][:, :h]
    omega_q[:, ::-1][:, :h] = rate * q[:, :h]
    return np.abs(b @ q - omega_q).max(initial=0.0)


print(f"{'N':>5} {'scheme':<9} {'block':<5} {'max|Im S|':>10} {'max|V^H V - I|':>23} "
      f"{'max|GV - V lam|*':>23} {'eig time':>9}")
print(f"{'':>32}{'bound':>11} {'measured':>11} {'bound':>11} {'measured':>11}")
for n in (128, 512):
    for scheme in IndexScheme:
        cached = operator_set(n, scheme)
        # A fresh set over the same grid, so the cached decomposition is not reused.
        ops = OperatorSet(cached.grid, cached.u_diagonal, cached.d_column)
        start = time.perf_counter()
        eig = ops.generator_eig
        seconds = time.perf_counter() - start
        if len(eig.blocks) == 2:
            blocks = zip(("even", "odd"), _reversal_fold(ops.generator)[:2], eig.blocks)
        else:
            blocks = [("whole", ops.generator, eig.blocks[0])]
        for name, g, block in blocks:
            v = block.eigenvectors
            gram = np.abs(v.conj().T @ v - np.eye(len(v))).max()
            if block.rotation is None:
                recon = np.abs(g @ v - v * block.eigenvalues).max()
            else:
                recon = rotation_residual(g.imag, block)
            residuals = block.residuals
            print(f"{n:>5} {scheme.value:<9} {name:<5} {residuals['realness_residual']:>10.2e} "
                  f"{residuals['gram_residual']:>11.2e} {gram:>11.2e} "
                  f"{residuals['reconstruction_residual']:>11.2e} {recon:>11.2e} {seconds:>8.3f}s")

# The realness check rejects max|Im S| >= 1e-10 * (1 + max|G|); the values
# above are rounding, about six orders of magnitude below it.  The bounds
# are held to the limits the measured residuals were held to before:
# 1e-10 for the gram, 1e-9 * (1 + max|G|) for the reconstruction.
# (*) max|B Q - Q Omega| on the parity blocks.
