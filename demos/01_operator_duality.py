"""
Coordinate and differentiation matrices that are exact Fourier duals
====================================================================

The whole construction rests on one choice: instead of multiplying
samples by their raw coordinates u_k = k/sqrt(N), use the sinc-corrected
diagonal U[n,n] = (sqrt(N)/pi) * sin(pi*n/N).  This script shows what
that buys — and what the obvious alternatives cost.
"""

import numpy as np

from opscale import IndexScheme, diff_matrix, index_grid, operator_set

N = 16

for scheme in IndexScheme:
    grid = index_grid(N, scheme)
    print(f"\n--- scheme = {scheme.value} ---")
    print("index labels:", grid.indices)
    print("sample coordinates (u = n*h, h = 1/sqrt(N)):")
    print(np.round(grid.coordinates, 4))

    ops = operator_set(N, scheme)
    # D is Hermitian Toeplitz; the library builds its first column from an
    # FFT of U's diagonal, without F.
    f, u, d = ops.f, ops.u, ops.d

    # The advertised property: transforming D back to the coordinate
    # domain reproduces U exactly, so U and D are one operator seen from
    # the two Fourier domains.
    duality = np.max(np.abs(u - f @ d @ f.conj().T))
    print(f"duality residual  max|U - F D F^H|      = {duality:.3e}")

    # D is Hermitian, so it can sit inside a generator.
    print(f"hermiticity of D  max|D - D^H|          = {np.max(np.abs(d - d.conj().T)):.3e}")

    # The dense reference F^H U F agrees with it to rounding.
    print(f"dense reference   max|D - F^H U F|      = {np.max(np.abs(d - diff_matrix(grid))):.3e}")

# ---------------------------------------------------------------------------
# Why not the naive coordinate matrix diag(u_k)?  Substituted into the
# same duality relation, it misses by half a coordinate unit at the grid
# edge — the relation simply does not hold for it.
ops = operator_set(N, IndexScheme.ORDINARY)
naive = np.diag(ops.grid.coordinates)
print("\nnaive diag(u_k) duality residual:",
      f"{np.max(np.abs(naive - ops.f @ ops.d @ ops.f.conj().T)):.3f}")

# Why not a forward finite difference for the derivative?  It is not
# even symmetric, so no Hermitian generator can be built from it.
h = 1.0 / np.sqrt(N)
shift = np.roll(np.eye(N), 1, axis=1)
d_fwd = (shift - np.eye(N)) / (2j * np.pi * h)
print("forward-difference hermiticity residual:",
      f"{np.max(np.abs(d_fwd - d_fwd.conj().T)):.3f}")
