"""
Applying a new factor without assembling it
===========================================

Every factor M shares the generator's decomposition G = V diag(lam) V^H,
V = Z Q, with Q real orthogonal (kept) and Z a square root of the
inverse DFT (applied with one FFT).  So exp(-i theta G) x can be computed
as Z (Q (p * (Q^T (Z^H x)))) with the phases p = exp(-i theta lam):
O(N^2) per call instead of the O(N^3) assembly of Z (Q P Q^T) Z^H.  On
the symmetric grids G = i B is purely imaginary, Q pairs its columns
into planes that B rotates, and the factored form is Q (K (Q^T x)) on
each parity block, K the rotation by theta in each plane: no transform.
An assembled operator is cheaper to apply again, so scale_signal applies
a factor's first K requests in factored form, K a quarter of the
largest block, and assembles and caches it from request K + 1 on.
This script shows, at N = 128, 512, 596, 630 and 1024 on each index
scheme whose factored path is certified (596 and 630 ordinary are whole
grids near its edge, 630 certified only with one BLAS thread): how far
apart the two paths' results are, the factored result's norm residual
against its certificate, the wall time of one factored apply, one
assembly and one assembled apply, the request count at which
assembling pays, and the request at which a new factor switches paths.  The times are medians over 21 rounds, each
round timing one assembly and the median of 21 applies of each kind,
and the request count is given with its quartiles over the rounds.  On
the asymmetric grids the two transforms cost a few tens of
microseconds whatever the block size, so at N = 128 the factored apply
is several times slower than the assembled one.
"""

import math
import statistics
import time

import numpy as np

from opscale import IndexScheme, ScalingSpec, operator_set, scale_signal
from opscale.cache import shared
from opscale.linalg import apply_from_eig, unitary_from_eig

ROUNDS = 21


def seconds(call):
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def median_seconds(call, repeats=21):
    return statistics.median(seconds(call) for _ in range(repeats))


M = 1.7
theta = 2 * math.pi * math.log(M)
rng = np.random.default_rng(0)

print(f"{'N':>5} {'scheme':<9} {'|factored - assembled|':>22} {'| |y| - |x| |':>13} "
      f"{'certificate':>11} {'factored':>9} {'assembly':>9} {'assembled':>9} "
      f"{'pays at [quartiles]':>19} {'switch':>6}")
for n in (128, 512, 596, 630, 1024):
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    norm_x = np.linalg.norm(x)
    for scheme in IndexScheme:
        eig = operator_set(n, scheme).generator_eig  # decomposed once per grid
        if not eig.factored_certified:
            # As the one block of 1024 ordinary: every request is assembled.
            print(f"{n:>5} {scheme.value:<9} {'(factored path not certified)':>22}")
            continue
        y = apply_from_eig(eig, theta, x)
        operator = unitary_from_eig(eig, theta)
        gap = np.linalg.norm(y - operator.dot(x)) / norm_x
        norm_resid = abs(np.linalg.norm(y) - norm_x) / norm_x
        certificate = max(block.residuals["factored_bound"] for block in eig.blocks)
        rounds = [(median_seconds(lambda: apply_from_eig(eig, theta, x)),
                   seconds(lambda: unitary_from_eig(eig, theta)),
                   median_seconds(lambda: operator.dot(x))) for _ in range(ROUNDS)]
        t_factored, t_assembly, t_assembled = (statistics.median(c) for c in zip(*rounds))
        # Per round, the extra time of a factored apply; inf where it was not slower.
        pays = sorted(a / (f - d) if f > d else math.inf for f, a, d in rounds)
        low, middle, high = (pays[ROUNDS * i // 4] for i in (1, 2, 3))
        # A factor never requested before: the request that first assembles it.
        spec = ScalingSpec(M * 1.01, n, scheme)
        request = 0
        misses = shared.info().misses
        while shared.info().misses == misses:
            request += 1
            scale_signal(x, spec)
        pays_at = f"{middle:.0f} [{low:.0f}-{high:.0f}]"
        print(f"{n:>5} {scheme.value:<9} {gap:>22.2e} {norm_resid:>13.2e} {certificate:>11.2e} "
              f"{t_factored * 1e6:>7.0f}us {t_assembly * 1e3:>7.2f}ms "
              f"{t_assembled * 1e6:>7.0f}us {pays_at:>19} {request:>6}")

# The certificate bounds | |y|^2/|x|^2 - 1 | for every x; the factored path
# runs only where it is below 1e-10.  Request K + 1 assembles, K being a
# quarter of the largest block: on the centered grids half of N, on the
# ordinary ones N itself (odd N ordinary and even N centered are the
# symmetric grids).  "pays at" is the time of one assembly over the extra
# time of one factored apply: the request count at which assembling would
# have paid for itself (inf where the factored apply was not slower).
# The median and, in brackets, the quartiles are over the 21 rounds.
