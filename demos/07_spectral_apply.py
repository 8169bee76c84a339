"""
Applying a new factor without assembling it
===========================================

Every factor M shares the generator's decomposition G = V diag(lam) V^H,
so exp(-i theta G) x can be computed as V (p * (V^H x)) with the phases
p = exp(-i theta lam): O(N^2) per call instead of the O(N^3) assembly of
V diag(p) V^H.  An assembled operator is cheaper to apply again, so
scale_signal applies a factor's first K requests in factored form, K a
quarter of the largest block, and assembles and caches it from request
K + 1 on.
This script shows, at N = 512 on both index schemes: how far apart the
two paths' results are, the factored result's norm residual against its
certificate, the wall time of one factored apply, one assembly and one
assembled apply, and the request at which a new factor switches paths.
"""

import math
import statistics
import time

import numpy as np

from opscale import IndexScheme, ScalingSpec, operator_set, scale_signal
from opscale.cache import shared
from opscale.linalg import ParityEigenDecomposition, apply_from_eig, unitary_from_eig


def median_seconds(call, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


N, M = 512, 1.7
theta = 2 * math.pi * math.log(M)
rng = np.random.default_rng(0)
x = rng.standard_normal(N) + 1j * rng.standard_normal(N)
norm_x = np.linalg.norm(x)

print(f"{'scheme':<9} {'|factored - assembled|':>22} {'| |y| - |x| |':>13} {'certificate':>11} "
      f"{'factored':>9} {'assembly':>9} {'assembled':>9} {'pays at':>7} {'switch':>6}")
for scheme in IndexScheme:
    eig = operator_set(N, scheme).generator_eig  # decomposed once per grid
    blocks = [eig.even, eig.odd] if isinstance(eig, ParityEigenDecomposition) else [eig]
    y = apply_from_eig(eig, theta, x)
    operator = unitary_from_eig(eig, theta)
    gap = np.linalg.norm(y - operator @ x) / norm_x
    norm_resid = abs(np.linalg.norm(y) - norm_x) / norm_x
    certificate = max(block.factored_bound for block in blocks)
    t_factored = median_seconds(lambda: apply_from_eig(eig, theta, x), 51)
    t_assembly = median_seconds(lambda: unitary_from_eig(eig, theta), 5)
    t_assembled = median_seconds(lambda: operator @ x, 201)
    # A factor never requested before: the request that first assembles it.
    spec = ScalingSpec(M * 1.01, N, scheme)
    request = 0
    misses = shared.info().misses
    while shared.info().misses == misses:
        request += 1
        scale_signal(x, spec)
    print(f"{scheme.value:<9} {gap:>22.2e} {norm_resid:>13.2e} {certificate:>11.2e} "
          f"{t_factored * 1e3:>7.3f}ms {t_assembly * 1e3:>7.2f}ms {t_assembled * 1e3:>7.3f}ms "
          f"{t_assembly / (t_factored - t_assembled):>7.0f} {request:>6}")

# The certificate bounds | |y|^2/|x|^2 - 1 | for every x; the factored path
# runs only where it is below 1e-10.  Request K + 1 assembles, K being a
# quarter of the largest block: 64 of the centered grid's 256, 128 of the
# dense ordinary grid's 512.  "pays at" is the time of one assembly over
# the extra time of one factored apply: the request count at which
# assembling would have paid for itself.
