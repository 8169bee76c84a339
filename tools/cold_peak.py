"""Measure the memory of one cold generator decomposition per grid.

    python3 tools/cold_peak.py N:SCHEME [N:SCHEME ...] [--checkout DIR]

For each grid, such as ``512:ordinary`` or ``1024:centered``, a fresh
interpreter imports opscale from ``src/`` of the checkout (by default the
one that holds this tool), with one BLAS thread, builds the grid's
operator set and then decomposes its generator cold
(``OperatorSet.generator_eig``) twice: first untraced, for the rise of the
process's peak resident memory (``ru_maxrss``) over the decomposition,
then on a second, fresh operator set under ``tracemalloc``, for the peak
of the bytes Python and numpy allocate during it.  One line per grid
gives N, the scheme, the traced peak in bytes and in units of N^2 bytes,
and the ``ru_maxrss`` rise in KiB.  The traced peak is deterministic;
the rise depends on the allocator's state and on LAPACK's own workspace,
which ``tracemalloc`` does not see.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

CHILD = """
import json, resource, sys, tracemalloc
from opscale.operators import OperatorSet, operator_set

n, scheme = int(sys.argv[1]), sys.argv[2]
ops = operator_set(n, scheme)
fresh = OperatorSet(ops.grid, ops.u_diagonal, ops.d_column)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
ops.generator_eig
rise = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
tracemalloc.start()
fresh.generator_eig
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
print(json.dumps({"n": n, "scheme": scheme, "traced_peak": peak, "maxrss_rise_kib": rise}))
"""


def measure(n: int, scheme: str, checkout: Path) -> dict:
    """The traced peak and ``ru_maxrss`` rise of a cold decomposition, in a fresh interpreter."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(checkout / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", CHILD, str(n), scheme], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def _grid(text: str) -> tuple[int, str]:
    n, _, scheme = text.partition(":")
    if not n.isdigit() or int(n) < 1 or scheme not in ("ordinary", "centered"):
        raise argparse.ArgumentTypeError(f"expected N:ordinary or N:centered, got {text!r}")
    return int(n), scheme


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("grids", nargs="+", type=_grid, metavar="N:SCHEME")
    parser.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)
    print(f"{'n':>6} {'scheme':<9} {'traced_peak':>12} {'per_n2':>7} {'maxrss_rise_kib':>16}")
    for n, scheme in args.grids:
        r = measure(n, scheme, args.checkout)
        print(f"{n:>6} {scheme:<9} {r['traced_peak']:>12} {r['traced_peak'] / n**2:>7.2f} "
              f"{r['maxrss_rise_kib']:>16}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
