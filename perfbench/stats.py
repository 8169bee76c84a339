"""Order statistics and output checks shared by run.py and its workers.

Nothing here imports numpy, so run.py can use it before (and
without) loading the numerical stack.
"""

from __future__ import annotations

import csv
import io
import math
import statistics

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10

#: Relative tolerance of the pinned seed-table check.
TABLE_RTOL = 1e-9

#: Relative tolerance of the per-op norm-preservation check.
NORM_RTOL = 1e-10

#: Invariant residuals above this count as failures in the traced run.
RESIDUAL_LIMIT = 1e-10


def percentile(samples, q: float):
    """Nearest-rank ``q``-th percentile of ``samples`` and its sample count.

    Returns ``(value, n_beyond)``, where ``n_beyond`` is the number of
    samples ranked above the percentile, or ``None`` when fewer than
    :data:`MIN_BEYOND` samples lie beyond it: such a percentile is not
    supported by the data and is not reported.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return None
    rank = max(1, math.ceil(q / 100.0 * n))
    beyond = n - rank
    if beyond < MIN_BEYOND:
        return None
    return ordered[rank - 1], beyond


def median(values) -> float:
    return float(statistics.median(values))


def relative_spread(values) -> float:
    """Interquartile distance of ``values`` as a share of their median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def failed_frac(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("no operation was attempted")
    return failed / attempted


def norm_kept(norm_in: float, norm_out: float, rtol: float = NORM_RTOL) -> bool:
    """True when an output norm equals the input norm to ``rtol`` relative."""
    return math.isfinite(norm_out) and abs(norm_out - norm_in) <= rtol * norm_in


def _table_cells(csv_text: str) -> dict:
    rows = csv.DictReader(io.StringIO(csv_text))
    return {
        (r["function"], r["method"], r["m"], r["n"], r["scheme"]): float(r["nmse_percent"])
        for r in rows
    }


def table_mismatches(csv_text: str, reference_text: str, rtol: float = TABLE_RTOL):
    """Compare an ``opscale bench`` CSV with the pinned reference, cell by cell.

    Returns ``(n_cells, bad)``: the number of distinct cells in either
    table, and ``{cell: reason}`` for every reference cell that is missing,
    NaN, or off by more than ``rtol`` relative, and for every cell the
    reference does not have.  An empty ``bad`` means the table matches.
    """
    reference = _table_cells(reference_text)
    got = _table_cells(csv_text)
    bad = {}
    for cell, want in reference.items():
        value = got.get(cell)
        if value is None:
            bad[cell] = "missing"
        elif math.isnan(value):
            bad[cell] = "nan"
        elif abs(value - want) > rtol * abs(want):
            bad[cell] = f"{value!r} != pinned {want!r}"
    for cell in got.keys() - reference.keys():
        bad[cell] = "not in the pinned table"
    return len(reference.keys() | got.keys()), bad
