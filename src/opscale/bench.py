"""Benchmark harness: NMSE scoring, parameter sweeps, and table emission.

The experiment protocol: sample a test function on an (N, scheme) grid,
scale it discretely by M with one of three methods, and score the result
against the analytically scaled reference with a normalized mean-square
error in percent,

    NMSE = 100 * ||ref - out||^2 / ||ref||^2.

Methods:

* ``OPERATOR`` — the unitary scaling matrix of :mod:`opscale.scaling`
  (the package's reason to exist).
* ``CDDHF``    — dilated discrete Hermite expansion, :mod:`opscale.pei`.
* ``INTERP``   — the obvious baseline: evaluate the periodic band-limited
  (Dirichlet) interpolant of the samples at the compressed coordinates
  ``u_k / M`` on the same N-point grid, times the same ``M**-0.5``.
  Resampling on the native grid at the native rate sidesteps the
  re-sampling-rate ambiguity that plagues interpolation-based scaling,
  and keeps every method's output vector the same length.  No unitarity
  claim exists for this method, and none is made: for M != 1 its energy
  is genuinely not preserved.

``run_bench`` sweeps the Cartesian product of its parameter lists and is
deterministic: records are produced in the canonical sort order
(function, method, M, N, scheme) and two identical runs emit identical
bytes.  Failures of individual cells are recorded as NaN entries with a
note rather than aborting the sweep.  Numbers are serialized with 17
significant digits — exact round-trip for IEEE doubles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from . import __version__
from .dft import IndexScheme, SampleGrid, dft_matrix, index_grid
from .pei import pei_scale
from .scaling import ScalingSpec, scale_signal
from .signals import TestFunction, sample, scaled_reference

__all__ = [
    "Method",
    "MseRecord",
    "BenchTable",
    "nmse_percent",
    "interp_scale",
    "run_bench",
    "emit_table",
    "DEFAULT_M_FACTORS",
    "DEFAULT_N_VALUES",
]

DEFAULT_M_FACTORS = (0.5, 2.0, 3.0)
DEFAULT_N_VALUES = (128, 256, 512)


class Method(Enum):
    """Discrete scaling method under test."""

    OPERATOR = "operator"
    CDDHF = "cddhf"
    INTERP = "interp"


@dataclass(frozen=True)
class MseRecord:
    """One benchmark cell: (function, method, M, N, scheme) -> NMSE percent.

    ``nmse_percent`` is NaN when the cell failed; ``note`` then carries
    the diagnostic.
    """

    function: TestFunction
    method: Method
    m_factor: float
    n_samples: int
    scheme: IndexScheme
    nmse_percent: float
    note: str = ""


@dataclass
class BenchTable:
    """A collection of benchmark records plus sweep metadata."""

    records: list[MseRecord]
    metadata: dict = field(default_factory=dict)


def nmse_percent(reference, candidate) -> float:
    """Normalized mean-square error, in percent, of candidate vs reference."""
    ref = np.asarray(reference, dtype=complex)
    cand = np.asarray(candidate, dtype=complex)
    if ref.shape != cand.shape or ref.ndim != 1:
        raise ValueError(f"length mismatch: reference {ref.shape}, candidate {cand.shape}")
    denom = np.linalg.norm(ref) ** 2
    if denom == 0.0:
        raise ValueError("reference vector has zero norm")
    return float(100.0 * np.linalg.norm(ref - cand) ** 2 / denom)


def interp_scale(signal, grid: SampleGrid, m_factor: float, amplitude_factor: bool = True) -> np.ndarray:
    """Scale by resampling the periodic band-limited interpolant.

    The samples determine a unique interpolant in the span of the grid's
    own Fourier exponentials (equivalently, a sum of shifted Dirichlet
    kernels); it is evaluated at ``u_k / M`` and multiplied by
    ``M**-0.5``.  With M = 1 the interpolation property makes this the
    identity.

    Raises
    ------
    ValueError
        If ``m_factor`` is not positive and finite, or the signal does not
        match the grid or has a NaN or infinite sample.
    """
    m_factor = float(m_factor)
    if m_factor <= 0 or not np.isfinite(m_factor):
        raise ValueError(f"m_factor must be positive and finite, got {m_factor}")
    vec = np.asarray(signal, dtype=complex)
    if vec.ndim != 1 or vec.shape[0] != grid.n_samples:
        raise ValueError(
            f"signal shape {vec.shape} does not match grid (N={grid.n_samples})"
        )
    if not np.isfinite(vec).all():
        raise ValueError("signal contains non-finite samples")
    n = grid.n_samples
    coeffs = dft_matrix(n, grid.scheme) @ vec
    period = n * grid.spacing
    targets = grid.coordinates / m_factor
    synth = np.exp((2j * np.pi / period) * np.outer(targets, grid.indices)) / np.sqrt(n)
    amplitude = m_factor ** -0.5 if amplitude_factor else 1.0
    return amplitude * (synth @ coeffs)


def _scale_with(method: Method, signal, grid: SampleGrid, m_factor: float) -> np.ndarray:
    if method is Method.OPERATOR:
        spec = ScalingSpec(m_factor, grid.n_samples, grid.scheme)
        return scale_signal(signal, spec)
    if method is Method.CDDHF:
        return pei_scale(signal, m_factor)
    return interp_scale(signal, grid, m_factor)


def run_bench(
    functions: Iterable[TestFunction] | None = None,
    methods: Iterable[Method] | None = None,
    m_factors: Sequence[float] | None = None,
    n_values: Sequence[int] | None = None,
    schemes: Iterable[IndexScheme] | None = None,
    amplitude_factor: bool = True,
) -> BenchTable:
    """Sweep the Cartesian product of the given parameter lists.

    Defaults reproduce the reference experiment: both test functions,
    the OPERATOR method, M in {0.5, 2, 3}, N in {128, 256, 512}, both
    index schemes.  One record per parameter tuple, in canonical order;
    per-cell failures become NaN records and the sweep continues.
    """
    functions = sorted(
        {TestFunction(f) for f in (functions or TestFunction)}, key=lambda f: f.value
    )
    methods = sorted(
        {Method(m) for m in (methods or [Method.OPERATOR])}, key=lambda m: m.value
    )
    m_factors = sorted({float(m) for m in (DEFAULT_M_FACTORS if m_factors is None else m_factors)})
    n_values = sorted({int(n) for n in (DEFAULT_N_VALUES if n_values is None else n_values)})
    schemes = sorted(
        {IndexScheme(s) for s in (schemes or IndexScheme)}, key=lambda s: s.value
    )

    records = []
    for function in functions:
        for method in methods:
            for m_factor in m_factors:
                for n_samples in n_values:
                    for scheme in schemes:
                        try:
                            grid = index_grid(n_samples, scheme)
                            signal = sample(function, grid)
                            reference = scaled_reference(
                                function, grid, m_factor, amplitude_factor
                            )
                            out = _scale_with(method, signal, grid, m_factor)
                            score = nmse_percent(reference, out)
                            note = ""
                        except Exception as exc:  # record the cell, keep sweeping
                            score = float("nan")
                            note = f"{type(exc).__name__}: {exc}"
                        records.append(
                            MseRecord(
                                function, method, m_factor, n_samples, scheme, score, note
                            )
                        )
    metadata = {
        "functions": [f.value for f in functions],
        "methods": [m.value for m in methods],
        "m_factors": list(m_factors),
        "n_values": list(n_values),
        "schemes": [s.value for s in schemes],
        "amplitude_factor": amplitude_factor,
        "version": __version__,
    }
    return BenchTable(records, metadata)


def _format_number(x: float) -> str:
    return format(x, ".17g")


_CSV_HEADER = "function,method,m,n,scheme,nmse_percent"


def emit_table(table: BenchTable, fmt: str = "csv") -> str:
    """Serialize a :class:`BenchTable` deterministically.

    ``fmt`` is ``"csv"`` (header line plus one row per record) or
    ``"markdown"`` (pipe table).  Column order is fixed: function,
    method, m, n, scheme, nmse_percent.
    """
    rows = [
        (
            r.function.value,
            r.method.value,
            _format_number(r.m_factor),
            str(r.n_samples),
            r.scheme.value,
            _format_number(r.nmse_percent),
        )
        for r in table.records
    ]
    if fmt == "csv":
        lines = [_CSV_HEADER]
        lines.extend(",".join(row) for row in rows)
        return "\n".join(lines) + "\n"
    if fmt == "markdown":
        header = _CSV_HEADER.split(",")
        widths = [
            max(len(header[i]), *(len(row[i]) for row in rows)) if rows else len(header[i])
            for i in range(len(header))
        ]
        def fmt_row(cells):
            return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"
        lines = [fmt_row(header), fmt_row(["-" * w for w in widths])]
        lines.extend(fmt_row(row) for row in rows)
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown table format: {fmt!r} (expected 'csv' or 'markdown')")
