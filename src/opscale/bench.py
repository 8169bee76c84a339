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
deterministic: records are listed in the canonical sort order
(function, method, M, N, scheme) and two identical runs emit identical
bytes.  The cells are run in groups of one (method, M, N, scheme), the
test functions innermost, so that the ``INTERP`` cells of a group share
one synthesis matrix; the method stays outermost, so every cold build
(a grid's F, its operators, a CDDHF basis) comes in the order a loop in
canonical order makes it, which a cold sweep's peak memory depends on.
Its N and M lists are checked up front by :mod:`opscale.dft`'s
helpers; failures of individual cells are recorded as NaN entries with
a note rather than aborting the sweep.  Numbers are serialized with 17
significant digits — exact round-trip for IEEE doubles.

A sweep knows every (N, M, scheme) before its first cell, so where
:mod:`opscale.linalg`'s helper thread takes part (two CPUs, BLAS pinned
to one thread, the helper idle: :func:`opscale.linalg._beside`),
``run_bench`` hands the helper the sweep's independent cold builds, the
CDDHF bases of the later M and the generator decompositions
(:func:`_cold_builds`), while the caller runs the cells in canonical
order.  Both threads go through the same cached builders, whose caches
build a key two threads miss at once only once (:mod:`opscale.cache`),
so every object is the one the caller would have built, and with one
BLAS thread the table is bit-identical.  A build that raises on the
helper is dropped: the cell that needs it builds it again and records
the note.  The helper stops once the cells are done; elsewhere the sweep
runs on the caller alone.  With BLAS on two threads already, the helper's
builds contend with the caller's for the same cores: the CLI sweep took
0.63 s with the helper against 0.55 s without it, and 1.1 MiB more
memory (``OPENBLAS_NUM_THREADS=2``, six interpreters each, on a 2-core
Xeon).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from . import __version__, linalg
from .dft import IndexScheme, SampleGrid, _exp_outer, dft_matrix, index_grid
from .dft import as_sample_count, as_scaling_factor, as_signal
from .operators import operator_set
from .pei import cddhf_basis, pei_scale
# The sweep applies each operator once, through _scale_once, but
# scale_signal must stay importable here: perfbench's traced sweep patches
# opscale.bench.scale_signal by name, and its tracer looks the name up with
# getattr, so removing it would break ``perfbench/run.py --trace 1``.
from .scaling import ScalingSpec, _scale_once, scale_signal  # noqa: F401
from .signals import TestFunction, sample, scaled_reference

__all__ = [
    "Method",
    "MseRecord",
    "BenchTable",
    "nmse_percent",
    "interp_scale",
    "scale_with",
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
    """Normalized mean-square error, in percent, of candidate vs reference.

    ``ValueError`` if the two are not vectors of one length, either has a
    NaN or infinite entry, or the reference is zero.
    """
    ref = np.asarray(reference, dtype=complex)
    cand = np.asarray(candidate, dtype=complex)
    if ref.shape != cand.shape or ref.ndim != 1:
        raise ValueError(f"length mismatch: reference {ref.shape}, candidate {cand.shape}")
    if not (np.isfinite(ref).all() and np.isfinite(cand).all()):
        raise ValueError("reference or candidate contains non-finite samples")
    denom = np.linalg.norm(ref) ** 2
    if denom == 0.0:
        raise ValueError("reference vector has zero norm")
    return float(100.0 * np.linalg.norm(ref - cand) ** 2 / denom)


#: The synthesis matrix is built and applied this many rows at a time.
_SLAB_ROWS = 64


def _slabs(n: int) -> list[slice]:
    """Slabs of ``_SLAB_ROWS`` rows from row 0, a last one of fewer merged into the one before.

    A slab of one row is an inner product, which BLAS rounds otherwise
    than a row of the whole product; no slab here has fewer than 64 rows
    unless N itself is below 64.
    """
    starts = list(range(0, n, _SLAB_ROWS))
    if len(starts) > 1 and n - starts[-1] < _SLAB_ROWS:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def _synthesis(grid: SampleGrid, m_factor: float):
    """Yield ``(rows, synth[rows])`` for the slabs of the synthesis matrix, top to bottom.

    ``synth`` is the N x N matrix ``exp(2 pi i t_k n_j / period) /
    sqrt(N)``, ``t = u / M``: row k evaluates the grid's Fourier
    exponentials, labels n_j, at the compressed coordinate t_k.  Each slab
    is built in place (:func:`opscale.dft._exp_outer`) in one buffer,
    which the next slab overwrites, so that a slab is live and not the N x
    N matrix, which at N = 512 set a cold sweep's peak memory.
    """
    n = grid.n_samples
    period = n * grid.spacing
    t = grid.coordinates / m_factor
    slabs = _slabs(n)
    buffer = np.empty(max(r.stop - r.start for r in slabs) * n, dtype=complex)
    for rows in slabs:
        out = buffer[:(rows.stop - rows.start) * n].reshape(-1, n)
        yield rows, _exp_outer(t[rows], grid.indices, 2j * np.pi / period, out)


def interp_scale(signal, grid: SampleGrid, m_factor: float) -> np.ndarray:
    """Scale by resampling the periodic band-limited interpolant.

    The samples determine a unique interpolant in the span of the grid's
    own Fourier exponentials (equivalently, a sum of shifted Dirichlet
    kernels); it is evaluated at ``u_k / M`` and multiplied by
    ``M**-0.5``.  With M = 1 the interpolation property makes this the
    identity.

    ``signal`` is one signal of N samples, or an (N, K) array whose K
    columns are signals, scaled into the columns of the result.  The
    synthesis matrix (:func:`_synthesis`) depends only on the grid and M,
    so it is built once for all of them, a slab of rows at a time.  Each
    column still goes through its own products ``F @ x`` and ``synth @
    coeffs``, and with one BLAS thread each slab's product rounds as
    those rows of the whole product (:func:`_slabs`; measured at N =
    1-299, 383-385, 511-513, 577, 640, 1000 and 1023-1025), so its result
    is bit-identical to a call with that column alone and the whole
    matrix; one (N, K) product rounds differently.

    Raises
    ------
    ValueError
        If ``m_factor`` is not positive and finite, or a signal does not
        match the grid or has a NaN or infinite sample.
    """
    m_factor = as_scaling_factor(m_factor)
    n = grid.n_samples
    signals = np.asarray(signal, dtype=complex)
    # Each column copied out contiguous, as a signal of its own would be.
    columns = np.array(signals.T) if signals.ndim == 2 else [signals]
    f = dft_matrix(n, grid.scheme)
    coeffs = [f @ as_signal(x, n) for x in columns]
    out = np.empty((n, len(coeffs)), dtype=complex)
    for rows, synth in _synthesis(grid, m_factor):
        for j, c in enumerate(coeffs):
            out[rows, j] = m_factor ** -0.5 * (synth @ c)
    return out.reshape(signals.shape)


def scale_with(method: Method, signal, grid: SampleGrid, m_factor: float) -> np.ndarray:
    """Scale ``signal`` on ``grid`` by ``m_factor`` with ``method``.

    A sweep uses each scaling operator once per test function, so
    ``OPERATOR`` applies it in factored form wherever that is certified,
    without assembling it or counting the request; a cell's result depends
    only on its arguments.
    """
    if method is Method.OPERATOR:
        return _scale_once(signal, ScalingSpec(m_factor, grid.n_samples, grid.scheme))
    if method is Method.CDDHF:
        return pei_scale(signal, m_factor)
    return interp_scale(signal, grid, m_factor)


def _failed(exc: Exception) -> tuple[float, str]:
    """The NaN score and the note of a cell that raised ``exc``."""
    return float("nan"), f"{type(exc).__name__}: {exc}"


def _score_group(
    method: Method, grid: SampleGrid, m_factor: float, functions: list, amplitude_factor: bool
) -> dict:
    """``{function: (nmse_percent, note)}`` for the cells of one ``(method, M, N, scheme)``.

    Every function is sampled before any cell is scaled, so that the
    ``INTERP`` cells are scaled in one call of :func:`interp_scale`, the
    group's signals the columns of one array; an exception of that call
    is each of their notes.  A cell that raises at any step is scored NaN
    with its exception as its note, and the other cells go on.
    """
    scores, cells = {}, {}
    for function in functions:
        try:
            signal = sample(function, grid)
            cells[function] = signal, scaled_reference(function, grid, m_factor, amplitude_factor)
        except Exception as exc:  # record the cell, keep sweeping
            scores[function] = _failed(exc)
    columns = {}
    if method is Method.INTERP and cells:
        try:
            batch = interp_scale(np.stack([x for x, _ in cells.values()], axis=1), grid, m_factor)
        except Exception as exc:  # the note of each of the group's cells
            return scores | dict.fromkeys(cells, _failed(exc))
        columns = dict(zip(cells, batch.T))
    for function, (signal, reference) in cells.items():
        try:
            out = columns[function] if columns else scale_with(method, signal, grid, m_factor)
            scores[function] = nmse_percent(reference, out), ""
        except Exception as exc:  # record the cell, keep sweeping
            scores[function] = _failed(exc)
    return scores


def _chosen(name: str, values, default) -> list:
    """``values`` as a list, or ``default`` for ``None``; empty raises ``ValueError``."""
    if values is None:
        return list(default)
    values = list(values)
    if not values:
        raise ValueError(f"{name} must not be empty (None selects the default)")
    return values


def _cold_builds(methods, m_factors, n_values, schemes) -> list:
    """The cold builds of a sweep that :func:`run_bench` hands to the helper thread, in order.

    For each N, the CDDHF basis of M = 1, which the caller's first cell
    of that N builds too (whichever thread comes second waits for it),
    then the bases of the M the caller reaches only in a later pass, all
    but the first M.  Then the generator decompositions: first the one
    the caller needs last, of the largest N, so that its transients come
    while the sweep holds the least memory, then every other in the order
    the caller needs them, so that the caller finds each built or waits
    for it rather than making one beside the helper's.  Each is the
    cached public builder the cells call, with the same arguments.
    """
    builds = []
    if Method.CDDHF in methods:
        later = [m for m in m_factors[1:] if m != 1.0]
        builds += [partial(cddhf_basis, n, m) for n in n_values for m in [1.0, *later]]
    if Method.OPERATOR in methods:
        grids = list(product(n_values, schemes))
        builds += [partial(_generator_eig, n, scheme) for n, scheme in grids[-1:] + grids[:-1]]
    return builds


def _generator_eig(n_samples: int, scheme: IndexScheme) -> None:
    operator_set(n_samples, scheme).generator_eig


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
    index schemes.  ``None`` picks a list's default.  One record per
    parameter tuple, in canonical order; per-cell failures become NaN
    records and the sweep continues.  An empty list, or an invalid N or M
    in the lists, raises ``ValueError`` before any cell runs.

    The cells are run a group ``(method, M, N, scheme)`` at a time, with
    the functions innermost (:func:`_score_group`), so that each group's
    ``INTERP`` cells make one :func:`interp_scale` call and one synthesis
    matrix, which is dropped with the group.  The cold builds of later
    cells run meanwhile on the helper thread, where BLAS is pinned to one
    thread and two CPUs are usable (module docstring).
    """
    functions = sorted(
        {TestFunction(f) for f in _chosen("functions", functions, TestFunction)},
        key=lambda f: f.value,
    )
    methods = sorted(
        {Method(m) for m in _chosen("methods", methods, [Method.OPERATOR])},
        key=lambda m: m.value,
    )
    m_factors = sorted(
        {as_scaling_factor(m) for m in _chosen("m_factors", m_factors, DEFAULT_M_FACTORS)}
    )
    n_values = sorted(
        {as_sample_count(n) for n in _chosen("n_values", n_values, DEFAULT_N_VALUES)}
    )
    schemes = sorted(
        {IndexScheme(s) for s in _chosen("schemes", schemes, IndexScheme)},
        key=lambda s: s.value,
    )

    scores = {}
    builds = _cold_builds(methods, m_factors, n_values, schemes)
    finished = threading.Event()

    def run_groups():
        try:
            for method, m_factor, n_samples, scheme in product(
                methods, m_factors, n_values, schemes
            ):
                grid = index_grid(n_samples, scheme)
                group = _score_group(method, grid, m_factor, functions, amplitude_factor)
                for function, score in group.items():
                    scores[function, method, m_factor, n_samples, scheme] = score
        finally:
            finished.set()

    def prefetch():
        for build in builds:
            if finished.is_set():
                return
            try:
                build()
            except Exception:  # the cell that needs it builds it again and records the note
                pass

    if not (builds and linalg._beside(run_groups, prefetch)):
        run_groups()
    records = [
        MseRecord(*key, *scores[key])
        for key in product(functions, methods, m_factors, n_values, schemes)
    ]
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
