"""Command-line front end: ``opscale gen|scale|bench|basis``.

Subcommands
-----------
gen
    Write one of the package's matrices (DFT, coordinate, differentiation,
    generator, scaling, or the squared Pei-indexed pair) as a dense
    matrix file.
scale
    Read a signal file, scale it by M with a chosen method, write the
    result on the same grid.
bench
    Run the benchmark sweep and emit the NMSE table as CSV or markdown.
    A failed cell reads NaN in the table; its diagnostic goes to stderr
    as ``function,method,m,n,scheme: note``.
basis
    Write the CDDHF basis for (N, M), eigenvalues in the header.

File formats (all plain text, comma-separated, ``#``-prefixed metadata):

* signal file: ``index,re,im`` header, one row per sample, indices
  matching the declared scheme's grid exactly; every value finite.
* matrix file: ``row_index,col_index,re,im`` header, N^2 rows in
  row-major order.
* basis file: ``row_index,h0,...,h{N-1}`` header, eigenvalues in a
  metadata line.

Numbers are serialized with 17 significant digits, which round-trips
IEEE doubles exactly: re-parsing a generated file reproduces the
in-memory matrix bit for bit, and identical invocations produce
identical bytes (no timestamps, no environment lookups — flags are the
only configuration).

Exit codes: 0 success, 1 computational failure, 2 usage or input error
(``--n`` and ``--m`` are checked by the library's :mod:`opscale.dft` helpers).
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import __version__
from .bench import Method, emit_table, run_bench, scale_with
from .dft import IndexScheme, as_sample_count, as_scaling_factor, index_grid
from .operators import operator_set
from .pei import cddhf_basis, pei_d_squared, pei_u_squared
from .scaling import ScalingSpec, scaling_matrix
from .signals import TestFunction

__all__ = ["main", "build_parser", "UsageError"]

_GEN_KINDS = ("dft", "u", "d", "generator", "scaling", "u2_pei", "d2_pei")


class UsageError(Exception):
    """Bad flags or malformed input files; maps to exit code 2."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_text(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", newline="\n") as fh:
            fh.write(text)


# ---------------------------------------------------------------- gen ----

def _matrix_labels(kind: str, n: int, scheme: IndexScheme) -> np.ndarray:
    if kind in ("u2_pei", "d2_pei"):
        return np.arange(n, dtype=float)
    return index_grid(n, scheme).indices


def _build_matrix(kind: str, n: int, scheme: IndexScheme, m: float | None) -> np.ndarray:
    if kind == "dft":
        return operator_set(n, scheme).f
    if kind == "u":
        return operator_set(n, scheme).u
    if kind == "d":
        return operator_set(n, scheme).d
    if kind == "generator":
        return operator_set(n, scheme).generator
    if kind == "scaling":
        return scaling_matrix(ScalingSpec(m, n, scheme))
    if kind == "u2_pei":
        return pei_u_squared(n)
    if kind == "d2_pei":
        return pei_d_squared(n)
    raise UsageError(f"unknown matrix kind: {kind!r}")


def cmd_gen(args) -> int:
    if args.kind == "scaling" and args.m is None:
        raise UsageError("--m is required for --kind scaling")
    if args.kind != "scaling" and args.m is not None:
        raise UsageError(f"--m is only meaningful for --kind scaling, not {args.kind!r}")
    scheme = IndexScheme(args.scheme)
    matrix = np.atleast_2d(np.asarray(_build_matrix(args.kind, args.n, scheme, args.m)))
    labels = _matrix_labels(args.kind, args.n, scheme)

    lines = ["# opscale-matrix", f"# kind,{args.kind}", f"# n,{args.n}", f"# scheme,{scheme.value}"]
    if args.kind == "scaling":
        lines.append(f"# m,{_fmt(args.m)}")
    lines.append("row_index,col_index,re,im")
    for i in range(args.n):
        for j in range(args.n):
            z = complex(matrix[i, j])
            lines.append(f"{_fmt(labels[i])},{_fmt(labels[j])},{_fmt(z.real)},{_fmt(z.imag)}")
    _write_text("\n".join(lines) + "\n", args.out)
    return 0


# -------------------------------------------------------------- scale ----

def _parse_signal_file(path: str):
    """Parse a signal file -> (indices, values, declared_scheme, declared_n)."""
    try:
        with open(path) as fh:
            raw_lines = fh.read().splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc

    declared_scheme = None
    declared_n = None
    header_seen = False
    indices, values = [], []
    for lineno, line in enumerate(raw_lines, start=1):
        text = line.strip()
        if not text:
            continue
        if text.startswith("#"):
            body = text.lstrip("#").strip()
            if body.startswith("scheme,"):
                try:
                    declared_scheme = IndexScheme(body.split(",", 1)[1].strip())
                except ValueError as exc:
                    raise UsageError(f"{path}:{lineno}: unknown scheme in header") from exc
            elif body.startswith("n,"):
                try:
                    declared_n = int(body.split(",", 1)[1])
                except ValueError as exc:
                    raise UsageError(f"{path}:{lineno}: bad n in header") from exc
            continue
        if not header_seen:
            if text != "index,re,im":
                raise UsageError(
                    f"{path}:{lineno}: expected header 'index,re,im', got {text!r}"
                )
            header_seen = True
            continue
        parts = text.split(",")
        if len(parts) != 3:
            raise UsageError(
                f"{path}:{lineno}: expected 3 comma-separated values, got {len(parts)}"
            )
        try:
            idx, re_part, im_part = (float(p) for p in parts)
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: non-numeric value") from exc
        if not all(map(math.isfinite, (idx, re_part, im_part))):
            raise UsageError(f"{path}:{lineno}: non-finite value")
        indices.append(idx)
        values.append(complex(re_part, im_part))
    if not header_seen:
        raise UsageError(f"{path}: missing 'index,re,im' header row")
    if not indices:
        raise UsageError(f"{path}: no data rows")
    if declared_n is not None and declared_n != len(indices):
        raise UsageError(
            f"{path}: header declares n={declared_n} but file has {len(indices)} rows"
        )
    return np.array(indices), np.array(values, dtype=complex), declared_scheme, declared_n


def cmd_scale(args) -> int:
    indices, vec, declared_scheme, _ = _parse_signal_file(args.infile)

    if args.scheme is not None and declared_scheme is not None:
        if IndexScheme(args.scheme) is not declared_scheme:
            raise UsageError(
                f"--scheme {args.scheme} conflicts with file header scheme "
                f"{declared_scheme.value}"
            )
    scheme = (
        IndexScheme(args.scheme) if args.scheme is not None
        else declared_scheme if declared_scheme is not None
        else IndexScheme.CENTERED
    )
    n = len(vec)
    grid = index_grid(n, scheme)
    mismatch = np.flatnonzero(indices != grid.indices)
    if mismatch.size:
        k = int(mismatch[0])
        raise UsageError(
            f"{args.infile}: index column does not match the {scheme.value} grid for "
            f"N={n} (first mismatch at data row {k + 1}: {_fmt(indices[k])} != "
            f"{_fmt(grid.indices[k])})"
        )

    out = scale_with(Method(args.method), vec, grid, args.m)

    lines = ["# opscale-signal", f"# n,{n}", f"# scheme,{scheme.value}", "index,re,im"]
    for idx, z in zip(grid.indices, out):
        lines.append(f"{_fmt(idx)},{_fmt(z.real)},{_fmt(z.imag)}")
    _write_text("\n".join(lines) + "\n", args.out)
    return 0


# -------------------------------------------------------------- bench ----

def cmd_bench(args) -> int:
    if args.function == "all":
        functions = list(TestFunction)
    else:
        functions = [TestFunction(args.function)]
    try:
        methods = [Method(tok.strip()) for tok in args.methods.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"unknown method in --methods {args.methods!r}") from exc
    if not methods:
        raise UsageError("--methods must list at least one method")
    table = run_bench(
        functions=functions,
        methods=methods,
        amplitude_factor=not args.no_amplitude_factor,
    )
    _write_text(emit_table(table, args.format), args.out)
    for r in table.records:
        if r.note:
            cell = (r.function.value, r.method.value, _fmt(r.m_factor), str(r.n_samples),
                    r.scheme.value)
            print(f"{','.join(cell)}: {r.note}", file=sys.stderr)
    return 0


# -------------------------------------------------------------- basis ----

def cmd_basis(args) -> int:
    basis = cddhf_basis(args.n, args.m)
    lines = [
        "# opscale-basis",
        f"# n,{args.n}",
        f"# m,{_fmt(args.m)}",
        "# eigenvalues," + ",".join(_fmt(v) for v in basis.eigenvalues),
        "row_index," + ",".join(f"h{p}" for p in range(args.n)),
    ]
    for k in range(args.n):
        lines.append(str(k) + "," + ",".join(_fmt(v) for v in basis.vectors[k, :]))
    _write_text("\n".join(lines) + "\n", args.out)
    return 0


# --------------------------------------------------------------- main ----

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opscale",
        description="Unitary discrete signal scaling from DFT-consistent operator matrices.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a matrix file")
    p_gen.add_argument("--kind", required=True, choices=_GEN_KINDS)
    p_gen.add_argument("--n", required=True, type=int, help="number of samples N")
    p_gen.add_argument("--scheme", default="centered", choices=["centered", "ordinary"])
    p_gen.add_argument("--m", type=float, default=None, help="scaling factor (kind=scaling only)")
    p_gen.add_argument("--out", default=None, help="output path (default: stdout)")
    p_gen.set_defaults(handler=cmd_gen)

    p_scale = sub.add_parser("scale", help="scale a signal file by M")
    p_scale.add_argument("--in", dest="infile", required=True, help="input signal file")
    p_scale.add_argument("--m", required=True, type=float, help="scaling factor M > 0")
    p_scale.add_argument(
        "--method", default="operator", choices=[m.value for m in Method]
    )
    p_scale.add_argument("--scheme", default=None, choices=["centered", "ordinary"])
    p_scale.add_argument("--out", default=None, help="output path (default: stdout)")
    p_scale.set_defaults(handler=cmd_scale)

    p_bench = sub.add_parser("bench", help="run the NMSE benchmark sweep")
    p_bench.add_argument("--function", default="all", choices=["chirp", "trapezoid", "all"])
    p_bench.add_argument(
        "--methods", default="operator",
        help="comma-separated subset of operator,cddhf,interp",
    )
    p_bench.add_argument("--format", default="csv", choices=["csv", "markdown"])
    p_bench.add_argument("--out", default=None, help="output path (default: stdout)")
    p_bench.add_argument(
        "--no-amplitude-factor", action="store_true",
        help="drop the M**-0.5 factor from the analytic reference",
    )
    p_bench.set_defaults(handler=cmd_bench)

    p_basis = sub.add_parser("basis", help="write a CDDHF basis file")
    p_basis.add_argument("--n", required=True, type=int, help="number of samples N")
    p_basis.add_argument("--m", type=float, default=1.0, help="dilation factor M > 0")
    p_basis.add_argument("--out", default=None, help="output path (default: stdout)")
    p_basis.set_defaults(handler=cmd_basis)

    return parser


def _check_flags(args) -> None:
    """Normalize ``--n`` and ``--m``; a rejection is a usage error naming the flag."""
    for flag, check in (("n", as_sample_count), ("m", as_scaling_factor)):
        value = getattr(args, flag, None)
        if value is not None:
            try:
                setattr(args, flag, check(value))
            except ValueError as exc:  # "<parameter> must ..." -> "--<flag> must ..."
                raise UsageError(f"--{flag} {str(exc).split(' ', 1)[1]}") from exc


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_flags(args)
        return args.handler(args)
    except UsageError as exc:
        print(f"opscale: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # computational failure
        print(f"opscale: computation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
