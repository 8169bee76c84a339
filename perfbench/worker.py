"""One workload run in one fresh interpreter.

``run.py`` starts this script once per run, one after another, so every
run pays its own imports and cold construction: opscale's caches live as
long as the process, and a fresh interpreter is the only way to measure
cold work and peak memory without touching them.

    python3 perfbench/worker.py '<json config>'

The config names the workload, the seed, the child index and whether the
run is traced.  The script prints one JSON line with its timings, its
checks and, when traced, its spans.  It drives opscale only through its
public API, and the program only ever receives the generated inputs.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time
from contextlib import ExitStack
from itertools import islice
from pathlib import Path
from time import perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import opscale  # noqa: E402
from opscale import (  # noqa: E402
    IndexScheme,
    ScalingSpec,
    cddhf_basis,
    dft_matrix,
    operator_set,
    scale_signal,
    scaling_matrix,
)
from opscale import bench as op_bench  # noqa: E402
from opscale import cli as op_cli  # noqa: E402

import stats  # noqa: E402
import tracing  # noqa: E402

SCHEMES = (IndexScheme.CENTERED, IndexScheme.ORDINARY)

# sweep_cold: the paper's reference experiment, exactly as a researcher runs it.
SWEEP_ARGS = ["bench", "--methods", "operator,cddhf,interp"]
SWEEP_N = (128, 256, 512)
SWEEP_M = (0.5, 2.0, 3.0)
PEI_M = (1.0, 0.5, 2.0, 3.0)  # M = 1 is the analysis basis every pei_scale uses
SEED_TABLE = HERE / "seed_sweep.csv"

# apply_stream: 8 warm specs; a quarter of the draws hit the large grid, so
# the median sits in the overhead-bound mode and the tail in the
# bandwidth-bound one.
APPLY_N = (128, 1024)
APPLY_M = (0.5, 2.0)
APPLY_LARGE_SHARE = 0.25
APPLY_POOL = 32  # seeded signals per N, drawn at random
TRACED_APPLY_OPS = 2000

# m_stream: every op asks for a scaling factor never seen before.
M_STREAM_N = 512
M_STREAM_RANGE = (0.25, 4.0)
M_STREAM_BATCH = 64  # new M per interpreter, so peak memory does not depend on speed

STAGE_N = 512  # grid of the stage costs given in units of one complex matmul


class Checks:
    """Counts attempted and failed ops; keeps the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def add(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(what)

    def summary(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "errors": self.errors}


def complex_signal(rng, n: int) -> np.ndarray:
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def run_ops(ops, call, checks: Checks, deadline_ns=None, on_op=None):
    """Closed loop with one client: each op starts when the previous one ends.

    ``ops`` yields ``(signal, input_norm, spec)``.  Only ``call`` is timed.
    An exception or an output whose norm differs from the input's by more
    than 1e-10 relative is a failed op; the loop goes on.  Returns the
    ops' latencies in ns, as a list of ints (which the garbage collector
    does not scan), and the loop's wall time in ns.
    """
    latencies = []
    loop_start = perf_counter_ns()
    for x, norm_x, spec in ops:
        t0 = perf_counter_ns()
        if deadline_ns is not None and t0 >= deadline_ns:
            break
        try:
            y = call(x, spec)
        except Exception as exc:  # a failed op is counted, never fatal
            t1 = perf_counter_ns()
            checks.add(False, f"{spec}: {type(exc).__name__}: {exc}")
        else:
            t1 = perf_counter_ns()
            ok = stats.norm_kept(norm_x, float(np.linalg.norm(y)))
            checks.add(ok, "" if ok else f"{spec}: norm not kept")
        latencies.append(t1 - t0)
        if on_op is not None:
            on_op(t0, t1, spec)
    return latencies, perf_counter_ns() - loop_start


# ------------------------------------------------------------- inputs ----

def apply_inputs(seed: int, child: int):
    rng = np.random.default_rng([seed, child, 0])
    pools = {}
    for n in APPLY_N:
        signals = [complex_signal(rng, n) for _ in range(APPLY_POOL)]
        pools[n] = [(x, float(np.linalg.norm(x))) for x in signals]
    specs = {n: [ScalingSpec(m, n, s) for m in APPLY_M for s in SCHEMES] for n in APPLY_N}
    return pools, specs


def apply_ops(seed: int, child: int, pools, specs):
    """Endless seeded draws: a grid, one of its four specs and a pooled signal."""
    rng = np.random.default_rng([seed, child, 1])
    small, large = APPLY_N
    chunk = 4096  # draws made at once, outside the timed calls
    while True:
        big = rng.random(chunk) < APPLY_LARGE_SHARE
        spec_idx = rng.integers(0, len(specs[small]), chunk)
        sig_idx = rng.integers(0, APPLY_POOL, chunk)
        for b, k, j in zip(big.tolist(), spec_idx.tolist(), sig_idx.tolist()):
            n = large if b else small
            x, norm_x = pools[n][j]
            yield x, norm_x, specs[n][k]


def m_ops(seed: int, child: int) -> list:
    """A batch of log-uniform new factors at one N, alternating schemes."""
    rng = np.random.default_rng([seed, child, 2])
    lo, hi = (math.log(v) for v in M_STREAM_RANGE)
    factors = np.exp(rng.uniform(lo, hi, M_STREAM_BATCH))
    ops = []
    for i, m in enumerate(factors.tolist()):
        x = complex_signal(rng, M_STREAM_N)
        ops.append((x, float(np.linalg.norm(x)), ScalingSpec(m, M_STREAM_N, SCHEMES[i % 2])))
    return ops


def check_sweep(checks: Checks, code: int, out: Path) -> None:
    """Each of the 108 cells is one op, checked against the pinned seed table."""
    text = out.read_text() if out.exists() else ""
    n_cells, bad = stats.table_mismatches(text, SEED_TABLE.read_text())
    if code != 0:
        checks.add(False, f"opscale bench exited with code {code}")
    for cell, reason in sorted(bad.items()):
        checks.add(False, f"{','.join(cell)}: {reason}")
    for _ in range(n_cells - len(bad)):
        checks.add(True)


# ---------------------------------------------------------- untraced ----

def sweep_untraced(cfg: dict, checks: Checks) -> dict:
    out = Path(cfg["scratch"]) / f"sweep-{cfg['child']}.csv"
    out.unlink(missing_ok=True)
    t_first = time.monotonic()
    t0 = perf_counter_ns()
    code = op_cli.main(SWEEP_ARGS + ["--out", str(out)])
    op_ns = perf_counter_ns() - t0
    check_sweep(checks, code, out)
    return {"t_first_op": t_first, "latencies_ns": [op_ns], "measured_s": op_ns / 1e9}


def apply_untraced(cfg: dict, checks: Checks) -> dict:
    pools, specs = apply_inputs(cfg["seed"], cfg["child"])
    for n in APPLY_N:
        for spec in specs[n]:
            scale_signal(pools[n][0][0], spec)  # warm-up construction
    ops = apply_ops(cfg["seed"], cfg["child"], pools, specs)
    t_first = time.monotonic()
    deadline = perf_counter_ns() + int(cfg["slice_s"] * 1e9)
    latencies, wall = run_ops(ops, scale_signal, checks, deadline_ns=deadline)
    return {"t_first_op": t_first, "latencies_ns": latencies, "measured_s": wall / 1e9}


def m_untraced(cfg: dict, checks: Checks) -> dict:
    for scheme in SCHEMES:
        operator_set(M_STREAM_N, scheme).generator_eig  # warm-up construction
    ops = m_ops(cfg["seed"], cfg["child"])
    t_first = time.monotonic()
    latencies, wall = run_ops(ops, scale_signal, checks)
    return {"t_first_op": t_first, "latencies_ns": latencies, "measured_s": wall / 1e9}


# ------------------------------------------------------------ traced ----

def build_grid(tr: tracing.Tracer, n: int, scheme: IndexScheme) -> None:
    """Cold construction of one grid, one span per layer: F, then U/D/G, then eig."""
    attrs = {"n": n, "scheme": scheme.value}
    with tr.span("dft.dft_matrix", **attrs):
        dft_matrix(n, scheme)
    with tr.span("operators.operator_set", **attrs):
        ops = operator_set(n, scheme)
    with tr.span("linalg.generator_eig", **attrs):
        ops.generator_eig


def grid_metrics(tr: tracing.Tracer, start: int, end: int) -> dict:
    """Per-layer metrics every section measures on its own grids."""
    def total(name):
        return tracing.total_s(tr.between(start, end, name))

    requested = {
        (s["attrs"]["m"], s["attrs"]["n"], s["attrs"]["scheme"])
        for s in tr.between(start, end)
        if s["name"] in ("scaling.scaling_matrix", "scaling.scale_signal")
    }
    return {
        "dft.dft_matrix_s": total("dft.dft_matrix"),
        "operators.operator_set_s": total("operators.operator_set"),
        "operators.builds": operator_set.cache_info().misses,
        "linalg.generator_eig_s": total("linalg.generator_eig"),
        "scaling.scaling_matrix_s": total("scaling.scaling_matrix"),
        "scaling.cache_bytes_computed": sum(16 * n * n for _, n, _ in requested),
    }


def mean_at(tr: tracing.Tracer, start: int, end: int, name: str, n: int) -> float:
    spans = tr.between(start, end, name, n=n)
    return tracing.total_s(spans) / len(spans)


def spec_attrs(spec: ScalingSpec) -> dict:
    return {"n": spec.n_samples, "scheme": spec.scheme.value, "m": spec.m_factor}


def section(tr, start, end, metrics, stages, **extra) -> dict:
    wall_s = (end - start) / 1e9
    spans = tr.between(start, end)
    return {
        "metrics": metrics, "stages": stages, "wall_s": wall_s, "n_spans": len(spans),
        "coverage": tracing.coverage(spans, wall_s), **extra,
    }


def sweep_traced(tr: tracing.Tracer, checks: Checks, cfg: dict) -> dict:
    """Cold builds per layer, then the CLI sweep with its inner calls spanned."""
    start = perf_counter_ns()
    for n in SWEEP_N:
        for scheme in SCHEMES:
            build_grid(tr, n, scheme)
            for m in SWEEP_M:
                spec = ScalingSpec(m, n, scheme)
                with tr.span("scaling.scaling_matrix", **spec_attrs(spec)):
                    scaling_matrix(spec)
    for n in SWEEP_N:
        for m in PEI_M:
            with tr.span("pei.cddhf_basis", n=n, m=m):
                cddhf_basis(n, m)
    out = Path(cfg["scratch"]) / f"sweep-traced-{cfg['child']}.csv"
    out.unlink(missing_ok=True)
    patches = [
        (op_cli, "run_bench", "bench.run_bench", None),
        (op_cli, "emit_table", "bench.emit_table", None),
        (op_bench, "scale_signal", "scaling.scale_signal",
         lambda x, spec, ops=None: spec_attrs(spec)),
        (op_bench, "pei_scale", "pei.pei_scale", lambda x, m: {"n": len(x), "m": float(m)}),
        (op_bench, "interp_scale", "bench.interp_scale",
         lambda x, grid, m, amplitude_factor=True: {"n": grid.n_samples, "m": float(m)}),
        (op_bench, "sample", "signals.sample", None),
        (op_bench, "scaled_reference", "signals.scaled_reference", None),
    ]
    with ExitStack() as stack:
        for module, attr, name, describe in patches:
            stack.enter_context(tr.patched(module, attr, name, describe))
        with tr.span("cli.main") as main_span:
            code = op_cli.main(SWEEP_ARGS + ["--out", str(out)])
    end = perf_counter_ns()
    check_sweep(checks, code, out)

    def within(name):
        return tr.between(start, end, name)

    (run_bench,) = within("bench.run_bench")
    (emit,) = within("bench.emit_table")
    methods = [s for s in tr.between(run_bench["start"], run_bench["end"])
               if s["name"] in ("scaling.scale_signal", "pei.pei_scale", "bench.interp_scale")]
    pei_warm = [tracing.duration_s(s) for s in tr.between(start, end, "pei.pei_scale", n=STAGE_N)]
    notes = [
        f"{r.function.value},{r.method.value},{r.m_factor:g},{r.n_samples},{r.scheme.value}: "
        f"{r.note}"
        for r in run_bench["result"].records if r.note
    ]
    metrics = grid_metrics(tr, start, end)
    metrics.update({
        "pei.cddhf_basis_s": tracing.total_s(within("pei.cddhf_basis")),
        "pei.pei_scale_us": stats.median(pei_warm) * 1e6,
        "bench.interp_scale_s": tracing.total_s(within("bench.interp_scale")),
        "bench.harness_s": tracing.duration_s(run_bench) - tracing.total_s(methods),
        "signals.sample_s": tracing.total_s(
            within("signals.sample") + within("signals.scaled_reference")
        ),
        "cli.overhead_s": tracing.duration_s(main_span) - tracing.duration_s(run_bench)
        - tracing.duration_s(emit),
    })
    stages = {
        "dft": mean_at(tr, start, end, "dft.dft_matrix", STAGE_N),
        "operators": mean_at(tr, start, end, "operators.operator_set", STAGE_N),
        "eig": mean_at(tr, start, end, "linalg.generator_eig", STAGE_N),
        "assembly": mean_at(tr, start, end, "scaling.scaling_matrix", STAGE_N),
        "pei_basis": mean_at(tr, start, end, "pei.cddhf_basis", STAGE_N),
    }
    return section(tr, start, end, metrics, stages, notes=notes)


def apply_traced(tr: tracing.Tracer, checks: Checks, cfg: dict) -> dict:
    """Cold builds of the 4 grids and 8 specs, then warm calls, each spanned."""
    pools, specs = apply_inputs(cfg["seed"], cfg["child"])
    start = perf_counter_ns()
    for n in APPLY_N:
        for scheme in SCHEMES:
            build_grid(tr, n, scheme)
    for n in APPLY_N:
        for spec in specs[n]:
            with tr.span("scaling.scaling_matrix", **spec_attrs(spec)):
                scaling_matrix(spec)
    ops = islice(apply_ops(cfg["seed"], cfg["child"], pools, specs), TRACED_APPLY_OPS)
    def on_op(t0, t1, spec):
        tr.record("scaling.scale_signal", t0, t1, **spec_attrs(spec))

    run_ops(ops, scale_signal, checks, on_op=on_op)
    end = perf_counter_ns()

    metrics = grid_metrics(tr, start, end)
    # Warm call and bare mat-vec, interleaved on one matrix so that both see
    # the same cache state: their difference is the call overhead.
    for n in APPLY_N:
        spec = specs[n][0]
        matrix = scaling_matrix(spec)
        calls, matvecs = [], []
        for x, _ in pools[n] * 8:
            t0 = perf_counter_ns()
            scale_signal(x, spec)
            t1 = perf_counter_ns()
            matrix @ x
            t2 = perf_counter_ns()
            calls.append(t1 - t0)
            matvecs.append(t2 - t1)
        metrics[f"scaling.scale_signal_us.n{n}"] = stats.median(calls) / 1e3
        metrics[f"scaling.matvec_us.n{n}"] = stats.median(matvecs) / 1e3
    big = max(APPLY_N)
    metrics[f"scaling.matvec_gbps_computed.n{big}"] = (
        16 * big * big / (metrics[f"scaling.matvec_us.n{big}"] * 1e3)
    )
    return section(tr, start, end, metrics, {})


def m_traced(tr: tracing.Tracer, checks: Checks, cfg: dict) -> dict:
    """Cold eigendecompositions, then each new M as assembly plus application."""
    start = perf_counter_ns()
    for scheme in SCHEMES:
        build_grid(tr, M_STREAM_N, scheme)
    ops = m_ops(cfg["seed"], cfg["child"])

    def new_m(x, spec):
        t0 = perf_counter_ns()
        scaling_matrix(spec)
        t1 = perf_counter_ns()
        y = scale_signal(x, spec)
        t2 = perf_counter_ns()
        tr.record("scaling.scaling_matrix", t0, t1, **spec_attrs(spec))
        tr.record("scaling.scale_signal", t1, t2, **spec_attrs(spec))
        return y

    run_ops(ops, new_m, checks)
    end = perf_counter_ns()
    stages = {
        "dft": mean_at(tr, start, end, "dft.dft_matrix", STAGE_N),
        "operators": mean_at(tr, start, end, "operators.operator_set", STAGE_N),
        "eig": mean_at(tr, start, end, "linalg.generator_eig", STAGE_N),
        "assembly": mean_at(tr, start, end, "scaling.scaling_matrix", STAGE_N),
    }
    return section(tr, start, end, grid_metrics(tr, start, end), stages)


TRACED = {"sweep_cold": sweep_traced, "apply_stream": apply_traced, "m_stream": m_traced}
UNTRACED = {"sweep_cold": sweep_untraced, "apply_stream": apply_untraced, "m_stream": m_untraced}
GRIDS = {
    "sweep_cold": [(n, s) for n in SWEEP_N for s in SCHEMES],
    "apply_stream": [(n, s) for n in APPLY_N for s in SCHEMES],
    "m_stream": [(M_STREAM_N, s) for s in SCHEMES],
}


def residuals(grids, checks: Checks) -> list:
    """Unitarity, group law M_2 M_0.5 = I and U/D duality on each grid."""
    rows = []
    for n, scheme in grids:
        ops = operator_set(n, scheme)
        m2 = scaling_matrix(ScalingSpec(2.0, n, scheme))
        m_half = scaling_matrix(ScalingSpec(0.5, n, scheme))
        eye = np.eye(n)
        row = {
            "n": n, "scheme": scheme.value,
            "unitarity": float(np.abs(m2.conj().T @ m2 - eye).max()),
            "group_law": float(np.abs(m2 @ m_half - eye).max()),
            "duality": float(np.abs(ops.u - ops.f @ ops.d @ ops.f.conj().T).max()),
        }
        for key in ("unitarity", "group_law", "duality"):
            ok = row[key] <= stats.RESIDUAL_LIMIT
            checks.add(ok, "" if ok else f"N={n} {scheme.value}: {key} residual {row[key]:.3e}")
        rows.append(row)
    return rows


def zgemm_seconds(seed: int) -> float:
    rng = np.random.default_rng([seed, 3])
    a = complex_signal(rng, STAGE_N * STAGE_N).reshape(STAGE_N, STAGE_N)
    b = complex_signal(rng, STAGE_N * STAGE_N).reshape(STAGE_N, STAGE_N)
    np.matmul(a, b)
    times = []
    for _ in range(21):
        t0 = perf_counter_ns()
        np.matmul(a, b)
        times.append(perf_counter_ns() - t0)
    return stats.median(times) / 1e9


def traced(cfg: dict, checks: Checks) -> dict:
    """The workload's own section first, then the others for the layers it bypasses.

    A per-layer metric is taken from the first section that measures it, so
    the workload's own numbers win and every metric is reported.
    """
    tr = tracing.Tracer()
    own_name = cfg["workload"]
    own = TRACED[own_name](tr, checks, cfg)
    rows = residuals(GRIDS[own_name], checks)
    metrics, stages = dict(own["metrics"]), dict(own["stages"])
    for name, run_section in TRACED.items():
        if name != own_name:
            other = run_section(tr, checks, cfg)
            for key, value in other["metrics"].items():
                metrics.setdefault(key, value)
            for key, value in other["stages"].items():
                stages.setdefault(key, value)
    gemm_s = zgemm_seconds(cfg["seed"])
    metrics["linalg.zgemm_gflops"] = 8 * STAGE_N ** 3 / gemm_s / 1e9
    for metric, stage in (
        ("dft.gemm_equiv", "dft"), ("operators.gemm_equiv", "operators"),
        ("linalg.eig_gemm_equiv", "eig"), ("scaling.assembly_gemm_equiv", "assembly"),
        ("pei.basis_gemm_equiv", "pei_basis"),
    ):
        metrics[metric] = stages[stage] / gemm_s
    for key in ("unitarity", "group_law", "duality"):
        layer = "operators" if key == "duality" else "scaling"
        metrics[f"{layer}.{key}_residual"] = max(row[key] for row in rows)
    metrics["trace.coverage"] = own["coverage"]
    metrics["trace.overhead_frac"] = own["n_spans"] * tracing.span_cost_s() / own["wall_s"]
    return {
        "metrics": metrics, "residuals": rows,
        "notes": own.get("notes", []), "spans": tracing.export(tr.spans),
    }


def main(argv) -> int:
    cfg = json.loads(argv[1])
    src = (ROOT / "src").resolve()
    if src not in Path(opscale.__file__).resolve().parents:
        print(f"opscale was imported from {opscale.__file__}, not from {src}", file=sys.stderr)
        return 2
    checks = Checks()
    body = traced(cfg, checks) if cfg["trace"] else UNTRACED[cfg["workload"]](cfg, checks)
    body.update(checks.summary())
    body["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    body["numpy"] = np.__version__
    print(json.dumps(body))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
