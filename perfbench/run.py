"""opscale benchmark runner.

    python3 perfbench/run.py --workload sweep_cold|apply_stream|m_stream \\
        --seed N --seconds S --trace 0|1

Starts each run of the workload as its own interpreter (``worker.py``),
one after another, with the BLAS thread count fixed before numpy loads.
With ``--trace 0`` it reports the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a traced run.  It prints a report and, as its
last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The full result, with the environment, goes to
``.perfbench_out/`` in the checkout.  This process itself never imports
numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("sweep_cold", "apply_stream", "m_stream")

#: BLAS runs single-threaded.  Some CDDHF cells of the pinned seed table move
#: by ~1e-6 relative with the thread count, and one thread gives the same
#: table on any core count.  On 2 cores it also halved the run-to-run spread.
BLAS_THREADS = 1

#: Interpreters per run: enough for a median of the set-up time.
MIN_CHILDREN = 3
MAX_CHILDREN = 40
APPLY_CHILDREN = 3

#: The whole run must end well inside three minutes.
TIME_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "dft.dft_matrix_s": "s",
    "operators.operator_set_s": "s",
    "operators.builds": "count",
    "linalg.generator_eig_s": "s",
    "scaling.scaling_matrix_s": "s",
    "scaling.scale_signal_us.n128": "us",
    "scaling.scale_signal_us.n1024": "us",
    "scaling.matvec_us.n128": "us",
    "scaling.matvec_us.n1024": "us",
    "scaling.matvec_gbps_computed.n1024": "GB/s",
    "scaling.cache_bytes_computed": "B",
    "pei.cddhf_basis_s": "s",
    "pei.pei_scale_us": "us",
    "bench.interp_scale_s": "s",
    "bench.harness_s": "s",
    "signals.sample_s": "s",
    "cli.overhead_s": "s",
    "linalg.zgemm_gflops": "GFLOP/s",
    "dft.gemm_equiv": "ratio",
    "operators.gemm_equiv": "ratio",
    "linalg.eig_gemm_equiv": "ratio",
    "scaling.assembly_gemm_equiv": "ratio",
    "pei.basis_gemm_equiv": "ratio",
    "scaling.unitarity_residual": "abs",
    "scaling.group_law_residual": "abs",
    "operators.duality_residual": "abs",
    "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio",
}


class BenchError(Exception):
    """The run cannot produce a result; nothing is printed on stdout."""


def environment(seed: int, numpy_version: str) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": git_commit(),
        "seed": seed,
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def git_commit():
    """The checked-out commit, read from ``.git`` without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Runner:
    """Starts workers one at a time and keeps the whole run inside the time limit."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.scratch = OUT_DIR / "scratch"
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        threads = str(BLAS_THREADS)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = threads

    def spawn(self, child: int, trace: bool, **extra) -> dict:
        cfg = {
            "workload": self.workload, "seed": self.seed, "child": child,
            "trace": trace, "scratch": str(self.scratch), **extra,
        }
        t_spawn = time.monotonic()
        timeout = self.deadline - t_spawn
        if timeout <= 0:
            raise BenchError("time limit reached before the run was complete")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
                cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker {child} did not finish within the time limit") from exc
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise BenchError(f"worker {child} exited with code {proc.returncode}")
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError) as exc:
            raise BenchError(f"worker {child} printed no result") from exc
        if "t_first_op" in result:
            result["setup_s"] = result["t_first_op"] - t_spawn
        return result


def run_untraced(runner: Runner, seconds: int):
    """Fresh interpreters until ``seconds`` of op loops are measured (at least three)."""
    children = []
    measured = 0.0
    while len(children) < MAX_CHILDREN:
        extra = {"slice_s": seconds / APPLY_CHILDREN} if runner.workload == "apply_stream" else {}
        child = runner.spawn(len(children), False, **extra)
        children.append(child)
        measured += child["measured_s"]
        if len(children) >= MIN_CHILDREN and measured >= seconds:
            break
    # Throughput pools the ops of the whole run; set-up time and peak memory,
    # one value per interpreter, are medians over interpreters.
    latencies_s = [ns / 1e9 for c in children for ns in c["latencies_ns"]]
    metrics = {
        "setup_s": stats.median(c["setup_s"] for c in children),
        "ops_per_s": len(latencies_s) / sum(latencies_s),
        "peak_rss_mb": stats.median(c["peak_rss_mb"] for c in children),
    }
    return children, metrics, workload_report(runner.workload, children, latencies_s, metrics)


def workload_report(workload: str, children, latencies_s, metrics) -> dict:
    """The workload's metrics under workload-specific names, with sample counts.

    Latencies and throughput pool the ops of all interpreters; set-up time
    and peak memory are the medians over interpreters.
    """
    def entry(value, unit, **more):
        return {"value": value, "unit": unit, **more}

    n = len(latencies_s)
    report = {"setup_s": entry(metrics["setup_s"], "s", samples=len(children))}
    if workload == "sweep_cold":
        report["sweep_s"] = entry(stats.median(latencies_s), "s", samples=n)
    else:
        scale, unit, prefix = (
            (1e6, "us", "apply") if workload == "apply_stream" else (1e3, "ms", "new_m")
        )
        for q in (50, 99 if workload == "apply_stream" else 90):
            supported = stats.percentile(latencies_s, q)
            report[f"{prefix}_p{q}_{unit}"] = (
                entry(supported[0] * scale, unit, samples=n, beyond=supported[1]) if supported
                else entry(None, unit, samples=n, beyond=0,
                           note=f"not reported: fewer than {stats.MIN_BEYOND} samples beyond")
            )
        report[f"{prefix}_per_s"] = entry(n / sum(latencies_s), "1/s", samples=n)
    report["peak_rss_mb"] = entry(metrics["peak_rss_mb"], "MiB", samples=len(children))
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    report["failed_frac"] = entry(stats.failed_frac(attempted, failed), "ratio",
                                  samples=attempted)
    return report


def run_traced(runner: Runner):
    """One traced interpreter."""
    traced = runner.spawn(0, True)
    metrics = traced.pop("metrics")
    missing = PER_LAYER.keys() - metrics.keys()
    if missing:
        raise BenchError(f"traced run did not measure {sorted(missing)}")
    return [traced], {k: metrics[k] for k in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "opscale" / "__init__.py").is_file():
        print(f"run.py: no opscale sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            children, metrics = run_traced(runner)
            units, report = PER_LAYER, {}
        else:
            children, metrics, report = run_untraced(runner, args.seconds)
            units = END_TO_END
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    env = environment(args.seed, children[0]["numpy"])
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = [c.pop("spans") for c in children if "spans" in c]
    for child in children:
        child.pop("latencies_ns", None)
    full = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "report": report, "children": children,
    }
    (OUT_DIR / f"{name}.json").write_text(json.dumps(full, indent=1))
    if spans:
        (OUT_DIR / f"{name}.spans.json").write_text(json.dumps(spans[0]))

    print(f"# opscale benchmark: {args.workload}, seed {args.seed}, trace {args.trace}")
    print("# " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for key, item in (report or full["metrics"]).items():
        extra = "".join(f", {k} {v}" for k, v in item.items() if k not in ("value", "unit"))
        print(f"{key:36s} {item['value']!r:>24} {item['unit']}{extra}")
    for child in children:
        for error in child["errors"]:
            print(f"failed: {error}")
    print(f"# result file: {OUT_DIR.name}/{name}.json")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": full["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
