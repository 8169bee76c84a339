"""Run-to-run spread and set-to-set gap of the end-to-end metrics.

    python3 perfbench/steady.py --workload apply_stream [--seeds 10] [--sets 2]

Runs ``run.py`` with tracing off, ``run_seconds`` from BENCHMARK.json and
seeds 1..N, one run after another; with ``--sets 2`` it runs the same
seeds again straight after.  For each set and end-to-end metric it prints
the median of the values and their interquartile distance as a share of
that median (the spread).  For each later set it prints how much worse
its median is than the first set's, as a share of the first (the gap).
Both are compared with the metric's ``bound``: a spread above a third of
the bound, or a gap above the bound, is marked ``OVER``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent


def run_set(workload: str, seeds: int, seconds: int) -> dict:
    values = {}
    for seed in range(1, seeds + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} ops failed")
        line = []
        for name, item in result["metrics"].items():
            values.setdefault(name, []).append(item["value"])
            line.append(f"{name} {item['value']:.6g}")
        print(f"seed {seed}: " + ", ".join(line), flush=True)
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    sets = []
    for k in range(1, args.sets + 1):
        print(f"# set {k}")
        sets.append(run_set(args.workload, args.seeds, bench["run_seconds"]))

    first = {name: stats.median(vals) for name, vals in sets[0].items()}
    for k, values in enumerate(sets, start=1):
        print(f"# set {k}: {args.workload}, seeds 1..{args.seeds}")
        for name, vals in values.items():
            bound = metrics[name]["bound"]
            mid = stats.median(vals)
            spread = stats.relative_spread(vals) if len(vals) >= 2 else float("nan")
            line = (f"{name:20s} median {mid:12.6g}  spread {spread:.4f}"
                    f"{' OVER' if spread > bound / 3 else ''}")
            if k > 1:
                sign = 1 if metrics[name]["better"] == "lower" else -1
                gap = sign * (mid - first[name]) / first[name]
                line += f"  gap {gap:+.4f}{' OVER' if gap > bound else ''}"
            print(f"{line}  bound {bound}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
