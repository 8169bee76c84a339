"""Pair the benchmark results of a parent and a change checkout into one BENCH file.

    python3 tools/bench_pairs.py --parent PARENT_DIR --change CHANGE_DIR \\
        --out BENCH_11.json [--claim apply_stream:setup_s] [--note TEXT]

Each directory is a checkout in which ``perfbench/run.py`` has been run
(``--trace 0``) for the same workloads and seeds; its results are in
``.perfbench_out/<workload>-seed<n>-trace0.json``.  Runs of the two sides
are paired by workload and seed.  For every end-to-end metric that
``BENCHMARK.json`` names, the output gives each side's median and
quartiles, the change's median relative to the parent's, and in how many
pairs the change was better (ties count for neither side), and a verdict:

* ``met``: a claimed metric on which the change won at least nine tenths
  of the pairs, and whose medians differ, in the better direction, by
  more than the parent's interquartile range;
* ``not met``: a claimed metric that falls short of that;
* ``worse``: a metric whose change median is worse than the parent's by
  more than its ``BENCHMARK.json`` bound, relative to the parent's;
* ``unresolved``: the parent's own interquartile range exceeds the bound,
  relative to its median, so the runs spread too widely to tell, unless
  every run of the change is better than every run of the parent;
* ``ok``: any other metric.

Traced runs (``-trace1.json``) of a seed that both sides ran are listed
side by side.

A result file records the checked-out commit, which an uncommitted change
shares with its parent, so each side is also identified by a hash of its
``src/`` tree, and described by its ``src/`` line count: ``wc -l`` of
``src/opscale/*.py`` and an AST split into code, docstring, comment and
blank lines (``tools/src_lines.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from src_lines import line_counts  # noqa: E402  (tools/ is not a package)

RESULTS = ".perfbench_out"


def src_hash(checkout: Path) -> str:
    """sha256 over the relative paths and bytes of every file under ``src/``."""
    digest = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(checkout)).encode() + b"\0")
            digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def load_runs(checkout: Path, trace: int) -> dict:
    """``{(workload, seed): result}`` of one side's result files."""
    runs = {}
    for path in sorted((checkout / RESULTS).glob(f"*-trace{trace}.json")):
        result = json.loads(path.read_text())
        result["mtime"] = path.stat().st_mtime
        runs[(result["workload"], result["environment"]["seed"])] = result
    return runs


def quartiles(values: list) -> list:
    """``[q1, median, q3]`` (inclusive method; a single value repeats)."""
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def verdict(row: dict, bound: float, claimed: bool) -> str:
    """The verdict of one summarized metric (module docstring)."""
    before, after = row["parent"], row["change"]
    sign = 1 if row["better"] == "lower" else -1
    scale = abs(before["median"])
    if sign > 0:
        every_run_better = max(after["runs"]) < min(before["runs"])
    else:
        every_run_better = min(after["runs"]) > max(before["runs"])
    if before["iqr"] > bound * scale and not every_run_better:
        return "unresolved"
    worse_by = sign * (after["median"] - before["median"])  # > 0 when the change is worse
    if claimed and 10 * row["change_better_in"] >= 9 * len(before["runs"]) \
            and -worse_by > before["iqr"]:
        return "met"
    if worse_by > bound * scale:
        return "worse"
    return "not met" if claimed else "ok"


def summarize(parent: dict, change: dict, metrics: list, claims=()) -> dict:
    """Per workload and end-to-end metric: medians, quartiles, pair wins and verdict."""
    out = {}
    for workload in sorted({w for w, _ in parent}):
        seeds = sorted(s for w, s in parent if w == workload and (w, s) in change)
        if not seeds:
            continue
        pairs = [(parent[workload, s], change[workload, s]) for s in seeds]
        rows = {}
        for metric in metrics:
            name, lower = metric["name"], metric["better"] == "lower"
            before = [p["metrics"][name]["value"] for p, _ in pairs]
            after = [c["metrics"][name]["value"] for _, c in pairs]
            q_before, q_after = quartiles(before), quartiles(after)
            wins = sum((a < b) if lower else (a > b) for b, a in zip(before, after))
            rows[name] = {
                "unit": metric["unit"], "better": metric["better"],
                "parent": {"median": q_before[1], "q1": q_before[0], "q3": q_before[2],
                           "iqr": q_before[2] - q_before[0], "runs": before},
                "change": {"median": q_after[1], "q1": q_after[0], "q3": q_after[2],
                           "runs": after},
                "relative_change": q_after[1] / q_before[1] - 1 if q_before[1] else None,
                "change_better_in": wins,
                "ties": sum(a == b for b, a in zip(before, after)),
            }
            rows[name]["verdict"] = verdict(rows[name], metric["bound"],
                                            f"{workload}:{name}" in claims)
        out[workload] = {
            "seeds": seeds, "pairs": len(seeds),
            "change_ran_first": sum(c["mtime"] < p["mtime"] for p, c in pairs),
            "failed": {"parent": sum(p["failed"] for p, _ in pairs),
                       "change": sum(c["failed"] for _, c in pairs)},
            "metrics": rows,
        }
    return out


def traced(parent: dict, change: dict) -> dict:
    """Per-layer metrics of the traced runs both sides made, side by side."""
    out = {}
    for key in sorted(parent.keys() & change.keys()):
        names = parent[key]["metrics"].keys() & change[key]["metrics"].keys()
        out[f"{key[0]}-seed{key[1]}"] = {
            name: {"unit": parent[key]["metrics"][name]["unit"],
                   "parent": parent[key]["metrics"][name]["value"],
                   "change": change[key]["metrics"][name]["value"]}
            for name in sorted(names)
        }
    return out


def side(checkout: Path, runs: dict) -> dict:
    env = next(iter(runs.values()))["environment"] if runs else {}
    return {
        "git_commit": env.get("git_commit"),
        "src_sha256": src_hash(checkout),
        "src_lines": line_counts(checkout),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--claim", action="append", default=[],
                        help="WORKLOAD:METRIC claimed to improve (repeatable)")
    parser.add_argument("--note", default="")
    args = parser.parse_args(argv)

    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    parent, change = load_runs(args.parent, 0), load_runs(args.change, 0)
    if not parent.keys() & change.keys():
        parser.error("no workload and seed was run on both sides")
    env = next(iter(change.values()))["environment"]
    result = {
        "note": args.note,
        "claims": args.claim,
        "host": {"cpu_model": env["cpu_model"], "nproc": env["nproc"],
                 "blas_threads": env["blas_threads"], "python": env["python"],
                 "numpy": env["numpy"]},
        "parent": side(args.parent, parent),
        "change": side(args.change, change),
        "workloads": summarize(parent, change, benchmark["end_to_end"], args.claim),
        "traced": traced(load_runs(args.parent, 1), load_runs(args.change, 1)),
    }
    result["verdicts"] = {f"{workload}:{name}": row["verdict"]
                          for workload, summary in result["workloads"].items()
                          for name, row in summary["metrics"].items()}
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
