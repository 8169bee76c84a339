"""Self-tests of the benchmark's own rules.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import math
from pathlib import Path

import run
import stats
import tracing
import worker

HERE = Path(__file__).resolve().parent
REFERENCE = (HERE / "seed_sweep.csv").read_text()


def with_cell(text: str, row: int, value) -> str:
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[-1] = value if isinstance(value, str) else repr(value)
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def cell_key(row: int) -> tuple:
    return tuple(REFERENCE.splitlines()[row].split(",")[:5])


def test_percentile_needs_ten_samples_beyond_it():
    assert stats.percentile(range(1, 1000), 99) is None  # 9 samples beyond p99
    assert stats.percentile(range(1, 1001), 99) == (990, 10)
    assert stats.percentile(range(99), 90) is None
    assert stats.percentile(range(100), 90) == (89, 10)
    assert stats.percentile([], 50) is None


def test_seed_table_accepts_itself_and_rounding():
    assert stats.table_mismatches(REFERENCE, REFERENCE) == (108, {})
    value = float(REFERENCE.splitlines()[5].split(",")[-1])
    rounded = with_cell(REFERENCE, 5, value * (1 + 1e-10))
    assert stats.table_mismatches(rounded, REFERENCE) == (108, {})


def test_seed_table_rejects_a_perturbed_cell():
    value = float(REFERENCE.splitlines()[5].split(",")[-1])
    n_cells, bad = stats.table_mismatches(with_cell(REFERENCE, 5, value * (1 + 1e-8)), REFERENCE)
    assert n_cells == 108
    assert list(bad) == [cell_key(5)]


def test_seed_table_rejects_nan_missing_and_extra_cells():
    _, bad = stats.table_mismatches(with_cell(REFERENCE, 7, "nan"), REFERENCE)
    assert bad == {cell_key(7): "nan"}
    lines = REFERENCE.splitlines()
    _, bad = stats.table_mismatches("\n".join(lines[:9] + lines[10:]) + "\n", REFERENCE)
    assert bad == {cell_key(9): "missing"}
    extra = REFERENCE + "chirp,operator,5,128,centered,1.0\n"
    n_cells, bad = stats.table_mismatches(extra, REFERENCE)
    assert n_cells == 109 and list(bad) == [("chirp", "operator", "5", "128", "centered")]
    assert len(stats.table_mismatches("", REFERENCE)[1]) == 108


def test_failed_frac_counts_injected_failures():
    ops = worker.m_ops(1, 0)[:10]
    calls = iter(range(len(ops)))

    def flaky(x, spec):
        i = next(calls)
        if i == 3:
            raise ArithmeticError("injected")
        return 2 * x if i == 7 else x  # op 7 does not keep the norm

    checks = worker.Checks()
    latencies, _ = worker.run_ops(ops, flaky, checks)
    assert len(latencies) == 10  # the run went on after both failures
    assert (checks.attempted, checks.failed) == (10, 2)
    assert "injected" in checks.errors[0] and "norm" in checks.errors[1]

    child = {"setup_s": 1.0, "peak_rss_mb": 100.0, **checks.summary()}
    metrics = {"setup_s": 1.0, "ops_per_s": 1.0, "peak_rss_mb": 100.0}
    report = run.workload_report("m_stream", [child], [ns / 1e9 for ns in latencies], metrics)
    assert report["failed_frac"]["value"] == 0.2
    # 10 samples: neither p50 nor p90 has 10 beyond it
    assert report["new_m_p50_ms"]["value"] is None
    assert report["new_m_p90_ms"]["value"] is None
    assert report["new_m_per_s"]["samples"] == 10


def test_self_time_and_coverage():
    tr = tracing.Tracer()
    tr.record("a", 0, 100)
    tr.spans.append({"id": 1, "parent": 0, "name": "b", "attrs": {}, "start": 10, "end": 40})
    tr.record("c", 150, 200)
    own = tracing.self_times(tr.spans)
    assert math.isclose(own[0], 70e-9) and math.isclose(own[1], 30e-9)
    assert math.isclose(tracing.coverage(tr.spans, 200e-9), 0.75)


def test_span_cost_is_measured_and_small():
    cost = tracing.span_cost_s(1000)
    assert 0 <= cost < 1e-4


def test_benchmark_json_matches_run_py():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
