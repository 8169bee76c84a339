"""``tools/bench_pairs.py``: pairing parent and change benchmark results into a BENCH file."""

import importlib.util
import json
import os

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "bench_pairs.py")
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]

SOURCE = '''"""Module docstring,
two lines."""

# a comment
x = 1


def f():
    """One line."""
    return x
'''


def _checkout(root, name, source, runs):
    """A checkout with one source file and a result file per ``(seed, setup_s, ops_per_s)``."""
    base = root / name
    (base / "src" / "opscale").mkdir(parents=True)
    (base / "src" / "opscale" / "mod.py").write_text(source)
    (base / "BENCHMARK.json").write_text(json.dumps({"end_to_end": END_TO_END}))
    out = base / bench_pairs.RESULTS
    out.mkdir()
    for seed, setup, ops in runs:
        result = {
            "workload": "apply_stream", "failed": 0,
            "environment": {"seed": seed, "git_commit": "abc", "cpu_model": "cpu", "nproc": 2,
                            "blas_threads": 1, "python": "3.11", "numpy": "2.4"},
            "metrics": {"setup_s": {"value": setup, "unit": "s"},
                        "ops_per_s": {"value": ops, "unit": "1/s"}},
        }
        (out / f"apply_stream-seed{seed}-trace0.json").write_text(json.dumps(result))
    return base


def test_pairs_runs_by_seed_and_counts_wins(tmp_path):
    parent = _checkout(tmp_path, "parent", SOURCE,
                       [(1, 1.0, 100.0), (2, 2.0, 100.0), (3, 3.0, 100.0), (4, 4.0, 100.0)])
    change = _checkout(tmp_path, "change", SOURCE + "y = 2\n",
                       [(1, 0.5, 90.0), (2, 1.5, 110.0), (3, 3.0, 120.0), (5, 9.0, 1.0)])
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change),
                             "--out", str(out), "--claim", "apply_stream:setup_s"]) == 0
    result = json.loads(out.read_text())
    stream = result["workloads"]["apply_stream"]
    assert stream["seeds"] == [1, 2, 3] and stream["pairs"] == 3
    setup = stream["metrics"]["setup_s"]
    assert setup["parent"]["median"] == 2.0 and setup["change"]["median"] == 1.5
    assert setup["parent"]["iqr"] == pytest.approx(1.0)
    assert setup["change_better_in"] == 2 and setup["ties"] == 1
    assert stream["metrics"]["ops_per_s"]["change_better_in"] == 2
    assert result["claims"] == ["apply_stream:setup_s"]
    assert result["host"]["blas_threads"] == 1
    # The same commit on both sides, told apart by the hash of src/.
    assert result["parent"]["git_commit"] == result["change"]["git_commit"]
    assert result["parent"]["src_sha256"] != result["change"]["src_sha256"]


def test_line_counts_split_code_docstrings_comments_and_blanks(tmp_path):
    counts = bench_pairs.line_counts(_checkout(tmp_path, "side", SOURCE, []))
    assert counts == {"total": 10, "code": 3, "docstring": 3, "comment": 1, "blank": 3}


def test_refuses_sides_without_a_common_run(tmp_path):
    parent = _checkout(tmp_path, "parent", SOURCE, [(1, 1.0, 1.0)])
    change = _checkout(tmp_path, "change", SOURCE, [(2, 1.0, 1.0)])
    with pytest.raises(SystemExit):
        bench_pairs.main(["--parent", str(parent), "--change", str(change),
                          "--out", str(tmp_path / "out.json")])
