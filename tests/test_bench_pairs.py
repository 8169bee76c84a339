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
    # Each side's src/ line count, split as tools/src_lines.py splits it.
    assert result["parent"]["src_lines"] == {"total": 10, "code": 3, "docstring": 3,
                                             "comment": 1, "blank": 3}
    assert result["change"]["src_lines"]["code"] == 4


def test_refuses_sides_without_a_common_run(tmp_path):
    parent = _checkout(tmp_path, "parent", SOURCE, [(1, 1.0, 1.0)])
    change = _checkout(tmp_path, "change", SOURCE, [(2, 1.0, 1.0)])
    with pytest.raises(SystemExit):
        bench_pairs.main(["--parent", str(parent), "--change", str(change),
                          "--out", str(tmp_path / "out.json")])


def _summary(before, after, claims=()):
    """``summarize`` of paired ``setup_s`` (lower is better) and ``ops_per_s`` runs.

    ``before`` and ``after`` list ``(setup_s, ops_per_s)`` per seed.
    """
    def runs(values):
        return {("apply_stream", seed): {
            "failed": 0, "mtime": 0.0,
            "metrics": {"setup_s": {"value": setup}, "ops_per_s": {"value": ops}}}
            for seed, (setup, ops) in enumerate(values)}

    summary = bench_pairs.summarize(runs(before), runs(after), END_TO_END, claims)
    return {name: row["verdict"] for name, row in summary["apply_stream"]["metrics"].items()}


PARENT = [(1.0 + 0.01 * i, 100.0 + i) for i in range(10)]  # quartiles 1.0225 and 1.0675


class TestVerdicts:
    def test_a_claim_met_wins_nine_pairs_in_ten_by_more_than_the_parents_spread(self):
        after = [(s - 0.2, o) for s, o in PARENT]
        assert _summary(PARENT, after, ["apply_stream:setup_s"])["setup_s"] == "met"
        # The same runs, unclaimed, are only not worse.
        assert _summary(PARENT, after)["setup_s"] == "ok"
        # Nine wins in ten still meet it.
        after[0] = (PARENT[0][0] + 0.05, PARENT[0][1])
        assert _summary(PARENT, after, ["apply_stream:setup_s"])["setup_s"] == "met"

    def test_a_claim_with_eight_wins_in_ten_is_not_met(self):
        after = [(s - 0.2, o) for s, o in PARENT]
        after[0] = after[1] = (5.0, 0.0)
        assert _summary(PARENT, after, ["apply_stream:setup_s"])["setup_s"] == "not met"

    def test_a_claim_inside_the_parents_spread_is_not_met(self):
        # Every pair won, but the medians differ by 0.01, below the IQR of 0.045.
        after = [(s - 0.01, o) for s, o in PARENT]
        assert _summary(PARENT, after, ["apply_stream:setup_s"])["setup_s"] == "not met"

    def test_a_median_worse_by_more_than_the_bound_is_worse(self):
        # ops_per_s is higher-better with a bound of 25 %: -30 % is worse,
        # -20 % is not, claimed or not.
        after = [(s, 0.7 * o) for s, o in PARENT]
        assert _summary(PARENT, after)["ops_per_s"] == "worse"
        assert _summary(PARENT, after, ["apply_stream:ops_per_s"])["ops_per_s"] == "worse"
        after = [(s, 0.8 * o) for s, o in PARENT]
        assert _summary(PARENT, after)["ops_per_s"] == "ok"
        assert _summary(PARENT, after, ["apply_stream:ops_per_s"])["ops_per_s"] == "not met"

    def test_a_parent_spread_beyond_the_bound_is_unresolved(self):
        # setup_s quartiles 1 and 2 around a median of 1.5: an IQR of 67 %
        # of the median, beyond the 25 % bound.
        before = [(1.0 + (i >= 5), 100.0) for i in range(10)]
        for after in (before, [(s + 5.0, o) for s, o in before], [(s - 0.5, o) for s, o in before]):
            assert _summary(before, after, ["apply_stream:setup_s"])["setup_s"] == "unresolved"
        # Unless every run of the change is better than every run of the
        # parent; the claim then also needs a median gap beyond the IQR.
        after = [(0.9, o) for _, o in before]
        assert _summary(before, after, ["apply_stream:setup_s"])["setup_s"] == "not met"
        after = [(0.4, o) for _, o in before]
        assert _summary(before, after, ["apply_stream:setup_s"])["setup_s"] == "met"
        assert _summary(before, after)["setup_s"] == "ok"

    def test_the_bench_file_lists_every_verdict(self, tmp_path):
        parent = _checkout(tmp_path, "parent", SOURCE,
                           [(i, s, o) for i, (s, o) in enumerate(PARENT)])
        change = _checkout(tmp_path, "change", SOURCE,
                           [(i, s - 0.2, 0.7 * o) for i, (s, o) in enumerate(PARENT)])
        out = tmp_path / "BENCH.json"
        bench_pairs.main(["--parent", str(parent), "--change", str(change), "--out", str(out),
                          "--claim", "apply_stream:setup_s"])
        result = json.loads(out.read_text())
        assert result["verdicts"] == {"apply_stream:setup_s": "met",
                                      "apply_stream:ops_per_s": "worse"}
        assert result["workloads"]["apply_stream"]["metrics"]["setup_s"]["verdict"] == "met"
