"""``tools/golden.py``: per-object hashes of two checkouts, and the mismatches between them."""

import importlib.util
import math
import os
import re
import shutil
from pathlib import Path

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "golden.py")
spec = importlib.util.spec_from_file_location("golden", TOOL)
golden = importlib.util.module_from_spec(spec)
spec.loader.exec_module(golden)


def _checkout(root: Path, name: str) -> Path:
    """A copy of the ``src/`` tree under test, as a checkout of its own."""
    import opscale

    package = Path(opscale.__file__).resolve().parent
    shutil.copytree(package, root / name / "src" / "opscale",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return root / name


def _perturb(checkout: Path, module: str, line: str) -> None:
    """Scale the value of ``line``, found once in ``module``, by 1 + 1e-12."""
    path = checkout / "src" / "opscale" / module
    text = path.read_text()
    assert text.count(line) == 1
    path.write_text(text.replace(line, line + " * (1 + 1e-12)"))


def _mismatches(out: str) -> dict:
    return {key: float(diff) for key, diff in
            re.findall(r"MISMATCH (\S+): max relative difference (\S+)", out)}


def test_identical_trees_match_and_a_perturbed_function_is_reported(tmp_path, capsys):
    parent, same, perturbed, interp = (_checkout(tmp_path, name) for name in "abcd")
    _perturb(perturbed, "operators.py",
             "return (np.sqrt(big_n) / np.pi) * np.sin(np.pi * n / big_n)")
    _perturb(interp, "bench.py", "out[rows, j] = m_factor ** -0.5 * (synth @ c)")
    args = ["--parent", str(parent), "--sizes", "4,5"]

    assert golden.main(args + ["--change", str(same)]) == 0
    out = capsys.readouterr().out
    assert re.search(r"objects: (\d+), identical: \1, mismatches: 0", out)
    assert "MISMATCH" not in out

    assert golden.main(args + ["--change", str(perturbed)]) == 1
    diffs = _mismatches(capsys.readouterr().out)
    # U moves by 1e-12 relative: every operator and decomposition moves with it.
    for n in (4, 5):
        for scheme in ("ordinary", "centered"):
            assert f"N={n}/{scheme}/M=2.0/scaling_matrix" in diffs
            assert f"N={n}/{scheme}/block0/eigenvalues" in diffs
            # Each scalar of the certificate is an object of its own.
            assert f"N={n}/{scheme}/block0/reconstruction_residual" in diffs
            assert f"N={n}/{scheme}/block0/basis" in diffs
    assert {"bench_csv", "sweep_csv", "N=4/centered/block0/rotation"} <= set(diffs)
    assert all(0 < diff < math.inf for diff in diffs.values())
    # Every eigenvector has a fixed sign, so the bases, the rotation
    # tables and V move by about 1e-12 with the operators instead of
    # flipping.  The certificate's residuals and bounds measure rounding,
    # which moves by its own size.
    values = {key: diff for key, diff in diffs.items() if not key.endswith(("_residual", "_bound"))}
    assert all(diff < 1e-9 for diff in values.values())

    # Only the interpolation baseline's cells move, and only the sweep
    # that runs it sees them.
    assert golden.main(args + ["--change", str(interp)]) == 1
    diffs = _mismatches(capsys.readouterr().out)
    assert set(diffs) == {"sweep_csv"}
    assert 0 < diffs["sweep_csv"] < math.inf


def test_refuses_to_compare_across_environments(monkeypatch, capsys):
    monkeypatch.setattr(golden, "run_side", lambda checkout, config, threads: {
        "environment": {"threads": str(checkout)}, "digests": {}})
    assert golden.main(["--parent", "1", "--change", "2"]) == 2
    assert "environments differ" in capsys.readouterr().out
