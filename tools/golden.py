"""Compare the outputs of two checkouts, object by object, for "same numbers" claims.

    python3 tools/golden.py --parent PARENT_DIR [--change CHANGE_DIR] \\
        [--sizes 1-64,127-129] [--factors 0.37,2,7.3] [--threads 1]

For each checkout a fresh interpreter imports opscale from its ``src/``,
with ``--threads`` BLAS threads, and writes one sha256 per object:

* ``scaling_matrix`` for every factor, N and scheme;
* ``scaling._apply(x, spec, factored)`` on a complex and a real input, on
  the assembled path and, where the grid is certified for it, the
  factored one;
* every ``HermitianEigenDecomposition`` reachable from the grid's
  ``generator_eig``, depth first over dataclass fields and tuples (so
  that any layout of the blocks gives the same sequence): its
  eigenvalues, basis, ``eigenvectors`` and other array fields, and each
  scalar of its float, int and bool fields and of its ``residuals``
  mapping as an object of its own, ``N=…/<scheme>/block<i>/<name>``
  (so that a field that is removed is one missing object), and the
  decomposition's ``reversal_residual`` where it has one;
* ``dft_matrix(n, scheme)`` for every N and scheme;
* the CSV of the default ``run_bench`` sweep, and that of the command
  line's ``bench --methods operator,cddhf,interp`` (``sweep_csv``);
* the vectors and eigenvalues of ``cddhf_basis(n, m)`` at that sweep's N
  and M, and at M = 1, the analysis basis of every CDDHF cell.

The two sides record the numpy version, the BLAS numpy was built with
and the thread count, and are not compared if these differ.  Every
object whose hash differs, or that one side lacks, is printed with its
maximum relative difference, ``max|a - b| / max|a|``, read back from a
second run of both sides that saves just those objects and makes only
the sections (a grid, a CSV, the CDDHF bases) that hold one.  CHANGE_DIR
defaults to the checkout that holds this tool.  The exit status is 0
when every object matches, 1 when some differ and 2 when the
environments differ.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

CHILD = r'''
import contextlib, dataclasses, hashlib, io, json, os, sys
from pathlib import Path
import numpy as np
from opscale import bench, cli, linalg, scaling
from opscale.dft import dft_matrix
from opscale.operators import operator_set
from opscale.pei import cddhf_basis

config = json.loads(sys.argv[1])
dump = {key: i for i, key in enumerate(config["dump"])}
digests = {}


def numeric(text):
    """The cells of a CSV text that read as numbers."""
    cells = []
    for cell in text.replace("\n", ",").split(","):
        try:
            cells.append(float(cell))
        except ValueError:
            pass
    return np.array(cells)


def put(key, value):
    """Hash an array, or a CSV text; save it under its index when asked for."""
    data = value.encode() if isinstance(value, str) else np.ascontiguousarray(value).tobytes()
    digests[key] = hashlib.sha256(data).hexdigest()
    if key in dump:
        array = numeric(value) if isinstance(value, str) else np.asarray(value)
        np.save(Path(config["out"]) / f"{dump[key]}.npy", array)


def wanted(section):
    """Whether this run makes ``section``: every section, or those holding a saved object."""
    return not dump or any(key.startswith(section) for key in dump)


def blocks(obj):
    if isinstance(obj, linalg.HermitianEigenDecomposition):
        yield obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from blocks(getattr(obj, f.name))
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from blocks(item)


for n in config["sizes"]:
    for scheme in ("ordinary", "centered"):
        grid = f"N={n}/{scheme}"
        if not wanted(grid + "/"):
            continue
        put(f"{grid}/dft_matrix", dft_matrix(n, scheme))
        eig = operator_set(n, scheme).generator_eig
        if getattr(eig, "reversal_residual", None) is not None:
            put(f"{grid}/reversal_residual", np.float64(eig.reversal_residual))
        for i, block in enumerate(blocks(eig)):
            values = {f.name: getattr(block, f.name) for f in dataclasses.fields(block)}
            values.update(values.pop("residuals", {}))
            for name, value in values.items():
                if isinstance(value, (bool, int, float)):
                    put(f"{grid}/block{i}/{name}", np.float64(value))
                elif isinstance(value, (np.ndarray, tuple)):
                    put(f"{grid}/block{i}/{name}", np.asarray(value))
            put(f"{grid}/block{i}/eigenvectors", block.eigenvectors)
        rng = np.random.default_rng(n)
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for m in config["factors"]:
            spec = scaling.ScalingSpec(m, n, scheme)
            put(f"{grid}/M={m}/scaling_matrix", scaling.scaling_matrix(spec))
            paths = ("assembled", "factored") if eig.factored_certified else ("assembled",)
            for path in paths:
                for kind, x in (("complex", z), ("real", z.real.astype(complex))):
                    y = scaling._apply(x, spec, path == "factored")
                    put(f"{grid}/M={m}/apply_{path}/{kind}", y)
if wanted("bench_csv"):
    put("bench_csv", bench.emit_table(bench.run_bench()))
if wanted("sweep_csv"):
    sweep = io.StringIO()
    with contextlib.redirect_stdout(sweep):
        cli.main(["bench", "--methods", "operator,cddhf,interp"])
    put("sweep_csv", sweep.getvalue())
if wanted("cddhf/"):
    for n in bench.DEFAULT_N_VALUES:
        for m in (1.0, *bench.DEFAULT_M_FACTORS):
            basis = cddhf_basis(n, m)
            put(f"cddhf/N={n}/M={m}/vectors", basis.vectors)
            put(f"cddhf/N={n}/M={m}/eigenvalues", basis.eigenvalues)
blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
env = {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
       "threads": os.environ.get("OPENBLAS_NUM_THREADS")}
print(json.dumps({"environment": env, "digests": digests}))
'''


def run_side(checkout: Path, config: dict, threads: int) -> dict:
    """The environment and per-object digests of one checkout, from a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(threads)
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(config)],
                          env=env, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"{checkout}: the child failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def max_relative_difference(a: np.ndarray, b: np.ndarray) -> float:
    """``max|a - b| / max|a|``, or inf when the shapes differ."""
    if a.shape != b.shape:
        return float("inf")
    scale = float(np.abs(a).max(initial=0.0)) or 1.0
    return float(np.abs(a - b).max(initial=0.0)) / scale


def parse_sizes(text: str) -> list:
    """``"1-3,8"`` as ``[1, 2, 3, 8]``."""
    sizes = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        sizes.extend(range(int(low), int(high or low) + 1))
    return sizes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--sizes", type=parse_sizes, default=parse_sizes("1-16"))
    parser.add_argument("--factors", type=lambda t: [float(m) for m in t.split(",")],
                        default=[0.37, 2.0, 7.3])
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args(argv)
    config = {"sizes": args.sizes, "factors": args.factors, "dump": [], "out": ""}
    sides = {name: run_side(path, config, args.threads)
             for name, path in (("parent", args.parent), ("change", args.change))}
    envs = {name: side["environment"] for name, side in sides.items()}
    if envs["parent"] != envs["change"]:
        print(f"environments differ, not compared: {json.dumps(envs)}")
        return 2
    parent, change = sides["parent"]["digests"], sides["change"]["digests"]
    keys = sorted(set(parent) | set(change))
    differ = [k for k in keys if parent.get(k) != change.get(k)]
    print(f"environment: {json.dumps(envs['change'])}")
    print(f"objects: {len(keys)}, identical: {len(keys) - len(differ)}, "
          f"mismatches: {len(differ)}")
    if differ:
        with tempfile.TemporaryDirectory() as tmp:
            saved = {}
            for name, path in (("parent", args.parent), ("change", args.change)):
                out = Path(tmp) / name
                out.mkdir()
                run_side(path, dict(config, dump=differ, out=str(out)), args.threads)
                saved[name] = out
            for i, key in enumerate(differ):
                files = [saved[name] / f"{i}.npy" for name in ("parent", "change")]
                if not all(f.exists() for f in files):
                    side = "parent" if not files[0].exists() else "change"
                    print(f"MISMATCH {key}: missing in {side}")
                    continue
                a, b = (np.load(f) for f in files)
                print(f"MISMATCH {key}: max relative difference "
                      f"{max_relative_difference(a, b):.3e}")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
