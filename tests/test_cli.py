"""Tests for the opscale command-line interface.

Most invocations go through ``main(argv)`` in-process (fast, shares the
library's memoized matrices); a couple of subprocess tests at the bottom
cover the real entry points.
"""

import importlib
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from conftest import count_sign_changes, package_env

from opscale.cli import main
from opscale.dft import IndexScheme, dft_matrix, index_grid
from opscale.scaling import ScalingSpec, scale_signal
from opscale.signals import TestFunction, sample

PYPROJECT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "pyproject.toml"
)


def _fmt(x):
    return format(float(x), ".17g")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_matrix_text(text):
    """Parse a matrix file -> (meta dict, row labels, complex matrix entries)."""
    meta, rows = {}, []
    for line in text.splitlines():
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if "," in body:
                key, value = body.split(",", 1)
                meta[key] = value
        elif line and not line.startswith("row_index"):
            rows.append([float(p) for p in line.split(",")])
    n = int(meta["n"])
    assert len(rows) == n * n
    labels = [rows[j][1] for j in range(n)]
    matrix = np.array([r[2] + 1j * r[3] for r in rows]).reshape(n, n)
    return meta, labels, matrix


def parse_signal_text(text):
    indices, values = [], []
    for line in text.splitlines():
        if line.startswith("#") or line == "index,re,im" or not line:
            continue
        idx, re_part, im_part = (float(p) for p in line.split(","))
        indices.append(idx)
        values.append(complex(re_part, im_part))
    return np.array(indices), np.array(values)


def write_signal_file(path, indices, values, scheme=None, n=None):
    lines = ["# opscale-signal"]
    if n is not None:
        lines.append(f"# n,{n}")
    if scheme is not None:
        lines.append(f"# scheme,{scheme}")
    lines.append("index,re,im")
    for idx, z in zip(indices, values):
        z = complex(z)
        lines.append(f"{_fmt(idx)},{_fmt(z.real)},{_fmt(z.imag)}")
    path.write_text("\n".join(lines) + "\n")


class TestGen:
    def test_u_at_n4_zero_entry_counts(self, capsys):
        # Centered: all 12 off-diagonal entries are zero, the diagonal is
        # not (half-integer labels never hit sin's zero).  Ordinary: the
        # label n=0 puts a 13th exact zero on the diagonal.
        code, out, _ = run_cli(capsys, "gen", "--kind", "u", "--n", "4", "--scheme", "ordinary")
        assert code == 0
        meta, labels, matrix = parse_matrix_text(out)
        assert meta["kind"] == "u" and meta["scheme"] == "ordinary"
        assert labels == [-2.0, -1.0, 0.0, 1.0]
        assert int(np.count_nonzero(matrix == 0)) == 13
        code, out, _ = run_cli(capsys, "gen", "--kind", "u", "--n", "4", "--scheme", "centered")
        assert code == 0
        _, _, matrix = parse_matrix_text(out)
        assert int(np.count_nonzero(matrix == 0)) == 12

    def test_scaling_at_m1_is_identity(self, capsys):
        code, out, _ = run_cli(
            capsys, "gen", "--kind", "scaling", "--n", "8", "--m", "1", "--scheme", "centered"
        )
        assert code == 0
        meta, _, matrix = parse_matrix_text(out)
        assert meta["m"] == "1"
        assert np.max(np.abs(matrix - np.eye(8))) < 1e-12

    def test_dft_round_trips_the_library_matrix_exactly(self, capsys):
        # 17 significant digits round-trip IEEE doubles, so the parsed
        # file must equal the in-memory matrix bit for bit.
        code, out, _ = run_cli(capsys, "gen", "--kind", "dft", "--n", "4", "--scheme", "ordinary")
        assert code == 0
        _, _, matrix = parse_matrix_text(out)
        assert np.array_equal(matrix, dft_matrix(4, IndexScheme.ORDINARY))

    def test_pei_kinds_use_zero_based_labels(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--kind", "u2_pei", "--n", "4")
        assert code == 0
        _, labels, matrix = parse_matrix_text(out)
        assert labels == [0.0, 1.0, 2.0, 3.0]
        assert np.array_equal(np.diag(matrix).real, np.array([2.25, 0.25, 0.25, 2.25]))

    def test_writes_file_with_unix_newlines(self, capsys, tmp_path):
        target = tmp_path / "dft.csv"
        code, out, _ = run_cli(
            capsys, "gen", "--kind", "dft", "--n", "3", "--out", str(target)
        )
        assert code == 0 and out == ""
        raw = target.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_m_required_iff_scaling(self, capsys):
        code, _, err = run_cli(capsys, "gen", "--kind", "scaling", "--n", "4")
        assert code == 2 and "--m is required" in err
        code, _, err = run_cli(capsys, "gen", "--kind", "u", "--n", "4", "--m", "2")
        assert code == 2 and "only meaningful" in err

    def test_rejects_bad_n(self, capsys):
        code, _, err = run_cli(capsys, "gen", "--kind", "u", "--n", "0")
        assert code == 2 and "error" in err


class TestScale:
    def _chirp_file(self, tmp_path, n=16, scheme="centered"):
        grid = index_grid(n, IndexScheme(scheme))
        vec = sample(TestFunction.CHIRPED_PULSE, grid)
        path = tmp_path / "chirp.csv"
        write_signal_file(path, grid.indices, vec, scheme=scheme, n=n)
        return path, grid, vec

    @pytest.mark.parametrize("method", ["operator", "cddhf"])
    def test_m_one_returns_the_input(self, capsys, tmp_path, method):
        path, _, vec = self._chirp_file(tmp_path)
        code, out, _ = run_cli(
            capsys, "scale", "--in", str(path), "--m", "1", "--method", method
        )
        assert code == 0
        _, values = parse_signal_text(out)
        assert np.max(np.abs(values - vec)) < 1e-9

    def test_operator_scaling_matches_library_exactly(self, capsys, tmp_path):
        path, grid, vec = self._chirp_file(tmp_path, n=128, scheme="centered")
        code, out, _ = run_cli(capsys, "scale", "--in", str(path), "--m", "2")
        assert code == 0
        indices, values = parse_signal_text(out)
        expected = scale_signal(vec, ScalingSpec(2.0, 128, IndexScheme.CENTERED))
        assert np.array_equal(indices, grid.indices)
        assert np.array_equal(values, expected)

    def test_scheme_defaults_to_header_then_centered(self, capsys, tmp_path):
        n = 8
        # header wins when no flag is given
        grid = index_grid(n, IndexScheme.ORDINARY)
        path = tmp_path / "sig.csv"
        write_signal_file(path, grid.indices, np.ones(n), scheme="ordinary")
        code, out, _ = run_cli(capsys, "scale", "--in", str(path), "--m", "2")
        assert code == 0
        indices, _ = parse_signal_text(out)
        assert np.array_equal(indices, grid.indices)
        # no header, no flag: centered is assumed
        centered = index_grid(n, IndexScheme.CENTERED)
        bare = tmp_path / "bare.csv"
        write_signal_file(bare, centered.indices, np.ones(n))
        code, out, _ = run_cli(capsys, "scale", "--in", str(bare), "--m", "2")
        assert code == 0
        indices, _ = parse_signal_text(out)
        assert np.array_equal(indices, centered.indices)

    def test_flag_conflicting_with_header_is_an_error(self, capsys, tmp_path):
        path, _, _ = self._chirp_file(tmp_path, scheme="centered")
        code, _, err = run_cli(
            capsys, "scale", "--in", str(path), "--m", "2", "--scheme", "ordinary"
        )
        assert code == 2 and "conflicts" in err

    def test_grid_mismatch_reports_first_offending_row(self, capsys, tmp_path):
        path = tmp_path / "bad_grid.csv"
        write_signal_file(path, [0, 1, 2, 3], np.ones(4), scheme="centered")
        code, _, err = run_cli(capsys, "scale", "--in", str(path), "--m", "2")
        assert code == 2
        assert "does not match" in err and "row 1" in err

    def test_bad_header_exits_2_and_writes_nothing(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("idx;re;im\n0,1,0\n")
        target = tmp_path / "out.csv"
        code, _, err = run_cli(
            capsys, "scale", "--in", str(path), "--m", "2", "--out", str(target)
        )
        assert code == 2
        assert "expected header" in err
        assert not target.exists()

    def test_malformed_row_reports_line_number(self, capsys, tmp_path):
        path = tmp_path / "short_row.csv"
        path.write_text("index,re,im\n-0.5,1,0\n0.5,1\n")
        code, _, err = run_cli(capsys, "scale", "--in", str(path), "--m", "2")
        assert code == 2 and f"{path}:3:" in err

    def test_non_numeric_value_reports_line_number(self, capsys, tmp_path):
        path = tmp_path / "nan_row.csv"
        path.write_text("index,re,im\n-0.5,one,0\n")
        code, _, err = run_cli(capsys, "scale", "--in", str(path), "--m", "2")
        assert code == 2 and f"{path}:2:" in err

    @pytest.mark.parametrize("row", ["nan,1,0", "-0.5,nan,0", "-0.5,1,inf", "-0.5,-inf,0"])
    def test_non_finite_value_is_usage_error(self, capsys, tmp_path, row):
        # float() parses "nan" and "inf"; the sample must still be refused.
        path = tmp_path / "non_finite.csv"
        path.write_text(f"index,re,im\n{row}\n0.5,1,0\n")
        target = tmp_path / "out.csv"
        code, _, err = run_cli(
            capsys, "scale", "--in", str(path), "--m", "2", "--out", str(target)
        )
        assert code == 2 and f"{path}:2: non-finite value" in err
        assert not target.exists()

    def test_declared_n_mismatch_is_an_error(self, capsys, tmp_path):
        path = tmp_path / "wrong_n.csv"
        write_signal_file(path, [-0.5, 0.5], np.ones(2), scheme="centered", n=3)
        code, _, err = run_cli(capsys, "scale", "--in", str(path), "--m", "2")
        assert code == 2 and "declares n=3" in err

    def test_missing_input_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "scale", "--in", str(tmp_path / "nope.csv"), "--m", "2")
        assert code == 2 and "cannot read" in err

    def test_rejects_nonpositive_m(self, capsys, tmp_path):
        path, _, _ = self._chirp_file(tmp_path)
        code, _, err = run_cli(capsys, "scale", "--in", str(path), "--m", "-2")
        assert code == 2 and "--m must be positive" in err


class TestBench:
    def test_chirp_table_has_18_rows(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--function", "chirp")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "function,method,m,n,scheme,nmse_percent"
        assert len(lines) == 1 + 18
        assert all(line.startswith("chirp,operator,") for line in lines[1:])

    def test_full_sweep_has_108_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--function", "all", "--methods", "operator,cddhf,interp"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1 + 108
        values = [float(line.split(",")[-1]) for line in lines[1:]]
        assert all(np.isfinite(values))

    def test_markdown_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--function", "chirp", "--format", "markdown"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2 + 18
        assert all(line.startswith("|") and line.endswith("|") for line in lines)

    def test_no_amplitude_factor_changes_the_numbers(self, capsys):
        _, with_factor, _ = run_cli(capsys, "bench", "--function", "chirp")
        _, without, _ = run_cli(
            capsys, "bench", "--function", "chirp", "--no-amplitude-factor"
        )
        assert with_factor != without

    def test_repeat_runs_are_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(capsys, "bench", "--function", "chirp", "--out", str(a))[0] == 0
        assert run_cli(capsys, "bench", "--function", "chirp", "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_failed_cells_are_reported_on_stderr(self, capsys, monkeypatch, tmp_path):
        def broken(signal, m_factor):
            raise ArithmeticError(f"no basis for M={m_factor:g}")

        clean, noted = tmp_path / "clean.csv", tmp_path / "noted.csv"
        args = ("bench", "--function", "chirp", "--methods", "operator,cddhf")
        assert run_cli(capsys, *args, "--out", str(clean)) == (0, "", "")
        monkeypatch.setattr("opscale.bench.pei_scale", broken)
        code, _, err = run_cli(capsys, *args, "--out", str(noted))
        assert code == 0
        lines = err.splitlines()
        assert len(lines) == 18
        assert lines[0] == "chirp,cddhf,0.5,128,centered: ArithmeticError: no basis for M=0.5"
        assert all(line.startswith("chirp,cddhf,") for line in lines)
        # The table is unchanged apart from the failed cells, which read nan.
        for before, after in zip(clean.read_text().splitlines(), noted.read_text().splitlines()):
            if ",cddhf," in before:
                assert after == before.rsplit(",", 1)[0] + ",nan"
            else:
                assert after == before

    def test_unknown_method_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "bench", "--methods", "operator,turbo")
        assert code == 2 and "unknown method" in err

    def test_empty_methods_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "bench", "--methods", ",")
        assert code == 2 and "at least one" in err


class TestBasis:
    def test_columns_are_orthonormal(self, capsys):
        code, out, _ = run_cli(capsys, "basis", "--n", "8", "--m", "1")
        assert code == 0
        rows = [
            [float(p) for p in line.split(",")[1:]]
            for line in out.splitlines()
            if line and not line.startswith(("#", "row_index"))
        ]
        vectors = np.array(rows)
        assert vectors.shape == (8, 8)
        gram = vectors.T @ vectors
        assert np.max(np.abs(gram - np.eye(8))) < 1e-9

    def test_eigenvalue_header_is_ascending(self, capsys):
        code, out, _ = run_cli(capsys, "basis", "--n", "8", "--m", "2")
        assert code == 0
        header = next(l for l in out.splitlines() if l.startswith("# eigenvalues,"))
        eigenvalues = [float(p) for p in header.split(",")[1:]]
        assert len(eigenvalues) == 8
        assert eigenvalues == sorted(eigenvalues)

    def test_low_order_columns_have_order_many_sign_changes(self, capsys):
        # The full "column p has p sign changes for every p" claim breaks
        # at the top of the spectrum (see the acceptance suite); the
        # orders below that behave classically.
        code, out, _ = run_cli(capsys, "basis", "--n", "8", "--m", "1")
        assert code == 0
        rows = [
            [float(p) for p in line.split(",")[1:]]
            for line in out.splitlines()
            if line and not line.startswith(("#", "row_index"))
        ]
        vectors = np.array(rows)
        for p in range(6):
            assert count_sign_changes(vectors[:, p]) == p

    def test_n1_single_unit_vector(self, capsys):
        code, out, _ = run_cli(capsys, "basis", "--n", "1", "--m", "2")
        assert code == 0
        data = [l for l in out.splitlines() if l and not l.startswith(("#", "row_index"))]
        assert data == ["0,1"]

    def test_overflowing_m_is_a_computational_failure(self, capsys):
        code, _, err = run_cli(capsys, "basis", "--n", "4", "--m", "1e80")
        assert code == 1 and "computation failed" in err


class TestEntryPoints:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        import opscale
        assert opscale.__version__ in capsys.readouterr().out

    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_python_dash_m_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "opscale", "gen", "--kind", "u", "--n", "4"],
            capture_output=True, text=True, timeout=120, env=package_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("# opscale-matrix")

    def test_console_script_entry_point(self):
        # Checks the declared ``[project.scripts]`` entry from a checkout:
        # the target must import, and running it the way the installer's
        # generated wrapper does must answer ``--version``.
        tomllib = pytest.importorskip("tomllib")
        with open(PYPROJECT, "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert "opscale" in scripts
        module_name, _, attr = scripts["opscale"].partition(":")
        assert callable(getattr(importlib.import_module(module_name), attr))

        # Run the code from the package this process imported.
        wrapper = f"import sys; from {module_name} import {attr}; sys.exit({attr}())"
        proc = subprocess.run(
            [sys.executable, "-c", wrapper, "--version"],
            capture_output=True, text=True, timeout=120, env=package_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert "opscale" in proc.stdout

    @pytest.mark.skipif(
        shutil.which("opscale") is None, reason="opscale is not installed on PATH"
    )
    def test_installed_console_script(self):
        proc = subprocess.run(
            ["opscale", "--version"], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0
        assert "opscale" in proc.stdout
