"""Tests for the NMSE benchmark harness and the interpolation baseline."""

import math

import numpy as np
import pytest

from conftest import dirichlet_kernel_value

import opscale
from opscale.bench import (
    DEFAULT_M_FACTORS,
    DEFAULT_N_VALUES,
    BenchTable,
    Method,
    MseRecord,
    emit_table,
    interp_scale,
    nmse_percent,
    run_bench,
)
from opscale.dft import IndexScheme, index_grid
from opscale.signals import TestFunction


class TestNmse:
    def test_hand_computed_values(self):
        assert nmse_percent([1.0, 0.0], [0.0, 0.0]) == pytest.approx(100.0)
        assert nmse_percent([2.0], [1.0]) == pytest.approx(25.0)
        assert nmse_percent([1j, 1.0], [1j, 1.0]) == 0.0

    def test_rejects_zero_reference(self):
        with pytest.raises(ValueError):
            nmse_percent([0.0, 0.0], [1.0, 0.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            nmse_percent([1.0, 2.0], [1.0])


class TestInterpScale:
    @pytest.mark.parametrize("scheme", list(IndexScheme))
    def test_m_one_is_identity(self, scheme):
        grid = index_grid(16, scheme)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        out = interp_scale(x, grid, 1.0)
        assert np.max(np.abs(out - x)) < 1e-12

    @pytest.mark.parametrize("n", [10, 16])
    @pytest.mark.parametrize("scheme", list(IndexScheme))
    @pytest.mark.parametrize("m", [0.5, 2.0])
    def test_matches_dirichlet_kernel_oracle(self, n, scheme, m):
        # Independent oracle: the band-limited periodic interpolant is a
        # sum of shifted Dirichlet kernels, evaluated here entirely in
        # scalar math from the closed form.
        grid = index_grid(n, scheme)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        labels = grid.indices
        mu = (labels[0] + labels[-1]) / 2.0
        amp = m ** -0.5
        expected = np.array(
            [
                amp
                * sum(
                    complex(x[j]) * dirichlet_kernel_value(labels[k] / m - labels[j], n, mu)
                    for j in range(n)
                )
                for k in range(n)
            ]
        )
        got = interp_scale(x, grid, m)
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_amplitude_factor_flag(self):
        grid = index_grid(8, IndexScheme.CENTERED)
        x = np.ones(8)
        with_factor = interp_scale(x, grid, 4.0)
        without = interp_scale(x, grid, 4.0, amplitude_factor=False)
        assert np.max(np.abs(with_factor * 2.0 - without)) < 1e-13

    def test_rejects_bad_m(self):
        grid = index_grid(8, IndexScheme.ORDINARY)
        with pytest.raises(ValueError):
            interp_scale(np.ones(8), grid, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, -math.inf, complex(math.inf, 0)])
    def test_rejects_non_finite_samples(self, bad):
        grid = index_grid(8, IndexScheme.CENTERED)
        x = np.ones(8, dtype=complex)
        x[5] = bad
        with pytest.raises(ValueError, match="non-finite"):
            interp_scale(x, grid, 2.0)

    def test_rejects_wrong_length(self):
        grid = index_grid(8, IndexScheme.ORDINARY)
        with pytest.raises(ValueError):
            interp_scale(np.ones(9), grid, 2.0)


class TestRunBench:
    def test_default_grid_shape(self):
        assert DEFAULT_M_FACTORS == (0.5, 2.0, 3.0)
        assert DEFAULT_N_VALUES == (128, 256, 512)

    def test_sweep_structure_and_canonical_order(self):
        table = run_bench(
            functions=[TestFunction.TRAPEZOID, TestFunction.CHIRPED_PULSE],
            methods=[Method.INTERP, Method.OPERATOR],
            m_factors=[3.0, 2.0, 2],  # duplicates collapse
            n_values=[32, 16],
            schemes=[IndexScheme.ORDINARY, IndexScheme.CENTERED],
        )
        assert len(table.records) == 2 * 2 * 2 * 2 * 2
        keys = [
            (r.function.value, r.method.value, r.m_factor, r.n_samples, r.scheme.value)
            for r in table.records
        ]
        assert keys == sorted(keys)
        assert all(math.isfinite(r.nmse_percent) for r in table.records)
        assert all(r.note == "" for r in table.records)

    def test_failed_cells_become_nan_records(self):
        # A microscopic M pushes both analytic references to identically
        # zero on a centered grid (no sample sits at u = 0), which the
        # NMSE denominator must reject; the sweep is expected to keep
        # going and mark those cells.
        table = run_bench(
            m_factors=[0.001], n_values=[16], schemes=[IndexScheme.CENTERED]
        )
        assert len(table.records) == 2
        for record in table.records:
            assert math.isnan(record.nmse_percent)
            assert "zero norm" in record.note

    def test_metadata_describes_the_sweep(self):
        table = run_bench(m_factors=[2.0], n_values=[16], methods=[Method.CDDHF])
        assert table.metadata["methods"] == ["cddhf"]
        assert table.metadata["m_factors"] == [2.0]
        assert table.metadata["n_values"] == [16]
        assert table.metadata["amplitude_factor"] is True
        assert table.metadata["version"] == opscale.__version__

    def test_amplitude_factor_propagates(self):
        with_factor = run_bench(m_factors=[2.0], n_values=[16]).records
        without = run_bench(m_factors=[2.0], n_values=[16], amplitude_factor=False).records
        pairs = zip(with_factor, without)
        assert any(a.nmse_percent != b.nmse_percent for a, b in pairs)

    def test_repeat_sweeps_serialize_identically(self):
        kwargs = dict(m_factors=[0.5, 2.0], n_values=[16, 32], methods=list(Method))
        first = emit_table(run_bench(**kwargs))
        second = emit_table(run_bench(**kwargs))
        assert first == second


class TestEmitTable:
    @staticmethod
    def _one_record_table():
        record = MseRecord(
            TestFunction.CHIRPED_PULSE, Method.OPERATOR, 2.0, 16, IndexScheme.CENTERED, 12.5
        )
        return BenchTable([record], {})

    def test_csv_exact_bytes(self):
        out = emit_table(self._one_record_table(), "csv")
        assert out == (
            "function,method,m,n,scheme,nmse_percent\n"
            "chirp,operator,2,16,centered,12.5\n"
        )

    def test_csv_uses_17_significant_digits(self):
        record = MseRecord(
            TestFunction.TRAPEZOID, Method.INTERP, 1 / 3.0, 8, IndexScheme.ORDINARY, math.pi
        )
        out = emit_table(BenchTable([record], {}), "csv")
        row = out.splitlines()[1].split(",")
        assert row[2] == format(1 / 3.0, ".17g")
        assert row[5] == format(math.pi, ".17g")

    def test_markdown_shape(self):
        out = emit_table(self._one_record_table(), "markdown")
        lines = out.splitlines()
        assert len(lines) == 3
        assert all(line.startswith("|") and line.endswith("|") for line in lines)
        assert "nmse_percent" in lines[0]
        assert set(lines[1].replace("|", "").strip()) <= {"-", " "}

    def test_unknown_format_is_rejected(self):
        with pytest.raises(ValueError):
            emit_table(self._one_record_table(), "json")

    def test_record_is_frozen(self):
        record = self._one_record_table().records[0]
        with pytest.raises(AttributeError):
            record.nmse_percent = 0.0
