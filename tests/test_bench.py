"""Tests for the NMSE benchmark harness and the interpolation baseline."""

import math
import tracemalloc

import numpy as np
import pytest

from conftest import dirichlet_kernel_value

import opscale
from opscale import bench
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
    scale_with,
)
from opscale.dft import IndexScheme, index_grid
from opscale.signals import TestFunction, evaluate, sample, scaled_reference


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, -math.inf)])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            nmse_percent([1.0, bad], [1.0, 0.0])
        with pytest.raises(ValueError, match="non-finite"):
            nmse_percent([1.0, 0.0], [1.0, bad])


@pytest.mark.parametrize("scheme", list(IndexScheme))
@pytest.mark.parametrize("m", [0.5, 2.0, 3.0])
@pytest.mark.parametrize("name", ["gaussian", "chirp"])
def test_operator_nmse_falls_as_n_to_the_minus_two(name, m, scheme):
    # The order of the operator method's error against the continuous
    # scaling, with no published table: a second-order discretization
    # quarters the NMSE from N = 256 to 512 (log2 ratios 1.978-1.996
    # measured on these cells).
    f = {"gaussian": lambda u: np.exp(-np.pi * u * u),
         "chirp": lambda u: evaluate(TestFunction.CHIRPED_PULSE, u)}[name]
    nmse = []
    for n in (256, 512):
        grid = index_grid(n, scheme)
        scaled = scale_with(Method.OPERATOR, f(grid.coordinates), grid, m)
        nmse.append(nmse_percent(m ** -0.5 * f(grid.coordinates / m), scaled))
    assert math.log2(nmse[0] / nmse[1]) >= 1.9


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

    @pytest.mark.parametrize("n", [7, 16, 129])
    @pytest.mark.parametrize("scheme", list(IndexScheme))
    def test_columns_match_one_signal_calls_bit_for_bit(self, n, scheme):
        grid = index_grid(n, scheme)
        rng = np.random.default_rng(n)
        x = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
        out = interp_scale(x, grid, 2.0)
        assert out.shape == (n, 3)
        for j in range(3):
            assert out[:, j].tobytes() == interp_scale(x[:, j], grid, 2.0).tobytes()

    def test_columns_are_checked_like_signals(self):
        grid = index_grid(8, IndexScheme.CENTERED)
        x = np.ones((8, 2), dtype=complex)
        x[3, 1] = math.nan
        with pytest.raises(ValueError, match="non-finite"):
            interp_scale(x, grid, 2.0)
        with pytest.raises(ValueError, match="does not match"):
            interp_scale(np.ones((9, 2)), grid, 2.0)
        with pytest.raises(ValueError, match="one-dimensional"):
            interp_scale(np.ones((8, 2, 1)), grid, 2.0)

    def test_synthesis_matrix_is_built_in_place(self):
        # The complex N x N synthesis matrix alone (4 339 456 traced bytes
        # measured, 16.6 N^2); the float outer product it is made from
        # (8 N^2 more) would show.  F is cached by the first call.
        n = 512
        grid = index_grid(n, IndexScheme.ORDINARY)
        x = np.ones(n, dtype=complex)
        interp_scale(x, grid, 2.0)
        tracemalloc.start()
        try:
            interp_scale(x, grid, 2.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 18 * n * n


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

    def test_microscopic_m_leaves_no_silent_nan(self):
        # At M = 1e-300, u / M overflows u^2: the chirp's reference was NaN
        # there, and its cells NaN with no note.
        table = run_bench(methods=list(Method), n_values=[2, 3], m_factors=[1e-300])
        assert len(table.records) == 24
        for record in table.records:
            assert math.isnan(record.nmse_percent) == (record.note != "")
        chirp = [r for r in table.records if r.function is TestFunction.CHIRPED_PULSE]
        assert all(math.isfinite(r.nmse_percent) for r in chirp
                   if r.scheme is IndexScheme.ORDINARY)

    def test_one_synthesis_per_interp_group(self, monkeypatch):
        # The default sweep's 18 groups (M, N, scheme) of two functions each.
        built = []
        synthesis = bench._synthesis

        def counting(grid, m):
            built.append((m, grid.n_samples, grid.scheme))
            return synthesis(grid, m)

        monkeypatch.setattr(bench, "_synthesis", counting)
        table = run_bench(methods=[Method.INTERP])
        assert len(table.records) == 36
        assert len(built) == len(set(built)) == 18
        # Each record is its cell scored alone, bit for bit.
        for r in table.records:
            grid = index_grid(r.n_samples, r.scheme)
            out = interp_scale(sample(r.function, grid), grid, r.m_factor)
            reference = scaled_reference(r.function, grid, r.m_factor)
            assert r.nmse_percent == nmse_percent(reference, out)
            assert r.note == ""

    def test_a_failing_cell_keeps_its_own_note(self, monkeypatch):
        reference = bench.scaled_reference

        def failing(function, grid, m, amplitude_factor=True):
            if function is TestFunction.TRAPEZOID and grid.n_samples == 17:
                raise RuntimeError(f"no reference at N = {grid.n_samples}")
            return reference(function, grid, m, amplitude_factor)

        monkeypatch.setattr(bench, "scaled_reference", failing)
        table = run_bench(methods=list(Method), m_factors=[2.0], n_values=[16, 17])
        for r in table.records:
            failed = r.function is TestFunction.TRAPEZOID and r.n_samples == 17
            assert math.isnan(r.nmse_percent) == failed
            assert r.note == ("RuntimeError: no reference at N = 17" if failed else "")

    def test_a_failing_interp_call_is_each_cells_note(self, monkeypatch):
        def failing(signal, grid, m):
            raise ArithmeticError(f"no synthesis at N = {grid.n_samples}")

        monkeypatch.setattr(bench, "interp_scale", failing)
        table = run_bench(methods=list(Method), m_factors=[2.0], n_values=[16])
        for r in table.records:
            failed = r.method is Method.INTERP
            assert math.isnan(r.nmse_percent) == failed
            assert r.note == ("ArithmeticError: no synthesis at N = 16" if failed else "")

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"n_values": [16.7]}, "n_samples must be an integer"),
            ({"n_values": [16, 0]}, "n_samples must be >= 1"),
            ({"m_factors": [-1.0]}, "m_factor must be positive and finite"),
            ({"m_factors": [2.0, math.nan]}, "m_factor must be positive and finite"),
        ],
    )
    def test_invalid_lists_raise_before_any_cell_runs(self, monkeypatch, kwargs, message):
        sampled = []
        monkeypatch.setattr("opscale.bench.sample", lambda *args: sampled.append(args))
        with pytest.raises(ValueError, match=message):
            run_bench(**{"m_factors": [2.0], "n_values": [16], **kwargs})
        assert sampled == []

    @pytest.mark.parametrize("name", ["functions", "methods", "m_factors", "n_values", "schemes"])
    def test_empty_list_raises_before_any_cell_runs(self, monkeypatch, name):
        sampled = []
        monkeypatch.setattr("opscale.bench.sample", lambda *args: sampled.append(args))
        with pytest.raises(ValueError, match=f"{name} must not be empty"):
            run_bench(**{"m_factors": [2.0], "n_values": [16], name: []})
        assert sampled == []

    @pytest.mark.parametrize("name", ["functions", "methods", "schemes"])
    def test_none_selects_the_default(self, name):
        default = run_bench(m_factors=[2.0], n_values=[16])
        chosen = run_bench(m_factors=[2.0], n_values=[16], **{name: None})
        assert emit_table(chosen) == emit_table(default)
        assert len(default.records) == 4

    def test_numpy_integer_n_runs(self):
        table = run_bench(m_factors=[2.0], n_values=[np.int64(16)])
        assert [type(r.n_samples) for r in table.records] == [int] * 4
        assert {r.n_samples for r in table.records} == {16}
        assert all(math.isfinite(r.nmse_percent) for r in table.records)

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

    def test_earlier_scale_signal_calls_do_not_change_the_table(self):
        # scale_signal assembles a factor after K requests; the sweep must
        # not see that, whatever requests came before it.
        kwargs = dict(m_factors=[0.5, 2.0], n_values=[16, 17])
        before = emit_table(run_bench(**kwargs))
        x = np.ones(17, dtype=complex)
        for m in kwargs["m_factors"]:
            for n in kwargs["n_values"]:
                for scheme in IndexScheme:
                    for _ in range(n + 1):  # past K, a quarter of the largest block
                        opscale.scale_signal(x[:n], opscale.ScalingSpec(m, n, scheme))
        assert emit_table(run_bench(**kwargs)) == before


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
