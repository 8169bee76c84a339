"""Tests for the analytic benchmark signals."""

import cmath

import numpy as np
import pytest

from opscale.dft import IndexScheme, index_grid
from opscale.signals import TestFunction, evaluate, sample, scaled_reference, tri


class TestTri:
    def test_hand_computed_values(self):
        assert tri(0.0) == 1.0
        assert tri(0.5) == 0.5
        assert tri(1.0) == 0.0
        assert tri(-0.25) == 0.75
        assert tri(7.0) == 0.0

    def test_vectorized(self):
        out = tri(np.array([-2.0, 0.0, 0.5]))
        assert out.tolist() == [0.0, 1.0, 0.5]


class TestEvaluate:
    def test_chirp_matches_scalar_formula(self):
        for u in (0.0, 0.3, -1.2, 2.5):
            expected = cmath.exp(-cmath.pi * u**2 - 1j * cmath.pi * u**2)
            assert evaluate(TestFunction.CHIRPED_PULSE, u) == pytest.approx(expected)

    def test_chirp_magnitude_is_gaussian(self):
        u = np.linspace(-2, 2, 41)
        out = evaluate(TestFunction.CHIRPED_PULSE, u)
        assert np.max(np.abs(np.abs(out) - np.exp(-np.pi * u**2))) < 1e-15

    def test_trapezoid_hand_computed_values(self):
        f = TestFunction.TRAPEZOID
        assert evaluate(f, 0.0) == pytest.approx(1.0)
        assert evaluate(f, 0.5) == pytest.approx(1.125)
        assert evaluate(f, -0.5) == pytest.approx(1.125)
        assert evaluate(f, 1.0) == pytest.approx(0.75)
        assert evaluate(f, 1.75) == pytest.approx(0.1875)
        assert evaluate(f, 2.0) == 0.0
        assert evaluate(f, -3.0) == 0.0

    def test_trapezoid_is_real_but_complex_typed(self):
        out = evaluate(TestFunction.TRAPEZOID, np.linspace(-3, 3, 13))
        assert np.iscomplexobj(out)
        assert np.max(np.abs(out.imag)) == 0.0

    def test_scalar_in_scalar_out(self):
        out = evaluate(TestFunction.CHIRPED_PULSE, 0.5)
        assert isinstance(out, complex)

    def test_array_in_array_out(self):
        out = evaluate(TestFunction.TRAPEZOID, np.zeros(4))
        assert isinstance(out, np.ndarray) and out.shape == (4,)

    def test_accepts_enum_value_string(self):
        assert evaluate("chirp", 0.0) == evaluate(TestFunction.CHIRPED_PULSE, 0.0)

    def test_rejects_non_finite_coordinates(self):
        with pytest.raises(ValueError):
            evaluate(TestFunction.CHIRPED_PULSE, np.inf)

    def test_chirp_is_zero_where_u_squared_overflows(self):
        # |u| from about 1.3e154 on: u^2 is infinite, and the chirp's limit is 0.
        u = np.array([1.3e154, -1e200, 1.7e308, 1e154, 0.5])
        with np.errstate(all="raise"):
            out = evaluate(TestFunction.CHIRPED_PULSE, u)
            assert evaluate(TestFunction.CHIRPED_PULSE, -1e160) == 0
        assert out[:3].tolist() == [0, 0, 0]
        # Every finite u^2 keeps the bits of the closed form.
        finite = u[3:]
        with np.errstate(over="ignore"):  # pi u^2 overflows at u = 1e154
            expected = np.exp(-np.pi * finite ** 2 - 1j * np.pi * finite ** 2)
        assert out[3:].tobytes() == expected.tobytes()

    def test_chirp_reference_is_finite_at_a_microscopic_m(self):
        grid = index_grid(3, IndexScheme.ORDINARY)
        ref = scaled_reference(TestFunction.CHIRPED_PULSE, grid, 1e-300)
        assert ref.tolist() == [0, 1e150, 0]


class TestSampleAndReference:
    def test_sample_evaluates_at_grid_coordinates(self):
        grid = index_grid(16, IndexScheme.CENTERED)
        got = sample(TestFunction.CHIRPED_PULSE, grid)
        expected = evaluate(TestFunction.CHIRPED_PULSE, grid.coordinates)
        assert np.array_equal(got, expected)

    def test_reference_at_m_one_is_exactly_the_sample(self):
        grid = index_grid(32, IndexScheme.ORDINARY)
        for fn in TestFunction:
            ref = scaled_reference(fn, grid, 1.0)
            assert np.array_equal(ref, sample(fn, grid))

    def test_reference_formula(self):
        grid = index_grid(8, IndexScheme.CENTERED)
        m = 2.0
        ref = scaled_reference(TestFunction.TRAPEZOID, grid, m)
        expected = m**-0.5 * evaluate(TestFunction.TRAPEZOID, grid.coordinates / m)
        assert np.array_equal(ref, expected)

    def test_amplitude_factor_can_be_disabled(self):
        grid = index_grid(8, IndexScheme.CENTERED)
        with_factor = scaled_reference(TestFunction.CHIRPED_PULSE, grid, 4.0)
        without = scaled_reference(TestFunction.CHIRPED_PULSE, grid, 4.0, amplitude_factor=False)
        assert np.max(np.abs(without * 0.5 - with_factor)) < 1e-15

    def test_rejects_nonpositive_m(self):
        grid = index_grid(8, IndexScheme.ORDINARY)
        with pytest.raises(ValueError):
            scaled_reference(TestFunction.CHIRPED_PULSE, grid, 0.0)
        with pytest.raises(ValueError):
            scaled_reference(TestFunction.CHIRPED_PULSE, grid, -2.0)

    @pytest.mark.parametrize("m", [0.5, 2.0, 3.0])
    @pytest.mark.parametrize("fn", list(TestFunction))
    def test_reference_energy_approaches_sample_energy(self, m, fn):
        # Continuous scaling with the amplitude factor is unitary, so on a
        # fine enough grid the sampled reference carries the same energy
        # as the sampled original to within a percent.
        grid = index_grid(512, IndexScheme.CENTERED)
        e_sample = np.linalg.norm(sample(fn, grid)) ** 2
        e_ref = np.linalg.norm(scaled_reference(fn, grid, m)) ** 2
        assert abs(e_ref - e_sample) / e_sample < 0.01
