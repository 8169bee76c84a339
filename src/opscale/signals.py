"""Analytic test signals, their sampled vectors, and scaled references.

Two closed-form test functions cover the two interesting regimes:

* ``CHIRPED_PULSE``: ``f(u) = exp(-pi*u**2 - 1j*pi*u**2)``, a smooth,
  rapidly decaying complex pulse — nearly band-limited, so discrete
  scaling methods should do well on it.
* ``TRAPEZOID``: ``f(u) = 1.5*tri(u/2) - 0.5*tri(2u)`` with
  ``tri(u) = max(0, 1-|u|)``, real and compactly supported with corner
  discontinuities in the derivative — deliberately *not* band-limited,
  stressing every method's out-of-band behavior.

The scaled reference against which methods are benchmarked is the
analytically scaled function sampled on the same grid,

    ref[k] = M**-0.5 * f(u_k / M).

The amplitude factor ``M**-0.5`` is included because the discrete scaling
operation is unitary; omitting it would bury every comparison under a
constant amplitude mismatch.  It can be disabled (``amplitude_factor=False``)
for sensitivity analysis, mirroring the bench harness flag.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .dft import SampleGrid, as_scaling_factor

__all__ = ["TestFunction", "tri", "evaluate", "sample", "scaled_reference"]


class TestFunction(Enum):
    """Closed-form benchmark signals."""

    __test__ = False  # despite the name, not a test-collection target

    CHIRPED_PULSE = "chirp"
    TRAPEZOID = "trapezoid"


def tri(u):
    """Unit triangle ``max(0, 1 - |u|)`` (the rect-with-itself convolution)."""
    u = np.asarray(u, dtype=float)
    return np.maximum(0.0, 1.0 - np.abs(u))


def evaluate(fn: TestFunction, u):
    """Evaluate ``fn`` at coordinate(s) ``u``.

    Accepts a scalar or an array; returns a complex scalar or array to
    match.
    """
    fn = TestFunction(fn)
    arr = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("evaluation coordinates must be finite")
    if fn is TestFunction.CHIRPED_PULSE:
        # u^2 overflows from |u| ~ 1.3e154 on, where the chirp's limit is 0.
        with np.errstate(over="ignore", invalid="ignore"):
            u2 = arr ** 2
            out = np.where(np.isinf(u2), 0j, np.exp(-np.pi * u2 - 1j * np.pi * u2))
    else:
        out = (1.5 * tri(arr / 2.0) - 0.5 * tri(2.0 * arr)).astype(complex)
    return complex(out) if np.isscalar(u) or arr.ndim == 0 else out


def sample(fn: TestFunction, grid: SampleGrid) -> np.ndarray:
    """Sample ``fn`` at the grid's physical coordinates."""
    return evaluate(fn, grid.coordinates)


def scaled_reference(
    fn: TestFunction,
    grid: SampleGrid,
    m_factor: float,
    amplitude_factor: bool = True,
) -> np.ndarray:
    """Samples of the analytically scaled function on the same grid.

    ``ref[k] = M**-0.5 * fn(u_k / M)`` (the factor drops out when
    ``amplitude_factor`` is False).  With M = 1 this returns exactly the
    same values as :func:`sample`.  ``m_factor`` is checked by
    :func:`~opscale.dft.as_scaling_factor`.
    """
    m_factor = as_scaling_factor(m_factor)
    amplitude = m_factor ** -0.5 if amplitude_factor else 1.0
    return amplitude * evaluate(fn, grid.coordinates / m_factor)
