"""One-shot generator for the frozen oracle fixtures in this directory.

Each fixture is produced by an algorithm independent of the library code
path it later validates, then committed as JSON so the test suite needs
neither the extra dependencies (sympy, mpmath) nor the generation time.

    python tests/fixtures/generate_fixtures.py

Fixtures
--------
generator_6_7_ordinary.json
    The scaling generators of N = 6 and N = 7 on the ordinary scheme, as
    ``operator_set`` forms them, with their eigenvalues computed *without*
    any floating-point eigensolver: the characteristic polynomial is
    formed in exact rational arithmetic (sympy, entries taken as the exact
    binary rationals of the stored doubles) and its roots are extracted
    with 60-digit mpmath arithmetic.  Validates ``generator_eig`` against
    LAPACK-independent truth, on one whole real-form block (N = 6) and on
    the two paired blocks of a symmetric grid (N = 7).

diff4_ordinary.json
    The 4-point ordinary-scheme differentiation matrix evaluated by
    explicit entry-wise summation, D[m,n] = sum_k conj(F[k,m]) u_k F[k,n],
    with F built scalar-by-scalar from cmath — no numpy linear algebra.

delta64_m2_ordinary.json
    The discrete scaling (M=2, N=64, ordinary) of a Kronecker delta at
    index label 0, computed by a scaling-and-squaring Taylor expansion of
    the matrix exponential — an algorithm sharing nothing with the
    spectral route used by the library.
"""

from __future__ import annotations

import cmath
import json
import math
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))


def _dump(name: str, payload: dict) -> None:
    path = os.path.join(HERE, name)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")


def gen_generator_6_7_ordinary() -> None:
    import mpmath
    import sympy

    from opscale.dft import IndexScheme
    from opscale.operators import operator_set

    mpmath.mp.dps = 60
    payload = {"comment": "G of N=6 and N=7 ordinary; eigenvalues from exact charpoly "
                          "+ 60-digit roots"}
    for n in (6, 7):
        g = np.asarray(operator_set(n, IndexScheme.ORDINARY).generator)
        entries = sympy.Matrix(n, n, lambda i, j: sympy.Rational(g[i, j].real)
                               + sympy.I * sympy.Rational(g[i, j].imag))
        coeffs = [sympy.expand(c) for c in entries.charpoly().all_coeffs()]
        assert all(sympy.im(c) == 0 for c in coeffs), "charpoly of a Hermitian matrix must be real"
        mp_coeffs = [mpmath.mpf(sympy.Rational(c).p) / sympy.Rational(c).q for c in coeffs]
        roots = mpmath.polyroots(mp_coeffs, maxsteps=200, extraprec=200)
        assert all(abs(mpmath.im(r)) < mpmath.mpf("1e-40") for r in roots)
        payload[str(n)] = {
            "re": g.real.tolist(),
            "im": g.imag.tolist(),
            "eigenvalues": sorted(float(mpmath.re(r)) for r in roots),
        }
    _dump("generator_6_7_ordinary.json", payload)


def gen_diff4_ordinary() -> None:
    n_samples = 4
    labels = [-2.0, -1.0, 0.0, 1.0]  # ordinary scheme, N = 4
    root_scale = math.sqrt(n_samples)

    def f_entry(m: float, n: float) -> complex:
        return cmath.exp(-2j * cmath.pi * m * n / n_samples) / root_scale

    def u_entry(n: float) -> float:
        return (root_scale / math.pi) * math.sin(math.pi * n / n_samples)

    d = [[0j] * n_samples for _ in range(n_samples)]
    for i, m in enumerate(labels):
        for j, n in enumerate(labels):
            total = 0j
            for k, label_k in enumerate(labels):
                total += f_entry(label_k, m).conjugate() * u_entry(label_k) * f_entry(label_k, n)
            d[i][j] = total

    _dump(
        "diff4_ordinary.json",
        {
            "comment": "D = F^-1 U F at N=4, ordinary scheme, by explicit scalar summation",
            "labels": labels,
            "re": [[z.real for z in row] for row in d],
            "im": [[z.imag for z in row] for row in d],
        },
    )


def gen_delta64_m2_ordinary() -> None:
    from opscale.dft import IndexScheme
    from opscale.operators import operator_set

    ops = operator_set(64, IndexScheme.ORDINARY)
    theta = 2.0 * math.pi * math.log(2.0)
    a = -1j * theta * np.asarray(ops.generator)

    norm1 = float(abs(a).sum(axis=0).max())
    squarings = max(0, math.ceil(math.log2(norm1 / 0.25))) if norm1 > 0.25 else 0
    b = a / (2.0 ** squarings)
    term = np.eye(64, dtype=complex)
    total = np.eye(64, dtype=complex)
    for k in range(1, 41):
        term = term @ b / k
        total = total + term
    for _ in range(squarings):
        total = total @ total

    delta = np.zeros(64, dtype=complex)
    delta[32] = 1.0  # index label 0 sits at position N/2 on the ordinary grid
    out = total @ delta

    _dump(
        "delta64_m2_ordinary.json",
        {
            "comment": "exp(-2j*pi*ln2*G) @ delta(label 0), N=64 ordinary, "
                       "scaling-and-squaring Taylor (40 terms)",
            "squarings": squarings,
            "norm1": norm1,
            "re": out.real.tolist(),
            "im": out.imag.tolist(),
        },
    )


if __name__ == "__main__":
    gen_generator_6_7_ordinary()
    gen_diff4_ordinary()
    gen_delta64_m2_ordinary()
