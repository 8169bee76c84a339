"""Shared oracles and reporting plumbing for the test suite.

The helpers here are deliberately *independent* implementations — plain
loops and scalar math, no numpy linear algebra — so that agreement with
the library is evidence rather than tautology.
"""

from __future__ import annotations

import cmath
import json
import math
import os

import numpy as np

FIXTURES_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


def package_env() -> dict:
    """Environment for a subprocess that must import the opscale under test.

    ``pythonpath = ["src"]`` in pyproject.toml reaches only the pytest
    process, so the directory of the package this session imported is put
    first on the child's ``PYTHONPATH``.
    """
    import opscale

    package_root = os.path.dirname(os.path.dirname(opscale.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    return env


def load_fixture(name: str) -> dict:
    with open(os.path.join(FIXTURES_DIR, name)) as fh:
        return json.load(fh)


def fixture_matrix(payload: dict) -> np.ndarray:
    return np.array(payload["re"]) + 1j * np.array(payload["im"])


# --------------------------------------------------------------- oracles --

def taylor_expm(a, terms: int = 30) -> np.ndarray:
    """Plain truncated Taylor series for exp(a); valid for modest ||a||."""
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    term = np.eye(n, dtype=complex)
    total = np.eye(n, dtype=complex)
    for k in range(1, terms + 1):
        term = term @ a / k
        total = total + term
    return total


def explicit_summation_dual(f, u_diag) -> np.ndarray:
    """D = F^-1 U F evaluated entry-wise with scalar sums (no matmul)."""
    f = np.asarray(f)
    u_diag = np.asarray(u_diag)
    n = f.shape[0]
    out = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            acc = 0j
            for k in range(n):
                acc += complex(f[k, i]).conjugate() * complex(u_diag[k]) * complex(f[k, j])
            out[i, j] = acc
    return out


def dirichlet_kernel_value(t: float, n_samples: int, mu: float) -> complex:
    """Closed-form periodic interpolation kernel for a unit-spaced index run.

    ``sum_{m in S} exp(2j*pi*m*t/N) / N`` for a set S of N consecutive
    unit-spaced labels with midpoint ``mu`` collapses to
    ``exp(2j*pi*mu*t/N) * sin(pi*t) / (N*sin(pi*t/N))``.  At the shared
    zeros t = k*N the sine ratio tends to ``N * (-1)**(k*(N-1))``.
    """
    if abs(t - round(t)) < 1e-12 and int(round(t)) % n_samples == 0:
        k = int(round(t)) // n_samples
        sign = -1.0 if (k * (n_samples - 1)) % 2 else 1.0
        return sign * cmath.exp(2j * cmath.pi * mu * t / n_samples)
    return (
        cmath.exp(2j * cmath.pi * mu * t / n_samples)
        * math.sin(math.pi * t)
        / (n_samples * math.sin(math.pi * t / n_samples))
    )


def count_sign_changes(v, rel_tol: float = 1e-8) -> int:
    """Number of strict sign alternations, ignoring negligible entries."""
    v = np.asarray(v, dtype=float)
    keep = np.abs(v) > rel_tol * np.abs(v).max()
    signs = np.sign(v[keep])
    return int(np.sum(signs[1:] != signs[:-1]))


# ------------------------------------------------- acceptance reporting --

ACCEPTANCE_RESULTS: list[tuple[int, str, bool, str]] = []


def record_criterion(number: int, label: str, passed: bool, detail: str = "") -> None:
    """Register one acceptance criterion outcome for the summary section."""
    ACCEPTANCE_RESULTS.append((number, label, passed, detail))
    status = "PASS" if passed else "FAIL"
    line = f"[ACCEPTANCE {number:2d}] {status} — {label}"
    if detail:
        line += f" ({detail})"
    print(line)


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, label, passed, detail in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        line = f"[{number:2d}] {status} — {label}"
        if detail:
            line += f": {detail}"
        terminalreporter.write_line(line)
