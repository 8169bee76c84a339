"""Shared oracles and reporting plumbing for the test suite.

The oracles here are deliberately *independent* implementations — plain
loops and scalar math, or LAPACK's complex Hermitian solve, which the
library does not call — so that agreement with the library is evidence
rather than tautology.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import sys

import numpy as np
import pytest

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


def forked_exit_code(child, timeout: float = 30) -> int:
    """Fork, run ``child()`` in the child and exit 0 if it returns True; the child's exit code.

    A child still running after ``timeout`` seconds is killed and the
    test fails: what it waited on would never have come.
    """
    import time

    pid = os.fork()
    if pid == 0:  # the child leaves through os._exit, whatever happens
        code = 3
        try:
            code = 0 if child() else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        time.sleep(0.01)
    os.kill(pid, 9)
    os.waitpid(pid, 0)
    pytest.fail(f"the forked child did not finish in {timeout} s")


@pytest.fixture
def identity_residual_calls(monkeypatch) -> list:
    """Shapes of the products any opscale module hands to ``identity_residual``."""
    from opscale.linalg import identity_residual

    calls = []

    def counting(p):
        calls.append(p.shape)
        return identity_residual(p)

    for name, module in list(sys.modules.items()):
        if name.startswith("opscale.") and hasattr(module, "identity_residual"):
            monkeypatch.setattr(module, "identity_residual", counting)
    return calls


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


def eigh_unitary(a, theta: float) -> np.ndarray:
    """``exp(-i theta A)`` of a Hermitian A, as ``V diag(exp(-i theta lam)) V^H``.

    ``(lam, V)`` is :func:`numpy.linalg.eigh` of A itself, LAPACK's complex
    solve; the library decomposes only real forms ``Z^H A Z``.
    """
    lam, v = np.linalg.eigh(np.asarray(a))
    return (v * np.exp(-1j * theta * lam)) @ v.conj().T


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


def parity_basis(n: int) -> np.ndarray:
    """Columns: the reversal-even basis vectors, then the reversal-odd ones.

    Written out entry by entry: ``(e_j + e_{n-1-j})/sqrt(2)`` for
    ``j < n//2``, then the middle unit vector when n is odd, then
    ``(e_j - e_{n-1-j})/sqrt(2)``.
    """
    h, k = n // 2, n - n // 2
    b = np.zeros((n, n))
    for j in range(h):
        b[j, j] = b[n - 1 - j, j] = 1 / math.sqrt(2)
        b[j, k + j], b[n - 1 - j, k + j] = 1 / math.sqrt(2), -1 / math.sqrt(2)
    if n % 2:
        b[h, h] = 1.0
    return b


def pair_residual(b: np.ndarray, eig) -> float:
    """``max|B Q - Q Omega|`` of a paired block decomposition of ``A = i B``.

    Omega is the rotation form the decomposition stands for, written out
    column by column: ``B q_j = -t_j mu_j q_{k-1-j}`` and ``B q_{k-1-j} =
    t_j mu_j q_j`` with ``mu_j = (lam_j - lam_{k-1-j})/2``, ``j < k//2``,
    and ``B q = 0`` for the middle column of an odd k; the signs ``t_j``
    are read from the block's ``rotation``.
    """
    q, lam = eig.basis, eig.eigenvalues
    k = q.shape[0]
    t = eig.rotation[1][:k // 2]
    expected = np.zeros((k, k))
    for j in range(len(t)):
        rate = t[j] * (lam[j] - lam[k - 1 - j]) / 2
        expected[:, j] = -rate * q[:, k - 1 - j]
        expected[:, k - 1 - j] = rate * q[:, j]
    return float(np.max(np.abs(b @ q - expected), initial=0.0))


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
