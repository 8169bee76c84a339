"""Acceptance suite: the package's top-level guarantees.

One test per criterion; each registers a PASS/FAIL line that pytest
prints in the terminal summary.  Published table values are asserted
with a deliberately wide +/-30% band because the generation conventions
behind them are not fully specified; criteria that still cannot be met
are allowed to fail and are analyzed in the repository notes.
"""

import math
import subprocess
import sys

import numpy as np

from conftest import (
    count_sign_changes,
    explicit_summation_dual,
    fixture_matrix,
    load_fixture,
    package_env,
    record_criterion,
    taylor_expm,
)

from opscale.bench import Method, run_bench
from opscale.dft import IndexScheme, dft_matrix, index_grid
from opscale.operators import coord_matrix, diff_matrix, operator_set
from opscale.pei import cddhf_basis, pei_scale
from opscale.scaling import ScalingSpec, scaling_matrix
from opscale.signals import TestFunction

# Published NMSE percentages (chirped pulse; centered column).
TABLE1_CENTERED = {
    (2.0, 128): 1.22e-2, (2.0, 256): 3.1e-3, (2.0, 512): 7.75e-4,
    (3.0, 128): 6.36e-2, (3.0, 256): 1.62e-2, (3.0, 512): 4.1e-3,
    (0.5, 128): 2.68e-2, (0.5, 256): 6.9e-3, (0.5, 512): 1.8e-3,
}

# Published NMSE percentages (trapezoid; both columns).
TABLE2 = {
    ("centered", 2.0, 128): 0.33, ("ordinary", 2.0, 128): 0.313,
    ("centered", 2.0, 256): 9.47e-2, ("ordinary", 2.0, 256): 0.103,
    ("centered", 2.0, 512): 2.91e-2, ("ordinary", 2.0, 512): 2.92e-2,
    ("centered", 3.0, 128): 1.62, ("ordinary", 3.0, 128): 1.59,
    ("centered", 3.0, 256): 0.51, ("ordinary", 3.0, 256): 0.53,
    ("centered", 3.0, 512): 0.15, ("ordinary", 3.0, 512): 0.15,
    ("centered", 0.5, 128): 4.21e-2, ("ordinary", 0.5, 128): 4.75e-2,
    ("centered", 0.5, 256): 1.69e-2, ("ordinary", 0.5, 256): 3.16e-2,
    ("centered", 0.5, 512): 1.2e-2, ("ordinary", 0.5, 512): 7.4e-3,
}
TABLE2_REPORT_ONLY = ("centered", 0.5, 512)

RELATIVE_BAND = 0.30


def _bench_values(function):
    """(scheme, M, N) -> computed NMSE percent for the operator method."""
    table = run_bench(functions=[function], methods=[Method.OPERATOR])
    return {
        (r.scheme.value, r.m_factor, r.n_samples): r.nmse_percent
        for r in table.records
    }


def test_criterion_01_unitarity():
    failures = []
    worst = 0.0
    for m in (0.5, 2.0, 3.0, 7.3):
        for n in (8, 64, 128):
            for scheme in IndexScheme:
                mat = scaling_matrix(ScalingSpec(m, n, scheme))
                resid = float(np.max(np.abs(mat.conj().T @ mat - np.eye(n))))
                worst = max(worst, resid)
                if resid >= 1e-9:
                    failures.append(f"M={m} N={n} {scheme.value}: residual {resid:.3e}")
    record_criterion(
        1, "scaling-matrix unitarity across (M, N, scheme)",
        not failures, f"worst residual {worst:.2e}",
    )
    assert not failures, "\n".join(failures)


def test_criterion_02_group_law():
    failures = []
    details = []
    for scheme in IndexScheme:
        m2 = scaling_matrix(ScalingSpec(2.0, 128, scheme))
        m3 = scaling_matrix(ScalingSpec(3.0, 128, scheme))
        m6 = scaling_matrix(ScalingSpec(6.0, 128, scheme))
        mhalf = scaling_matrix(ScalingSpec(0.5, 128, scheme))
        compose = float(np.max(np.abs(m2 @ m3 - m6)))
        invert = float(np.max(np.abs(m2 @ mhalf - np.eye(128))))
        details.append(f"{scheme.value}: 2*3 vs 6 {compose:.2e}, 2*0.5 vs I {invert:.2e}")
        if compose >= 1e-9:
            failures.append(f"{scheme.value}: M2@M3 != M6 ({compose:.3e})")
        if invert >= 1e-9:
            failures.append(f"{scheme.value}: M2@M0.5 != I ({invert:.3e})")
    record_criterion(2, "one-parameter group law at N=128", not failures, "; ".join(details))
    assert not failures, "\n".join(failures)


def test_criterion_03_duality():
    failures = []
    worst = 0.0
    for n in range(2, 129):
        for scheme in IndexScheme:
            grid = index_grid(n, scheme)
            f = dft_matrix(n, scheme)
            u = coord_matrix(grid)
            d = diff_matrix(f, u)
            resid = float(np.max(np.abs(u - f @ d @ f.conj().T)))
            worst = max(worst, resid)
            if resid >= 1e-10:
                failures.append(f"N={n} {scheme.value}: residual {resid:.3e}")
    record_criterion(
        3, "exact U/D Fourier duality for N=2..128",
        not failures, f"worst residual {worst:.2e}",
    )
    assert not failures, "\n".join(failures)


def test_criterion_04_chirp_table_reproduction():
    computed = _bench_values(TestFunction.CHIRPED_PULSE)
    failures = []
    for (m, n), published in sorted(TABLE1_CENTERED.items()):
        got = computed[("centered", m, n)]
        ratio = got / published
        if not (1 - RELATIVE_BAND <= ratio <= 1 + RELATIVE_BAND):
            failures.append(
                f"M={m} N={n}: computed {got:.3e}, published {published:.3e}, "
                f"ratio {ratio:.3f}"
            )
    record_criterion(
        4, "chirped-pulse table reproduction (centered, +/-30%)",
        not failures, f"{9 - len(failures)}/9 cells within band",
    )
    assert not failures, "\n".join(failures)


def test_criterion_05_trapezoid_table_reproduction():
    computed = _bench_values(TestFunction.TRAPEZOID)
    failures = []
    report_only_note = ""
    for (scheme, m, n), published in sorted(TABLE2.items()):
        got = computed[(scheme, m, n)]
        ratio = got / published
        line = (
            f"{scheme} M={m} N={n}: computed {got:.3e}, published {published:.3e}, "
            f"ratio {ratio:.3f}"
        )
        if (scheme, m, n) == TABLE2_REPORT_ONLY:
            report_only_note = f"report-only cell {line}"
            print(report_only_note)
            continue
        if not (1 - RELATIVE_BAND <= ratio <= 1 + RELATIVE_BAND):
            failures.append(line)
    record_criterion(
        5, "trapezoid table reproduction (both schemes, +/-30%)",
        not failures,
        f"{17 - len(failures)}/17 asserted cells within band; {report_only_note}",
    )
    assert not failures, "\n".join(failures)


def test_criterion_06_qualitative_trends():
    chirp = _bench_values(TestFunction.CHIRPED_PULSE)
    trap = _bench_values(TestFunction.TRAPEZOID)
    violations = []

    # (a) NMSE decreases with N in every chirp-table cell.
    for scheme in ("centered", "ordinary"):
        for m in (0.5, 2.0, 3.0):
            series = [chirp[(scheme, m, n)] for n in (128, 256, 512)]
            if not (series[0] > series[1] > series[2]):
                violations.append(f"chirp {scheme} M={m}: not decreasing {series}")

    # (b) the trapezoid errors dominate the chirp errors cell-wise.
    for scheme in ("centered", "ordinary"):
        for m in (0.5, 2.0, 3.0):
            for n in (128, 256, 512):
                if not trap[(scheme, m, n)] > chirp[(scheme, m, n)]:
                    violations.append(
                        f"M={m} N={n} {scheme}: trapezoid {trap[(scheme, m, n)]:.3e} "
                        f"<= chirp {chirp[(scheme, m, n)]:.3e}"
                    )

    # (c) the two index schemes agree within a factor of 2.
    for label, values in (("chirp", chirp), ("trapezoid", trap)):
        for m in (0.5, 2.0, 3.0):
            for n in (128, 256, 512):
                a = values[("centered", m, n)]
                b = values[("ordinary", m, n)]
                ratio = max(a, b) / min(a, b)
                if ratio > 2.0:
                    violations.append(
                        f"{label} M={m} N={n}: centered {a:.4e} vs ordinary {b:.4e} "
                        f"(ratio {ratio:.4f})"
                    )

    record_criterion(
        6, "qualitative benchmark trends",
        not violations,
        "all trends hold" if not violations else f"{len(violations)} violation(s)",
    )
    assert not violations, "\n".join(violations)


def test_criterion_07_cddhf_property_suite():
    failures = []

    # (a) orthonormality for every N up to 128.
    worst_gram = 0.0
    for n in range(1, 129):
        basis = cddhf_basis(n, 1.0)
        gram_resid = float(np.max(np.abs(basis.vectors.T @ basis.vectors - np.eye(n))))
        worst_gram = max(worst_gram, gram_resid)
    for m in (0.5, 2.0, 3.0):
        basis = cddhf_basis(128, m)
        gram_resid = float(np.max(np.abs(basis.vectors.T @ basis.vectors - np.eye(128))))
        worst_gram = max(worst_gram, gram_resid)
    if worst_gram >= 1e-9:
        failures.append(f"orthonormality: worst Gram residual {worst_gram:.3e}")

    # (b) zero-crossing count of column p equals p, N = 8 and 16.
    for n in (8, 16):
        basis = cddhf_basis(n, 1.0)
        counts = [count_sign_changes(basis.vectors[:, p]) for p in range(n)]
        for p, count in enumerate(counts):
            if count != p:
                failures.append(f"zero crossings at N={n}: column {p} has {count}")

    # (c) basis-vector transport: pei_scale(H_{p,1}, M) = H_{p,M}.
    worst_transport = 0.0
    base = cddhf_basis(64, 1.0)
    for m in (0.5, 2.0, 3.0):
        target = cddhf_basis(64, m)
        for p in range(64):
            out = pei_scale(base.vectors[:, p], m)
            worst_transport = max(
                worst_transport, float(np.max(np.abs(out - target.vectors[:, p])))
            )
    if worst_transport >= 1e-9:
        failures.append(f"basis transport: worst deviation {worst_transport:.3e}")

    # (d) norm preservation.
    rng = np.random.default_rng(2017)
    worst_norm = 0.0
    for m in (0.5, 2.0, 3.0):
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        gap = abs(np.linalg.norm(pei_scale(x, m)) - np.linalg.norm(x)) / np.linalg.norm(x)
        worst_norm = max(worst_norm, float(gap))
    if worst_norm >= 1e-8:
        failures.append(f"norm preservation: worst relative gap {worst_norm:.3e}")

    record_criterion(
        7, "CDDHF property suite",
        not failures,
        f"gram {worst_gram:.1e}, transport {worst_transport:.1e}, "
        f"norm {worst_norm:.1e}"
        + ("" if not failures else f"; {len(failures)} failing sub-check(s)"),
    )
    assert not failures, "\n".join(failures)


def test_criterion_08_small_n_oracles():
    failures = []

    # Scaling matrix vs a 30-term Taylor expansion of the generator.
    worst_taylor = 0.0
    for n in (4, 6):
        for scheme in IndexScheme:
            ops = operator_set(n, scheme)
            for m in (0.5, 2.0):
                theta = 2.0 * math.pi * math.log(m)
                expected = taylor_expm(-1j * theta * np.asarray(ops.generator), terms=30)
                got = scaling_matrix(ScalingSpec(m, n, scheme))
                resid = float(np.max(np.abs(got - expected)))
                worst_taylor = max(worst_taylor, resid)
                if resid >= 1e-10:
                    failures.append(f"Taylor oracle N={n} {scheme.value} M={m}: {resid:.3e}")

    # Differentiation matrix vs explicit scalar summation (live and frozen).
    worst_d = 0.0
    for scheme in IndexScheme:
        ops = operator_set(4, scheme)
        expected = explicit_summation_dual(ops.f, np.diag(ops.u))
        resid = float(np.max(np.abs(ops.d - expected)))
        worst_d = max(worst_d, resid)
        if resid >= 1e-12:
            failures.append(f"summation oracle N=4 {scheme.value}: {resid:.3e}")
    frozen = fixture_matrix(load_fixture("diff4_ordinary.json"))
    resid = float(np.max(np.abs(operator_set(4, IndexScheme.ORDINARY).d - frozen)))
    worst_d = max(worst_d, resid)
    if resid >= 1e-12:
        failures.append(f"frozen summation fixture: {resid:.3e}")

    record_criterion(
        8, "small-N oracle equivalence",
        not failures, f"Taylor {worst_taylor:.1e}, summation {worst_d:.1e}",
    )
    assert not failures, "\n".join(failures)


def test_criterion_09_negative_designs():
    failures = []

    # Forward difference: not Hermitian, by a wide margin, for N >= 4.
    min_resid = math.inf
    for n in (4, 8, 16, 64):
        h = 1.0 / math.sqrt(n)
        shift = np.roll(np.eye(n), 1, axis=1)
        d_fwd = (shift - np.eye(n)) / (2j * math.pi * h)
        resid = float(np.max(np.abs(d_fwd - d_fwd.conj().T)))
        min_resid = min(min_resid, resid)
        if resid <= 0.1:
            failures.append(f"forward difference at N={n}: residual only {resid:.3e}")

    # Naive diag(u_k): breaks the duality criterion at N=16.
    ops = operator_set(16, IndexScheme.ORDINARY)
    naive = np.diag(ops.grid.coordinates)
    naive_resid = float(np.max(np.abs(naive - ops.f @ ops.d @ ops.f.conj().T)))
    if naive_resid <= 1e-3:
        failures.append(f"naive coordinate duality residual only {naive_resid:.3e}")

    record_criterion(
        9, "negative designs fail for the documented reasons",
        not failures,
        f"fwd-diff residual >= {min_resid:.2f}, naive duality residual {naive_resid:.2f}",
    )
    assert not failures, "\n".join(failures)


def test_criterion_10_cli_determinism(tmp_path):
    out_a = tmp_path / "bench_a.csv"
    out_b = tmp_path / "bench_b.csv"
    for out in (out_a, out_b):
        proc = subprocess.run(
            [sys.executable, "-m", "opscale", "bench", "--out", str(out)],
            capture_output=True, text=True, timeout=600, env=package_env(),
        )
        assert proc.returncode == 0, proc.stderr
    identical = out_a.read_bytes() == out_b.read_bytes()
    rows = len(out_a.read_text().strip().splitlines()) - 1
    record_criterion(
        10, "benchmark determinism (byte-identical CSV)",
        identical and rows == 36, f"{rows} data rows",
    )
    assert identical
    assert rows == 36
