"""Tests for the assembled apply shared with ``linalg``'s helper thread.

Above ``linalg._SPLIT_BYTES`` of blocks, :meth:`GridUnitary.dot` runs one
block per thread, or two slabs of one block's product, the second on a
helper thread when it is idle.  Each entry of the result is still one
BLAS product's, so with one BLAS thread the result is bit-identical to
the whole product.  That premise, and the bit-identity of a split apply,
are checked in child interpreters with one BLAS thread, as the test
process may run BLAS on more.  So is the cold sweep, whose independent
builds :func:`opscale.bench.run_bench` hands to the same helper: its
table must not change with it.
"""

import dataclasses
import json
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from conftest import package_env

from opscale import bench, cache, linalg, pei, scaling
from opscale.dft import IndexScheme
from opscale.linalg import GridUnitary
from opscale.scaling import ScalingSpec, scale_signal


def _one_blas_thread_child(code: str, timeout: float = 180) -> dict:
    """Run ``code`` in a fresh interpreter with one BLAS thread; return the JSON it prints last."""
    env = package_env()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=timeout, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _blocks(kind: str, n: int, seed: int = 0) -> GridUnitary:
    """A GridUnitary of random blocks: the product does not depend on unitarity."""
    rng = np.random.default_rng(seed)
    if kind == "whole":
        blocks = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),)
    else:
        blocks = tuple(rng.standard_normal((k, k)) for k in ((n + 1) // 2, n // 2))
    for m in blocks:
        m.setflags(write=False)
    return GridUnitary(blocks, (None,) * len(blocks))


@pytest.fixture
def two_cpus(monkeypatch):
    """The helper runs wherever it is asked to, even on a one-CPU host."""
    monkeypatch.setattr(linalg, "_usable_cpus", lambda: 2)


PREMISE = r"""
import json
import numpy as np
from opscale import linalg
from opscale.linalg import GridUnitary

rng = np.random.default_rng(24)
a, b = rng.standard_normal((2, 1100, 1100))
c = a + 1j * b
bad, one_job = [], []
for k in list(range(513, 1101, 7)) + [640, 768, 1023, 1024]:
    x = rng.standard_normal(2 * k) + 1j * rng.standard_normal(2 * k)
    block = lambda m: np.ascontiguousarray(m[:k, :k])
    whole = GridUnitary((block(c),), (None,))
    parity = GridUnitary((block(a), block(b)), (None, None))
    for u in (whole, parity):
        for adjoint in (False, True):
            y = x[:u.size]
            jobs = linalg._split_jobs(u.blocks, linalg._fold_into(y, len(u.blocks)),
                                      [np.empty(len(m), complex) for m in u.blocks], adjoint)
            if len(jobs) == 1:
                one_job.append([k, len(u.blocks), adjoint])
            linalg._SPLIT_BYTES = 1 << 62
            expected = u.dot(y, adjoint=adjoint).tobytes()
            linalg._SPLIT_BYTES = 0
            if u.dot(y, adjoint=adjoint).tobytes() != expected:
                bad.append([k, len(u.blocks), adjoint])
print(json.dumps({"bad": bad, "one_job": one_job}))
"""


def test_a_split_product_rounds_as_the_whole_product_with_one_blas_thread():
    # The premise of the split: with one BLAS thread, the rows of m @ x
    # and the columns of m^H @ x, cut as _split_jobs cuts them, are
    # bit-identical to the whole product's, for complex blocks of 513 to
    # 1100 rows; two real blocks are one job each.  (A real block's
    # product is one real product with two columns, whose row slabs
    # round otherwise from k = 709 on, so no real block is ever cut.)
    # A complex adjoint is cut only where its second slab keeps 64
    # columns beside the caller's 512, from k = 576 on.
    got = _one_blas_thread_child(PREMISE)
    assert got["bad"] == []
    assert got["one_job"] == [[k, 1, True] for k in range(513, 576, 7)]


MIXED = r"""
import json, sys, threading
import numpy as np
from opscale import linalg, scaling
from opscale.scaling import ScalingSpec

sys.setswitchinterval(1e-5)
specs = [ScalingSpec(m, 1024, s) for s in ("ordinary", "centered") for m in (2.0, 0.5)]
rng = np.random.default_rng(1024)
xs = [rng.standard_normal(1024) + 1j * rng.standard_normal(1024) for _ in range(3)]

def apply(spec, x):
    return scaling._apply(x, spec, factored=False)  # the assembled path of scale_signal

split_bytes = linalg._SPLIT_BYTES
linalg._SPLIT_BYTES = 1 << 62
whole = {(i, j): apply(s, x).tobytes() for i, s in enumerate(specs) for j, x in enumerate(xs)}
linalg._SPLIT_BYTES = split_bytes
serial = {(i, j): apply(s, x).tobytes() for i, s in enumerate(specs) for j, x in enumerate(xs)}

shared = [0]
run = linalg._Helper.run
def counted(self, work, here):
    shared[0] += 1
    return run(self, work, here)
linalg._Helper.run = counted

bad, errors = [], []
def worker(t):
    try:
        for r in range(24):
            i, j = (t + r) % len(specs), (t * r) % len(xs)
            if apply(specs[i], xs[j]).tobytes() != serial[i, j]:
                bad.append((i, j))
    except Exception as exc:
        errors.append(repr(exc))

threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=120)
print(json.dumps({
    "serial_is_whole": serial == whole, "bad": bad, "errors": errors,
    "alive": sum(t.is_alive() for t in threads), "calls": 8 * 24, "shared": shared[0],
    "cpus": linalg._usable_cpus(),
    "helpers": [t.daemon for t in threading.enumerate() if t.name == "opscale.linalg helper"],
}))
"""


def test_eight_threads_mixing_large_applies_get_the_serial_result_bit_for_bit():
    # Both schemes at N = 1024, M and 1/M: with one BLAS thread every
    # result equals the whole product's, whether the call shared its work
    # with the helper or found it busy and did all of it itself.  The
    # interpreter then exits with its helper thread, a daemon, still there.
    got = _one_blas_thread_child(MIXED)
    assert got["serial_is_whole"]
    assert got["bad"] == [] and got["errors"] == [] and got["alive"] == 0
    if got["cpus"] >= 2:
        assert 0 < got["shared"] < got["calls"]
        assert got["helpers"] == [True]


@pytest.mark.parametrize("kind, adjoint", [("whole", False), ("whole", True), ("parity", False)])
def test_a_caller_never_waits_on_another_callers_half(two_cpus, kind, adjoint):
    u = _blocks(kind, 1024)
    x = np.random.default_rng(1).standard_normal(1024) + 0j
    expected = u.dense(adjoint) @ x
    gate, started = threading.Event(), threading.Event()

    def held():
        started.set()
        gate.wait()

    other = threading.Thread(target=linalg._share, args=([lambda: None, held],))
    other.start()
    try:
        assert started.wait(30)  # the helper now runs another caller's half
        result = []
        caller = threading.Thread(target=lambda: result.append(u.dot(x, adjoint=adjoint)))
        caller.start()
        caller.join(timeout=30)
        assert not caller.is_alive(), "the caller waited on the busy helper"
    finally:
        gate.set()
        other.join(timeout=30)
    assert np.max(np.abs(result[0] - expected)) <= 1e-12 * np.linalg.norm(x)


def test_an_error_in_the_helpers_half_reaches_its_caller(two_cpus):
    def fails():
        raise ZeroDivisionError("helper half")

    with pytest.raises(ZeroDivisionError, match="helper half"):
        linalg._share([lambda: None, fails])
    # The helper is idle again for the next caller.
    done = []
    linalg._share([lambda: done.append("here"), lambda: done.append("helper")])
    assert sorted(done) == ["helper", "here"]


@pytest.mark.parametrize("kind", ["whole", "parity"])
def test_split_products_match_the_dense_product(two_cpus, kind):
    for n in (725, 1024, 1101):
        u = _blocks(kind, n, seed=n)
        assert u.nbytes > linalg._SPLIT_BYTES
        x = np.random.default_rng(n).standard_normal(n) + 1j
        for adjoint in (False, True):
            y = u.dot(x, adjoint=adjoint)
            assert np.max(np.abs(y - u.dense(adjoint) @ x)) <= 1e-12 * n * np.linalg.norm(x)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_child_forked_after_a_split_apply_applies_again(two_cpus):
    # The child has no helper thread: the one its parent started is not
    # there, so it must start its own, not post to the parent's.
    u = _blocks("whole", 1024)
    x = np.random.default_rng(2).standard_normal(1024) + 0j
    expected = u.dot(x)
    assert linalg._helper is not None
    pid = os.fork()
    if pid == 0:  # the child leaves through os._exit, whatever happens
        code = 3
        try:
            parent_helper = linalg._helper is not None
            y = u.dot(x)
            code = 0 if (not parent_helper and linalg._helper is not None
                         and np.max(np.abs(y - expected)) <= 1e-12 * np.linalg.norm(x)) else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.01)
    else:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        pytest.fail("the forked child's split apply did not finish in 30 s")
    assert os.waitstatus_to_exitcode(status) == 0


SWEEP = r"""
import json, os, tempfile
from opscale import bench, cli, linalg

linalg._usable_cpus = lambda: 2  # the helper runs even on a one-CPU host
idle_helper, shared = linalg._idle_helper, []
if MODE == "serial":
    linalg._idle_helper = lambda: None
else:
    def counting():
        helper = idle_helper()
        shared.append(helper is not None)
        return helper
    linalg._idle_helper = counting
with tempfile.TemporaryDirectory() as tmp:
    out = os.path.join(tmp, "sweep.csv")
    code = cli.main(["bench", "--methods", "operator,cddhf,interp", "--out", out])
    with open(out) as fh:
        csv = fh.read()
failing = bench.run_bench(methods=list(bench.Method), m_factors=[1e-300], n_values=[2, 3])
print(json.dumps({
    "code": code, "csv": csv, "failing": bench.emit_table(failing),
    "notes": [r.note for r in failing.records], "shared": shared,
}))
"""


def test_the_cold_sweep_reads_the_same_with_and_without_the_helper():
    # The reference sweep, and a sweep whose cells fail, each cold in its
    # own one-BLAS-thread interpreter: the helper's builds of bases and
    # decompositions change nothing in the table, notes included.
    alone = _one_blas_thread_child('MODE = "serial"' + SWEEP)
    helped = _one_blas_thread_child('MODE = "helped"' + SWEEP)
    assert alone["code"] == helped["code"] == 0
    assert alone["shared"] == [] and True in helped["shared"]
    assert helped["csv"] == alone["csv"]
    assert helped["failing"] == alone["failing"]
    assert helped["notes"] == alone["notes"]
    assert "ValueError: reference vector has zero norm" in alone["notes"]


def test_a_failed_prefetch_build_leaves_its_cell_the_same_note(two_cpus, monkeypatch):
    # Every CDDHF basis at N = 17 raises: the helper drops its failed
    # builds, and each cell that needs one builds it again and records
    # the same note as a sweep without the helper.
    u_squared = pei.pei_u_squared

    def failing(n):
        if n == 17:
            raise RuntimeError("no basis at N = 17")
        return u_squared(n)

    monkeypatch.setattr(pei, "pei_u_squared", failing)
    monkeypatch.setattr(bench, "_one_blas_thread", lambda: True)
    cache.shared.clear()  # no N = 17 basis is left from another test
    kwargs = dict(methods=[bench.Method.CDDHF], m_factors=[0.5, 2.0], n_values=[16, 17])
    helped = bench.run_bench(**kwargs)
    monkeypatch.setattr(linalg, "_idle_helper", lambda: None)
    alone = bench.run_bench(**kwargs)
    assert bench.emit_table(helped) == bench.emit_table(alone)
    assert [r.note for r in helped.records] == [r.note for r in alone.records]
    assert {r.note for r in alone.records if r.n_samples == 17} == {
        "RuntimeError: no basis at N = 17"}


def test_the_sweep_keeps_to_the_caller_unless_blas_has_one_thread(two_cpus, monkeypatch):
    # With BLAS free to run a thread per CPU the helper's builds would
    # contend with the caller's products, so the sweep never asks for it.
    def refuses():
        raise AssertionError("the helper was asked for")

    monkeypatch.setattr(linalg, "_idle_helper", refuses)
    monkeypatch.setattr(bench, "_one_blas_thread", lambda: False)
    table = bench.run_bench(methods=[bench.Method.CDDHF], m_factors=[0.5, 2.0], n_values=[16])
    assert len(table.records) == 8


@pytest.mark.parametrize("env, one", [
    ({}, False),
    ({"OPENBLAS_NUM_THREADS": "1"}, True),
    ({"OMP_NUM_THREADS": "1"}, True),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
    ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "1"}, True),
    ({"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "1"}, True),
    ({"MKL_NUM_THREADS": "1"}, False),
])
def test_blas_is_one_thread_where_the_variable_openblas_reads_first_says_so(
        monkeypatch, env, one):
    for var in (*bench._BLAS_THREAD_VARS, "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    assert bench._one_blas_thread() is one


def test_new_factors_never_share(monkeypatch):
    # A stream of new factors at N = 512 applies each operator in
    # factored form: it never reaches the helper.
    def refuses():
        raise AssertionError("the helper was asked for")

    monkeypatch.setattr(linalg, "_idle_helper", refuses)
    rng = np.random.default_rng(512)
    for i, m in enumerate(np.exp(rng.uniform(np.log(0.25), np.log(4.0), 64))):
        x = rng.standard_normal(512) + 1j * rng.standard_normal(512)
        y = scale_signal(x, ScalingSpec(m, 512, list(IndexScheme)[i % 2]))
        assert abs(np.linalg.norm(y) / np.linalg.norm(x) - 1) <= 1e-10


def test_the_byte_count_is_kept_at_construction():
    u = _blocks("parity", 9)
    assert "nbytes" in {f.name for f in dataclasses.fields(u)}
    assert u.nbytes == sum(m.nbytes for m in u.blocks) == 8 * (25 + 16)
    assert scaling._scaling_operator(*ScalingSpec(2.0, 8, "ordinary")._key).nbytes == 16 * 64
