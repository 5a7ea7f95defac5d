"""The compiled kernel: same bits as the Python loops, guarded inputs, and
a cache that survives races, damage and a missing compiler."""

import contextlib
import ctypes
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vrlite import _kernel, optim
from vrlite.bench import ExperimentConfig, stepsize_sweep
from vrlite.data import format_libsvm
from vrlite.distributed import engine
from vrlite.distributed.engine import DistributedConfig, run_distributed
from vrlite.distributed.runtime import (
    init_worker,
    shard_dataset,
    worker_async_epoch,
    worker_sync_epoch,
)
from vrlite.model import Dataset, LossModel
from vrlite.optim import (
    EpochAverages,
    OptState,
    saga_epoch,
    saga_init,
    sgd_epoch,
    svrg_epoch,
    vrlite_epoch,
    vrlite_init,
)
from vrlite.seeding import optimizer_rng, shard_rng

SRC = Path(__file__).resolve().parents[1] / "src"
needs_gcc = pytest.mark.skipif(shutil.which("gcc") is None, reason="no gcc on PATH")
needs_lib = pytest.mark.skipif(_kernel.lib is None, reason="no compiled kernel")


@contextlib.contextmanager
def _python_kernel():
    """Context in which the package runs its Python loops."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernel, "lib", None)
        yield


def _both(run):
    """run() with the compiled kernel, then with the Python loops."""
    compiled = run()
    with _python_kernel():
        python = run()
    return compiled, python


def _assert_same(a, b):
    for u, v in zip(a, b, strict=True):
        np.testing.assert_array_equal(u, v)


# ------------------------------------------------ compiled == fallback


def _vrlite_run(ds, m, eta, accum, epochs=3, seed=3):
    rng = optimizer_rng(seed)
    st = vrlite_init(m, ds, eta, rng, accum_grad=accum)
    out = [st.x, st.averages.x_bar, st.averages.g_bar]
    for _ in range(epochs - 1):
        st = vrlite_epoch(st, m, ds, eta, rng, accum_grad=accum)
        out += [st.x, st.averages.x_bar, st.averages.g_bar]
    return out


def _sgd_run(ds, m, eta, accum, epochs=3, seed=3):
    rng = optimizer_rng(seed)
    st = OptState(np.full(ds.dimension, 0.1), EpochAverages.zeros(ds.dimension))
    out = []
    for _ in range(epochs):
        st = sgd_epoch(st, m, ds, eta, rng, accum_grad=accum)
        out += [st.x, st.averages.x_bar, st.averages.g_bar]
    return out


def _svrg_run(ds, m, eta, epochs=3, seed=3):
    rng = optimizer_rng(seed)
    x, out = np.zeros(ds.dimension), []
    for _ in range(epochs):
        x = svrg_epoch(x, m, ds, eta, rng)
        out.append(x)
    return out


def _saga_run(ds, m, eta, epochs=3, seed=3):
    rng = optimizer_rng(seed)
    x = np.zeros(ds.dimension)
    st = saga_init(m, ds, x)
    out = []
    for _ in range(epochs):
        x, st = saga_epoch(x, m, ds, st, eta, rng)
        out += [x, st.grad_table.copy(), st.table_mean.copy()]
    return out


PROBLEMS = ["tiny_class", "tiny_ridge"]


@needs_lib
@pytest.mark.parametrize("problem", PROBLEMS)
@pytest.mark.parametrize("accum", ["post", "reuse"])
@pytest.mark.parametrize("algo", ["vrlite", "sgd"])
def test_compiled_equals_fallback_with_accumulators(request, problem, accum, algo):
    ds, m = request.getfixturevalue(problem)[:2]
    run = {"vrlite": _vrlite_run, "sgd": _sgd_run}[algo]
    _assert_same(*_both(lambda: run(ds, m, 0.02, accum)))


@needs_lib
@pytest.mark.parametrize("problem", PROBLEMS)
@pytest.mark.parametrize("algo", ["svrg", "saga"])
def test_compiled_equals_fallback_svrg_saga(request, problem, algo):
    ds, m = request.getfixturevalue(problem)[:2]
    run = {"svrg": _svrg_run, "saga": _saga_run}[algo]
    _assert_same(*_both(lambda: run(ds, m, 0.02)))


@needs_lib
def test_compiled_equals_fallback_sim_sync(tiny_class):
    ds, m = tiny_class
    cfg = DistributedConfig(mode="sync", workers=2, epochs=4, eta=0.02, seed=5)

    def run():
        res = run_distributed(m, ds, cfg)
        return [s.x for s in res.snapshots] + [res.x, res.x_bar, res.g_bar]

    compiled, python = _both(run)
    assert len(compiled) == len(python) == 4 + 3
    _assert_same(compiled, python)


@needs_lib
def test_compiled_equals_fallback_diverging(tiny_ridge):
    # eta = 100 on the ridge problem overflows within the first epochs of
    # every method; inf and nan must land in the same places on both paths.
    ds, m = tiny_ridge[:2]
    runs = (lambda: _vrlite_run(ds, m, 100.0, "post", epochs=4),
            lambda: _sgd_run(ds, m, 100.0, "reuse"),
            lambda: _svrg_run(ds, m, 100.0),
            lambda: _saga_run(ds, m, 100.0))
    for run in runs:
        compiled, python = _both(run)
        assert not np.isfinite(compiled[-1]).all()
        _assert_same(compiled, python)


_reals = st.floats(allow_nan=True, allow_infinity=True, width=64)


@needs_lib
@settings(max_examples=1000, deadline=None)
@given(st.integers(0, 48).flatmap(
    lambda d: st.tuples(st.lists(_reals, min_size=d, max_size=d),
                        st.lists(_reals, min_size=d, max_size=d),
                        st.integers(-300, 300))))
def test_compiled_dot_equals_python_dot(case):
    a, x, scale = case
    # Rescaling by a power of two keeps every value exact but moves the
    # products across the whole exponent range, overflow included.
    with np.errstate(over="ignore"):
        a = np.ldexp(np.array(a, dtype=np.float64), scale)
    x = np.array(x, dtype=np.float64)
    compiled = _kernel.dot(a, x)
    with _python_kernel():
        python = _kernel.dot(a, x)
    assert isinstance(compiled, float) and isinstance(python, float)
    if math.isnan(python):
        assert math.isnan(compiled)
    else:
        assert np.float64(compiled).tobytes() == np.float64(python).tobytes()


def _assert_same_bits(got, want):
    """Equal bit for bit, except that any nan matches any nan."""
    for u, v in zip(got, want, strict=True):
        nan = np.isnan(v)
        np.testing.assert_array_equal(np.isnan(u), nan)
        assert u[~nan].tobytes() == v[~nan].tobytes()


def _arrays(shape):
    """float64 arrays with entries in [-3, 3], each drawn on its own."""
    return hnp.arrays(np.float64, shape, elements=st.floats(-3, 3),
                      fill=st.nothing())


@st.composite
def _problems(draw):
    """A small problem and a sample order with repeated consecutive
    indices: the fused loop takes each step's margins from the step
    before, so the order's length (0, 1 or more) and its repeats pin the
    loop's boundaries. d up to 25 gives the vectorized one-run loop both
    its 4-wide body and its tail, as at the toys' d = 20."""
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 25))
    logistic = draw(st.booleans())
    F = draw(_arrays((n, d)))
    if logistic:
        L = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n,
                                   max_size=n)))
    else:
        L = draw(_arrays(n))
    m = draw(st.integers(0, 12))
    order = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    repeat = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    for k in range(1, m):
        if repeat[k]:
            order[k] = order[k - 1]
    lam2 = 2.0 * draw(st.sampled_from([0.0, 1e-4, 0.1]))
    eta = draw(st.one_of(st.sampled_from([1e-4, 3.2e-3, 0.4096, 1e3]),
                         st.floats(0, 1e3)))
    # A start scaled by 2^1020 overflows within a step or two at large
    # eta, so inf and nan must land in the same places on both paths.
    x = np.ldexp(draw(_arrays(d)), draw(st.sampled_from([0, 1020])))
    return F, L, np.array(order, dtype=np.int64), x, logistic, lam2, eta


@needs_lib
@settings(max_examples=400, deadline=None)
@given(_problems(), st.data())
def test_compiled_epoch_equals_python_epoch(problem, data):
    F, L, order, x, logistic, lam2, eta = problem
    d = x.shape[0]
    anchor = data.draw(st.one_of(st.none(), st.tuples(_arrays((1, d)),
                                                      _arrays((1, d)))))
    accum = data.draw(st.sampled_from([None, "post", "reuse"]))
    args = (F, L, order, x[None], anchor, accum, logistic, lam2, np.array([eta]))
    compiled = _kernel.epoch(*args)
    with _python_kernel():
        python = optim._epoch_py(*args)
    _assert_same_bits(compiled, python)


_etas = st.one_of(st.sampled_from([0.0, 1e-4, 3.2e-3, 0.4096, 1e3]), st.floats(0, 1e3))


@pytest.fixture(scope="session")
def baseline_lib(tmp_path_factory):
    """The kernel built without its AVX2 path, as a gcc for another
    architecture builds it: two lanes wide on every CPU."""
    if shutil.which("gcc") is None:
        pytest.skip("no gcc on PATH")
    so = tmp_path_factory.mktemp("baseline") / "baseline.so"
    subprocess.run(["gcc", *_kernel.FLAGS, "-DVRLITE_BASELINE_ONLY", "-o", str(so),
                    str(SRC / "vrlite" / "_kernel.c"), "-lm"], check=True)
    return _kernel._bind(ctypes.CDLL(str(so)))


@needs_lib
@settings(max_examples=300, deadline=None)
@given(_problems(), st.integers(1, 9), st.data())
def test_every_lane_equals_its_own_run(baseline_lib, problem, K, data):
    """K runs over one order, each with its own start, anchor and
    stepsize (some overflowing next to finite ones), through this build
    and the build without AVX2, so both one-run loops and both lane
    widths are covered on an AVX2 machine: each run equals its one-run
    call and `_epoch_py` bit for bit. K up to 9 leaves last blocks of
    every fill at widths 2 and 4, one live run included."""
    F, L, order, x, logistic, lam2, eta = problem
    d = x.shape[0]
    starts = [np.ldexp(data.draw(_arrays(d)), data.draw(st.sampled_from([0, 1020])))
              for _ in range(K - 1)]
    x = np.array([x] + starts)
    eta = np.array([eta] + [data.draw(_etas) for _ in range(K - 1)])
    anchor = data.draw(st.one_of(st.none(), st.tuples(_arrays((K, d)),
                                                      _arrays((K, d)))))
    accum = data.draw(st.sampled_from([None, "post", "reuse"]))

    def one(k):
        return (F, L, order, x[k:k + 1], None if anchor is None else
                (anchor[0][k:k + 1], anchor[1][k:k + 1]), accum, logistic, lam2,
                eta[k:k + 1])

    want = [optim._epoch_py(*one(k)) for k in range(K)]
    for dll in (_kernel.lib, baseline_lib):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernel, "lib", dll)
            for k in range(K):
                _assert_same_bits(_kernel.epoch(*one(k)), want[k])
            got = _kernel.epoch(F, L, order, x, anchor, accum, logistic, lam2, eta)
        assert all(g.shape == (K, d) for g in got)
        for k in range(K):
            _assert_same_bits([g[k] for g in got], [w[0] for w in want[k]])


@needs_lib
def test_concurrent_epoch_calls_equal_serial_calls():
    """Socket workers call `epoch` from threads at once, without the
    interpreter lock. Five runs make full lane blocks and a one-run tail
    at either lane width; every threaded call equals the serial one."""
    rng = np.random.default_rng(0)
    n, d, K = 200, 8, 5
    F, L = rng.uniform(-1, 1, (n, d)), rng.choice([-1.0, 1.0], n)
    order = rng.integers(0, n, 2 * n)
    cases = [(rng.uniform(-1, 1, (K, d)), rng.uniform(-1, 1, (2, K, d)),
              rng.uniform(0, 0.1, K)) for _ in range(2)]

    def call(case):
        x, anchor, eta = case
        return _kernel.epoch(F, L, order, x, anchor, "post", True, 2e-4, eta)

    want = [call(case) for case in cases]
    results = [[], []]

    def work(i):
        for _ in range(50):
            results[i].append(call(cases[i]))

    threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got, ref in zip(results, want):
        assert len(got) == 50
        for out in got:
            _assert_same_bits(out, ref)


@needs_lib
@settings(max_examples=400, deadline=None)
@given(_problems(), st.data())
def test_compiled_saga_epoch_equals_saga_step_loop(problem, data):
    F, L, order, x, logistic, lam2, eta = problem
    n, d = F.shape
    ds = Dataset(F, L, "classification" if logistic else "regression")
    m = LossModel("logistic" if logistic else "ridge", lam2 / 2.0)
    table = data.draw(_arrays((n, d)))
    mean = table.mean(axis=0)
    got_table, got_mean = table.copy(), mean.copy()
    got_x = _kernel.saga_epoch(F, L, order, x, got_table, got_mean, logistic,
                               2.0 * m.lam, eta)
    state = optim.SagaState(table.copy(), mean.copy())
    want_x = x
    with _python_kernel():
        for i in order:
            want_x, state = optim.saga_step(want_x, int(i), m, ds, state, eta)
    _assert_same_bits([got_x, got_table, got_mean],
                      [want_x, state.grad_table, state.table_mean])


def _cpu_has_avx2() -> bool:
    try:
        with open("/proc/cpuinfo") as f:
            return any(line.startswith("flags") and " avx2" in line for line in f)
    except OSError:
        return False


@needs_lib
def test_lane_paths_of_this_build(baseline_lib):
    """No -march flag: the AVX2 one-run loop and lanes come from a
    per-function target and are used only where the CPU has AVX2; without
    them the baseline one-run loop and two lanes serve. The loops, their
    pointers and the width stay private to the library."""
    assert not any(f.startswith("-march") for f in _kernel.FLAGS)
    avx2 = platform.machine() == "x86_64" and _cpu_has_avx2()
    assert _kernel.lib.lane_width() == (4 if avx2 else 2)
    assert baseline_lib.lane_width() == 2
    for name in ("epoch_one", "epoch_one_avx2", "epoch_lanes2", "epoch_lanes4",
                 "width", "one_loop", "lane_loop"):
        assert not hasattr(_kernel.lib, name)


@needs_gcc
def test_baseline_only_build_gives_the_same_sweeps(baseline_lib, tmp_path, monkeypatch,
                                                   tiny_ridge):
    """A build without the AVX2 path (as on a non-x86 gcc) gives the
    same sweeps as this build."""
    data = tmp_path / "ridge.libsvm"
    data.write_text(format_libsvm(tiny_ridge[0]))
    for algo in ("sgd", "svrg", "vrlite"):
        cfg = ExperimentConfig(algo=algo, dataset=f"libsvm:{data}", epochs=20)
        want = stepsize_sweep(cfg)
        with monkeypatch.context() as mp:
            mp.setattr(_kernel, "lib", baseline_lib)
            assert stepsize_sweep(cfg) == want


# ----------------------------------------------------- input guards


@pytest.fixture(params=["compiled", "python"])
def kernel(request):
    if request.param == "compiled" and _kernel.lib is None:
        pytest.skip("no compiled kernel")
    if request.param == "python":
        with _python_kernel():
            yield request.param
    else:
        yield request.param


def _small():
    ds = Dataset(np.arange(12.0).reshape(4, 3) / 10.0, [1.0, -1.0, 1.0, -1.0],
                 "classification")
    return ds, LossModel("logistic", 1e-3)


def test_epoch_rejects_wrong_lengths_and_leaves_inputs_alone(kernel):
    ds, m = _small()
    x, xb, gb = np.full(3, 0.5), np.full(3, 0.25), np.full(3, -0.125)
    keep = [x.copy(), xb.copy(), gb.copy()]
    order = np.arange(4)
    for bad in (np.ones(2), np.ones(4), np.ones((3, 1))):
        with pytest.raises(ValueError, match="dimension mismatch"):
            optim._epoch(m, ds, bad, order, 0.1, (xb, gb), "post")
        with pytest.raises(ValueError, match="dimension mismatch"):
            optim._epoch(m, ds, x, order, 0.1, (bad, gb), "post")
        with pytest.raises(ValueError, match="dimension mismatch"):
            optim._epoch(m, ds, x, order, 0.1, (xb, bad), "post")
    state = OptState(np.ones(4), EpochAverages.zeros(3))
    with pytest.raises(ValueError):
        vrlite_epoch(state, m, ds, 0.1, optimizer_rng(0))
    with pytest.raises(ValueError):
        sgd_epoch(state, m, ds, 0.1, optimizer_rng(0))
    with pytest.raises(ValueError):
        svrg_epoch(np.ones(5), m, ds, 0.1, optimizer_rng(0))
    out, avg = optim._epoch(m, ds, x, order, 0.1, (xb, gb), "post")
    assert np.isfinite(out).all() and not np.array_equal(out, x)
    _assert_same([x, xb, gb], keep)


def test_epoch_rejects_bad_order(kernel):
    ds, m = _small()
    x = np.zeros(3)
    for order in ([0, 1, 4], [0, -1], [2**40], np.array([0.0, 1.0]),
                  np.array([True, False]), np.zeros((2, 2), dtype=np.int64)):
        with pytest.raises((IndexError, ValueError)):
            optim._epoch(m, ds, x, np.asarray(order), 0.1)
    np.testing.assert_array_equal(x, np.zeros(3))
    out, _ = optim._epoch(m, ds, x, np.array([3, 0, 3], dtype=np.uint8), 0.1)
    assert np.isfinite(out).all()


@pytest.mark.parametrize("order", [
    np.array([0, -1]),
    np.array([2, 4, 0]),                          # n itself
    np.array([-2**63, 3]),
    np.array([2**63 - 1]),
    np.array([-1], dtype=np.int8),
    np.array([4], dtype=np.uint8),
    np.array([2**32 - 1], dtype=np.uint32),
    np.array([0, 2**63], dtype=np.uint64),        # negative as an int64
    np.array([2**64 - 1, 1], dtype=np.uint64),
], ids=lambda o: f"{o.dtype}{o.tolist()}")
def test_indices_rejects_either_end_and_names_the_range(order):
    want = f"sample index out of range for n=4: [{order.min()}, {order.max()}]"
    with pytest.raises(IndexError) as err:
        _kernel.indices(order, 4)
    assert str(err.value) == want


def test_indices_accepts_every_integer_dtype_and_an_empty_order():
    for dtype in (np.int8, np.uint8, np.int32, np.uint32, np.int64, np.uint64):
        got = _kernel.indices(np.array([3, 0, 3], dtype=dtype), 4)
        assert got.dtype == np.int64 and got.tolist() == [3, 0, 3]
        for n in (0, 4):
            empty = _kernel.indices(np.array([], dtype=dtype), n)
            assert empty.dtype == np.int64 and empty.shape == (0,)


def test_saga_rejects_wrong_shapes_and_keeps_x(kernel):
    ds, m = _small()
    x = np.full(3, 0.5)
    good = saga_init(m, ds, x)
    for table, mean in ((np.zeros((4, 2)), np.zeros(2)), (np.zeros((3, 3)), np.zeros(3)),
                        (np.zeros((4, 3)), np.zeros(4)), (np.zeros(12), np.zeros(3))):
        st_bad = optim.SagaState(table, mean)
        with pytest.raises(ValueError, match="dimension mismatch"):
            saga_epoch(x, m, ds, st_bad, 0.1, optimizer_rng(0))
    with pytest.raises(ValueError, match="dimension mismatch"):
        saga_epoch(np.ones(4), m, ds, good, 0.1, optimizer_rng(0))
    before = (good.grad_table.copy(), good.table_mean.copy())
    out, st = saga_epoch(x, m, ds, good, 0.1, optimizer_rng(0))
    assert st is good and not np.array_equal(good.grad_table, before[0])
    np.testing.assert_array_equal(x, np.full(3, 0.5))


def test_saga_updates_non_contiguous_state_in_place(kernel):
    # A table that is not C-contiguous float64 goes to C as a copy and is
    # written back, so the caller's arrays hold the result, as after a
    # saga_step loop.
    ds, m = _small()
    x = np.full(3, 0.5)
    ref = saga_init(m, ds, x)
    odd = optim.SagaState(np.asfortranarray(ref.grad_table), ref.table_mean.copy())
    table = odd.grad_table
    want, ref = saga_epoch(x, m, ds, ref, 0.1, optimizer_rng(2))
    got, odd = saga_epoch(x, m, ds, odd, 0.1, optimizer_rng(2))
    assert odd.grad_table is table
    _assert_same([got, odd.grad_table, odd.table_mean],
                 [want, ref.grad_table, ref.table_mean])


def test_dot_rejects_mismatched_vectors(kernel):
    with pytest.raises(ValueError):
        _kernel.dot(np.ones(3), np.ones(4))
    with pytest.raises(ValueError):
        _kernel.dot(np.ones((2, 2)), np.ones((2, 2)))
    assert _kernel.dot(np.arange(3.0), np.arange(3.0)) == 5.0


@pytest.mark.parametrize("bad", [{"eta": -1.0}, {"eta": math.nan},
                                 {"accum_grad": "bogus"}],
                         ids=["eta-negative", "eta-nan", "accum-bogus"])
@pytest.mark.parametrize("worker_epoch", [worker_sync_epoch, worker_async_epoch])
def test_worker_epoch_rejects_bad_eta_and_accum_before_drawing(kernel, worker_epoch,
                                                               bad):
    ds, m = _small()
    (shard,) = shard_dataset(ds, 1, shard_rng(0))
    w = init_worker(0, np.zeros(3), np.zeros(3), np.zeros(3))
    rng = optimizer_rng(0)
    before = rng.bit_generator.state
    args = {"eta": 0.1, "accum_grad": "post", **bad}
    with pytest.raises(ValueError):
        worker_epoch(w, shard, m, args["eta"], rng, accum_grad=args["accum_grad"])
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("mode", ["sync", "async"])
def test_socket_worker_with_wrong_dimension_state_fails_promptly(monkeypatch, mode):
    ds, m = _small()
    real = engine.adopt_global_state

    def shrinking(w, msg):
        w = real(w, msg)
        if w.worker_id == 1:
            w.averages = EpochAverages(w.averages.x_bar[:-1], w.averages.g_bar)
        return w

    monkeypatch.setattr(engine, "adopt_global_state", shrinking)
    before = set(threading.enumerate())
    cfg = DistributedConfig(mode=mode, workers=2, epochs=6, eta=0.05, seed=1,
                            transport="socket")
    t0 = time.monotonic()
    with pytest.raises(RuntimeError) as info:
        run_distributed(m, ds, cfg)
    assert time.monotonic() - t0 < 5.0
    assert isinstance(info.value.__cause__, ValueError)
    assert "dimension mismatch" in str(info.value.__cause__)
    assert set(threading.enumerate()) <= before


# --------------------------------------------------- build and cache

CHILD = """
import json, shutil, sys, warnings
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    import numpy as np
    from vrlite import _kernel
    from vrlite.data import SyntheticSpec, gen_gaussian_classification
    from vrlite.model import LossModel
    from vrlite.optim import vrlite_epoch, vrlite_init
    ds = gen_gaussian_classification(SyntheticSpec(n=200, d=6, seed=3))
    m = LossModel("logistic", 1e-4)
    rng = np.random.default_rng(0)
    st = vrlite_epoch(vrlite_init(m, ds, 0.05, rng), m, ds, 0.05, rng)
print(json.dumps({
    "compiled": _kernel.lib is not None,
    "path": None if _kernel.lib is None else _kernel.lib._name,
    "sealed": _kernel.lib is not None and _kernel._verified(
        _kernel.lib._name, _kernel._key(shutil.which("gcc"))),
    "warnings": [str(w.message) for w in caught if w.category is RuntimeWarning],
    "x": st.x.tobytes().hex(),
    "dot": _kernel.dot(np.ones(3), np.ones(3)),
}))
"""


def _copy_package(tmp_path):
    src = tmp_path / "src"
    shutil.copytree(SRC / "vrlite", src / "vrlite",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return src


def _child(src, path=None):
    env = dict(os.environ, PYTHONPATH=str(src))
    if path is not None:
        env["PATH"] = path
    return subprocess.Popen([sys.executable, "-c", CHILD], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def _result(proc):
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    return json.loads(out.splitlines()[-1])


def _cache_files(src):
    return sorted(p.name for p in (src / "vrlite" / "__pycache__").iterdir()
                  if p.name.startswith("_kernel"))


@pytest.fixture(scope="module")
def reference_x():
    """The child's run in this process's package, as hex of x's bytes."""
    return _result(_child(SRC))["x"]


@needs_gcc
def test_concurrent_first_imports_share_one_cache_file(tmp_path, reference_x):
    src = _copy_package(tmp_path)
    procs = [_child(src), _child(src)]
    results = [_result(p) for p in procs]
    files = _cache_files(src)
    assert len(files) == 1 and files[0].endswith(".so")
    for r in results:
        assert r["compiled"] and r["sealed"] and r["warnings"] == []
        assert Path(r["path"]).name == files[0]
        assert r["x"] == reference_x


@needs_gcc
def test_damaged_cache_file_is_rebuilt_not_loaded(tmp_path, reference_x):
    src = _copy_package(tmp_path)
    first = _result(_child(src))
    so = Path(first["path"])
    assert first["sealed"]
    good = so.read_bytes()

    so.write_bytes(good[: len(good) // 2])  # truncated
    again = _result(_child(src))
    assert again["compiled"] and again["sealed"] and again["warnings"] == []
    assert again["dot"] == 3.0 and again["x"] == reference_x

    # A working library built from other source, sealed for another key,
    # sits under the right name: its dot returns 42.
    fake_c = tmp_path / "fake.c"
    fake_c.write_text((SRC / "vrlite" / "_kernel.c").read_text().replace(
        "    return s;\n", "    return 42.0;\n"))
    assert "return 42.0;" in fake_c.read_text()
    fake_so = tmp_path / "fake.so"
    subprocess.run(["gcc", *_kernel.FLAGS, "-o", str(fake_so), str(fake_c), "-lm"],
                   check=True)
    body = fake_so.read_bytes()
    so.write_bytes(body + _kernel._seal("another key", body))
    assert not _kernel._verified(str(so), so.stem.split("-")[1])
    again = _result(_child(src))
    assert again["compiled"] and again["sealed"] and again["warnings"] == []
    assert again["dot"] == 3.0 and again["x"] == reference_x
    assert _cache_files(src) == [so.name]


@needs_gcc
def test_build_removes_libraries_of_other_keys(tmp_path, reference_x):
    src = _copy_package(tmp_path)
    old = Path(_result(_child(src))["path"]).name
    # A concurrent build's temporary file is never touched.
    busy = src / "vrlite" / "__pycache__" / "_kernel-busy.tmp"
    busy.write_bytes(b"")
    c_file = src / "vrlite" / "_kernel.c"
    c_file.write_text(c_file.read_text() + "\n/* edited */\n")
    r = _result(_child(src))
    new = Path(r["path"]).name
    assert r["compiled"] and r["sealed"] and r["x"] == reference_x
    assert new != old
    assert _cache_files(src) == sorted([new, busy.name])


def test_no_compiler_falls_back_with_one_warning_and_same_bits(tmp_path, reference_x):
    src = _copy_package(tmp_path)
    empty = tmp_path / "bin"
    empty.mkdir()
    r = _result(_child(src, path=str(empty)))
    assert not r["compiled"]
    assert len(r["warnings"]) == 1 and "gcc is not on PATH" in r["warnings"][0]
    assert r["x"] == reference_x
    assert not (src / "vrlite" / "__pycache__").exists() or _cache_files(src) == []
