"""Localhost TCP transport, checked against the simulated transport."""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from vrlite.data import SyntheticSpec, gen_gaussian_classification
from vrlite.distributed import engine
from vrlite.distributed.engine import DistributedConfig, run_distributed
from vrlite.model import LossModel


@pytest.fixture(scope="module")
def prob():
    ds = gen_gaussian_classification(
        SyntheticSpec(n=48, d=4, task="classification", seed=5))
    return ds, LossModel("logistic", 1e-4)


def _cfg(transport, mode, p, epochs=4):
    return DistributedConfig(mode=mode, workers=p, epochs=epochs, eta=0.05,
                             seed=11, transport=transport)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_socket_sync_matches_sim(prob, p):
    """Synchronous rounds are order-independent, so the TCP run must land
    on exactly the simulated trajectory (the codec is bit-preserving)."""
    ds, m = prob
    sim = run_distributed(m, ds, _cfg("sim", "sync", p))
    sock = run_distributed(m, ds, _cfg("socket", "sync", p))
    assert not sock.diverged
    assert [s.epoch for s in sock.snapshots] == [s.epoch for s in sim.snapshots]
    for a, b in zip(sock.snapshots, sim.snapshots):
        np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(sock.x, sim.x)
    np.testing.assert_array_equal(sock.x_bar, sim.x_bar)
    np.testing.assert_array_equal(sock.g_bar, sim.g_bar)


def test_socket_sync_workers_share_final_state(prob):
    ds, m = prob
    res = run_distributed(m, ds, _cfg("socket", "sync", 2))
    for w in res.workers:
        np.testing.assert_array_equal(w.x, res.x)


@pytest.mark.parametrize("p", [2, 4])
def test_socket_async_completes_with_consistent_state(prob, p):
    """Arrival order over real sockets is nondeterministic, but the
    quiescent end state must still be the mean of the workers' final
    reports, with every round snapshotted."""
    ds, m = prob
    epochs = 5
    res = run_distributed(m, ds, _cfg("socket", "async", p, epochs=epochs))
    assert not res.diverged
    assert [s.epoch for s in res.snapshots] == list(range(1, epochs + 1))
    assert res.central.reports_seen.sum() == p * (epochs - 1)
    np.testing.assert_allclose(
        res.x, np.mean([w.last_reported_x for w in res.workers], axis=0),
        atol=1e-12, rtol=0)
    np.testing.assert_allclose(
        res.g_bar,
        np.mean([w.last_reported_g_bar for w in res.workers], axis=0),
        atol=1e-12, rtol=0)
    assert np.isfinite(res.x).all()


def test_socket_async_single_worker_matches_sim(prob):
    # With one worker there is no arrival-order ambiguity, so async over
    # TCP reproduces the simulated trajectory exactly.
    ds, m = prob
    sim = run_distributed(m, ds, _cfg("sim", "async", 1))
    sock = run_distributed(m, ds, _cfg("socket", "async", 1))
    for a, b in zip(sock.snapshots, sim.snapshots):
        np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(sock.x, sim.x)


def test_socket_clock_is_wall_time(prob):
    ds, m = prob
    res = run_distributed(m, ds, _cfg("socket", "sync", 2))
    clocks = [s.clock_ms for s in res.snapshots]
    # Every snapshot, the bootstrap included, reads one clock: real
    # milliseconds since run_distributed was entered.
    assert all(c >= 0.0 for c in clocks)
    assert clocks == sorted(clocks)


class _InjectedFault(RuntimeError):
    pass


@pytest.mark.parametrize("mode", ["sync", "async"])
def test_worker_fault_surfaces_promptly_with_its_cause(prob, monkeypatch, mode):
    ds, m = prob
    name = f"worker_{mode}_epoch"
    real = getattr(engine, name)
    fault = _InjectedFault("worker 1 failed on purpose")

    def faulty(w, *args, **kwargs):
        if w.worker_id == 1 and w.epoch == 3:  # its third local epoch
            raise fault
        return real(w, *args, **kwargs)

    monkeypatch.setattr(engine, name, faulty)
    before = set(threading.enumerate())
    t0 = time.monotonic()
    with pytest.raises(RuntimeError) as info:
        run_distributed(m, ds, _cfg("socket", mode, 2, epochs=8))
    assert time.monotonic() - t0 < 5.0
    assert info.value.__cause__ is fault
    assert set(threading.enumerate()) <= before


def test_async_socket_runs_leave_no_thread_alive(prob):
    ds, m = prob
    before = set(threading.enumerate())
    for _ in range(20):
        res = run_distributed(m, ds, _cfg("socket", "async", 2, epochs=5))
        assert set(threading.enumerate()) <= before
        assert res.central.reports_seen.tolist() == [4, 4]


def test_socket_demo_runs():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, str(root / "demos" / "socket_transport.py")],
                         cwd=root, env=env, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    assert "bit-identical" in out.stdout
