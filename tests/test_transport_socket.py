"""Localhost TCP transport, checked against the simulated transport."""

import struct
import threading
import time

import numpy as np
import pytest

from vrlite.data import SyntheticSpec, gen_gaussian_classification
from vrlite.distributed import engine
from vrlite.distributed.engine import DistributedConfig, run_distributed
from vrlite.distributed.protocol import DecodeError, MessageTag, ProtocolMessage
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


def _fails_promptly_with(error, run):
    before = set(threading.enumerate())
    t0 = time.monotonic()
    with pytest.raises(error) as info:
        run()
    assert time.monotonic() - t0 < 5.0
    assert set(threading.enumerate()) <= before
    return info


def test_rejected_handshake_reports_the_decode_error(prob, monkeypatch):
    """Every worker announces the wrong dimension. The central must
    report that, not a refused connection of a worker that was still
    connecting when the first handshake was judged."""
    ds, m = prob
    real = engine.encode_handshake
    monkeypatch.setattr(engine, "encode_handshake", lambda d: real(d + 1))
    info = _fails_promptly_with(
        DecodeError, lambda: run_distributed(m, ds, _cfg("socket", "sync", 3)))
    assert "handshake" in str(info.value)


def _corrupt(kind, msg, encode):
    """Frame for msg damaged in one way: a well-formed frame of
    dimension d - 1, a length prefix 24 bytes too long, or tag 7."""
    if kind == "short":
        return encode(ProtocolMessage(msg.tag, msg.worker_id, msg.epoch,
                                      msg.v1[:-1], msg.v2[:-1], msg.v3[:-1]))
    frame = bytearray(encode(msg))
    if kind == "long-prefix":
        struct.pack_into("<I", frame, 0, len(frame) - 4 + 24)
    else:
        frame[4] = 7
    return bytes(frame)


@pytest.mark.parametrize("kind", ["short", "long-prefix", "bad-tag"])
@pytest.mark.parametrize("mode", ["sync", "async"])
def test_malformed_report_fails_promptly(prob, monkeypatch, mode, kind):
    """Worker 1's second report (epoch 3) is damaged on the wire; the
    central rejects it with a DecodeError and no thread is left behind."""
    ds, m = prob
    real = engine.encode_message

    def encode(msg):
        if msg.tag != MessageTag.GLOBAL_STATE and (msg.worker_id, msg.epoch) == (1, 3):
            return _corrupt(kind, msg, real)
        return real(msg)

    monkeypatch.setattr(engine, "encode_message", encode)
    _fails_promptly_with(
        DecodeError, lambda: run_distributed(m, ds, _cfg("socket", mode, 2, epochs=8)))


def test_async_socket_runs_leave_no_thread_alive(prob):
    ds, m = prob
    before = set(threading.enumerate())
    for _ in range(20):
        res = run_distributed(m, ds, _cfg("socket", "async", 2, epochs=5))
        assert set(threading.enumerate()) <= before
        assert res.central.reports_seen.tolist() == [4, 4]

