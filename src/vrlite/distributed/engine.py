"""Distributed run driver: one central loop and one worker loop, over two
transports.

`run_distributed` holds the central loop. In sync mode it gathers the p
reports of a round, averages them with `central_sync_aggregate`, takes
the snapshot and applies the stop rule, then broadcasts the average. In
async mode it receives one delta at a time, folds it in with
`central_async_apply`, replies to the sender, and takes a snapshot after
every p applies. The worker loop is a generator: it runs a local epoch,
yields the report, and adopts the reply it is sent.

A transport moves reports and replies between the two:

- `_Sim` drives every worker generator in-process. Compute and message
  delivery advance a virtual clock, and whenever several reports are
  ready at the same instant a seeded scheduler picks the next one
  uniformly, so runs and their reported times are fully deterministic.
- `_Socket` gives each worker a thread that drives its generator over a
  localhost TCP connection. Every frame, on either side, is read by
  `protocol.read_message`. The central thread waits on all connections
  through one selector and reads one whole frame from each readable
  one: a worker sends one report and then blocks for the reply, so it
  never has more than one frame in flight. On exit the central
  half-closes every connection, reads each to its end, joins every
  worker thread, and re-raises the first worker exception as the cause
  of a RuntimeError.

Both modes bootstrap identically: one plain-SGD epoch over worker 0's
shard initializes (x, x_bar, g_bar), which is broadcast to every worker
before the first distributed epoch. Epoch 1 in the snapshot log is that
bootstrap; epoch k >= 2 closes after each worker has contributed its
(k-1)-th distributed epoch. One stop rule holds at every snapshot: a
non-finite central iterate ends the run flagged diverged, and a true
`stop_when(snapshot)` ends it early. A stopped run ends without a last
broadcast.
"""

from __future__ import annotations

import math
import selectors
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..model import Dataset, LossModel
from ..optim import epoch_grad_evals, vrlite_init
from ..seeding import optimizer_rng, scheduler_rng, shard_rng
from .protocol import (
    DecodeError,
    MessageTag,
    ProtocolMessage,
    encode_handshake,
    encode_message,
    read_handshake,
    read_message,
)
from .runtime import (
    CentralState,
    adopt_global_state,
    central_async_apply,
    central_async_state,
    central_sync_aggregate,
    central_sync_state,
    init_worker,
    shard_dataset,
    worker_async_epoch,
    worker_sync_epoch,
)

MODES = ("sync", "async")
TRANSPORTS = ("sim", "socket")

_SOCKET_TIMEOUT = 60.0


@dataclass
class DistributedConfig:
    mode: str
    workers: int
    epochs: int
    eta: float
    seed: int
    transport: str = "sim"
    # The simulated clock: one gradient evaluation costs 1 ms divided by
    # the worker's speed, and every message hop adds latency ms.
    latency: float = 0.0
    speed: tuple[float, ...] | None = None  # per-worker speed multipliers (sim)
    accum_grad: str = "post"


@dataclass
class EpochSnapshot:
    """Central iterate at an epoch boundary plus the clock reading:
    virtual ms under the simulated transport; under sockets, wall ms
    since `run_distributed` was entered, the bootstrap epoch included."""

    epoch: int
    clock_ms: float
    x: np.ndarray


@dataclass
class DistributedResult:
    x: np.ndarray
    x_bar: np.ndarray
    g_bar: np.ndarray
    central: CentralState
    workers: list
    snapshots: list[EpochSnapshot] = field(default_factory=list)
    diverged: bool = False


def _validate(cfg: DistributedConfig, n: int):
    if cfg.mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if cfg.transport not in TRANSPORTS:
        raise ValueError(f"transport must be one of {TRANSPORTS}")
    if cfg.workers < 1:
        raise ValueError("workers must be >= 1")
    if cfg.workers > n:
        raise ValueError(f"cannot run {cfg.workers} workers on {n} samples")
    if cfg.epochs < 1:
        raise ValueError("epochs must be >= 1")
    if not (cfg.latency >= 0 and math.isfinite(cfg.latency)):
        raise ValueError("latency must be finite and >= 0")
    if cfg.speed is not None:
        if len(cfg.speed) != cfg.workers:
            raise ValueError("speed must list one multiplier per worker")
        if not all(s > 0 and math.isfinite(s) for s in cfg.speed):
            raise ValueError("speed multipliers must be finite and > 0")


def run_distributed(model: LossModel, ds: Dataset, cfg: DistributedConfig,
                    stop_when: Callable[[EpochSnapshot], bool] | None = None,
                    ) -> DistributedResult:
    """Execute a distributed vrlite run to its epoch budget.

    stop_when is given each EpochSnapshot as it is taken; a true return
    ends the run early on either transport (bench records its rows this
    way). A non-finite central iterate always stops the run and flags it
    diverged. A worker fault under the socket transport ends the run
    with a RuntimeError whose __cause__ is the worker's exception.
    """
    t0 = time.perf_counter()
    _validate(cfg, len(ds))

    p = cfg.workers
    shards = shard_dataset(ds, p, shard_rng(cfg.seed))
    wrngs = [optimizer_rng(cfg.seed, s) for s in range(p)]

    boot = vrlite_init(model, shards[0].dataset, cfg.eta, wrngs[0],
                       cfg.accum_grad)
    workers = [init_worker(s, boot.x, boot.averages.x_bar, boot.averages.g_bar)
               for s in range(p)]
    if cfg.mode == "sync":
        central = central_sync_state(boot.x, boot.averages.x_bar,
                                     boot.averages.g_bar, p)
    else:
        central = central_async_state(ds.dimension, p)

    def worker_loop(w):
        s = w.worker_id
        step = worker_sync_epoch if cfg.mode == "sync" else worker_async_epoch
        for _ in range(2, cfg.epochs + 1):
            w, msg = step(w, shards[s], model, cfg.eta, wrngs[s], cfg.accum_grad)
            workers[s] = w
            reply = yield msg
            workers[s] = w = adopt_global_state(w, reply)

    if cfg.transport == "sim":
        link = _Sim(cfg, shards, [worker_loop(w) for w in workers])
    else:
        hello = ProtocolMessage(MessageTag.GLOBAL_STATE, 0, 1, boot.x,
                                boot.averages.x_bar, boot.averages.g_bar)
        link = _Socket(cfg, worker_loop, hello, t0)

    snapshots: list[EpochSnapshot] = []
    diverged = False

    def stop(epoch: int, x: np.ndarray) -> bool:
        nonlocal diverged
        snapshots.append(EpochSnapshot(epoch, link.clock(), x.copy()))
        diverged = not np.isfinite(x).all()
        return diverged or (stop_when is not None and stop_when(snapshots[-1]))

    if not stop(1, boot.x) and cfg.epochs > 1:
        try:
            link.open()
            if cfg.mode == "sync":
                for epoch in range(2, cfg.epochs + 1):
                    gmsg = central_sync_aggregate(link.gather(), p)
                    central.x[:] = gmsg.v1
                    central.x_bar[:] = gmsg.v2
                    central.g_bar[:] = gmsg.v3
                    central.reports_seen += 1
                    if stop(epoch, central.x):
                        break
                    link.broadcast(gmsg)
            else:
                for k in range(1, p * (cfg.epochs - 1) + 1):
                    key, msg = link.recv()
                    _, reply = central_async_apply(central, msg)
                    link.send(key, reply)
                    if k % p == 0 and stop(1 + k // p, central.x):
                        break
        finally:
            link.close()

    return DistributedResult(x=central.x.copy(), x_bar=central.x_bar.copy(),
                             g_bar=central.g_bar.copy(), central=central,
                             workers=workers, snapshots=snapshots,
                             diverged=diverged)


class _Sim:
    """In-process transport on a virtual clock. A worker's report lands
    one local epoch of compute plus one latency hop after the worker
    received its last state."""

    def __init__(self, cfg: DistributedConfig, shards, loops):
        p = cfg.workers
        speed = tuple(cfg.speed) if cfg.speed is not None else (1.0,) * p
        accum = cfg.accum_grad
        self.cost = [epoch_grad_evals("vrlite", len(sh.dataset), accum, False) / speed[s]
                     for s, sh in enumerate(shards)]
        self.latency = cfg.latency
        # The bootstrap epoch on worker 0, then its broadcast hop.
        boot = epoch_grad_evals("vrlite", len(shards[0].dataset), accum, True)
        self.now = boot / speed[0] + cfg.latency
        self.srng = scheduler_rng(cfg.seed)
        self.loops = loops
        self.pending: list[list] = []  # [ready_time, worker, report] in flight

    def clock(self) -> float:
        return self.now

    def open(self):
        self.broadcast(None)  # start every worker on the bootstrap state

    def close(self):
        pass

    def _deliver(self, s: int, reply, arrival: float):
        try:
            msg = self.loops[s].send(reply)
        except StopIteration:
            return
        self.pending.append([arrival + self.cost[s] + self.latency, s, msg])

    def gather(self) -> list[ProtocolMessage]:
        # The round closes when the slowest report arrives; the
        # broadcast hop that follows is counted with it.
        reports = [msg for _, _, msg in self.pending]
        self.pending.clear()
        self.now += max(self.cost) + 2.0 * self.latency
        return reports

    def broadcast(self, msg: ProtocolMessage):
        for s in range(len(self.loops)):
            self._deliver(s, msg, self.now)

    def recv(self) -> tuple[int, ProtocolMessage]:
        tmin = min(item[0] for item in self.pending)
        tied = [k for k, item in enumerate(self.pending) if item[0] == tmin]
        choice = (tied[int(self.srng.integers(len(tied)))] if len(tied) > 1
                  else tied[0])
        ready, s, msg = self.pending.pop(choice)
        self.now = max(self.now, ready)
        return s, msg

    def send(self, s: int, msg: ProtocolMessage):
        self._deliver(s, msg, self.now + self.latency)


class _Socket:
    """Localhost TCP transport. Each worker thread owns its connection
    and drives its worker generator; the central thread serializes every
    state change and reads all connections through one selector."""

    def __init__(self, cfg: DistributedConfig, worker_loop, hello, t0: float):
        self.p = cfg.workers
        self.d = hello.v1.shape[0]
        self.reports = cfg.epochs - 1  # frames each worker sends in a full run
        self.worker_loop = worker_loop
        self.hello = hello
        self.t0 = t0
        self.threads: list[threading.Thread] = []
        self.conns: list[socket.socket] = []
        self.errors: list[Exception] = []
        self.inbox: list[tuple[int, ProtocolMessage]] = []

    def clock(self) -> float:
        return (time.perf_counter() - self.t0) * 1000.0

    def _worker(self, s: int, port: int):
        try:
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=_SOCKET_TIMEOUT) as conn:
                conn.sendall(encode_handshake(self.d))
                hello = read_message(conn.recv, self.d)
                if hello is None:
                    return
                loop = self.worker_loop(init_worker(s, hello.v1, hello.v2,
                                                    hello.v3))
                reply = None
                while True:
                    try:
                        msg = loop.send(reply)
                    except StopIteration:
                        return
                    conn.sendall(encode_message(msg))
                    reply = read_message(conn.recv, self.d)
                    if reply is None:  # the central ended the run
                        return
        except Exception as exc:  # re-raised as the run's cause by close()
            self.errors.append(exc)

    def open(self):
        self.selector = selectors.DefaultSelector()
        self.frames = [0] * self.p
        with socket.create_server(("127.0.0.1", 0)) as listener:
            listener.settimeout(_SOCKET_TIMEOUT)
            port = listener.getsockname()[1]
            for s in range(self.p):
                t = threading.Thread(target=self._worker, args=(s, port),
                                     daemon=True)
                t.start()
                self.threads.append(t)
            # Accept every worker before judging any handshake: raising
            # while workers still connect would close the listener on
            # them, and their refused connects would then be reported in
            # place of the DecodeError.
            for _ in range(self.p):
                conn, _addr = listener.accept()
                conn.settimeout(_SOCKET_TIMEOUT)
                self.conns.append(conn)
        hello = encode_message(self.hello)
        for i, conn in enumerate(self.conns):
            if read_handshake(conn.recv) != self.d:
                raise DecodeError("handshake dimension disagrees with "
                                  "dataset", offset=5)
            conn.sendall(hello)
            self.selector.register(conn, selectors.EVENT_READ, i)

    def _pump(self):
        """Wait until some connection is readable and read one frame from
        each that is. A worker sends one report and then blocks for the
        reply, so a connection never holds more than that one frame (or
        the worker's hang-up) and nothing is left buffered between calls."""
        events = self.selector.select(_SOCKET_TIMEOUT)
        if not events:
            raise TimeoutError(f"no worker message in {_SOCKET_TIMEOUT:g} s")
        for key, _ in events:
            i = key.data
            msg = read_message(key.fileobj.recv, self.d)
            if msg is None:
                self.selector.unregister(key.fileobj)
                if self.frames[i] < self.reports:
                    raise RuntimeError(f"worker connection {i} closed "
                                       "before its last report")
            else:
                self.inbox.append((i, msg))
                self.frames[i] += 1

    def recv(self) -> tuple[int, ProtocolMessage]:
        while not self.inbox:
            self._pump()
        return self.inbox.pop(0)

    def send(self, i: int, msg: ProtocolMessage):
        self.conns[i].sendall(encode_message(msg))

    def gather(self) -> list[ProtocolMessage]:
        # Each worker sends one report and then waits for the broadcast,
        # so the next p frames are one round.
        return [self.recv()[1] for _ in range(self.p)]

    def broadcast(self, msg: ProtocolMessage):
        frame = encode_message(msg)
        for conn in self.conns:
            conn.sendall(frame)

    def close(self):
        # After the half-close each worker sees EOF and hangs up; reading
        # to that end leaves no worker blocked in a send nobody reads.
        for conn in self.conns:
            try:
                conn.shutdown(socket.SHUT_WR)
                while conn.recv(1 << 16):
                    pass
            except OSError:
                pass  # the worker side is already gone
        for t in self.threads:
            t.join()
        for conn in self.conns:
            conn.close()
        self.selector.close()
        if self.errors:
            raise RuntimeError(f"distributed run aborted: "
                               f"{self.errors[0]!r}") from self.errors[0]
