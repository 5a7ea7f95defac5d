"""Worker and central-node state transitions.

Workers run local variance-reduced epochs over their shard. In the
synchronous protocol the central node waits for all p reports, averages
them (in worker-id order, so arrival order never matters), and
broadcasts the result. In the asynchronous protocol each worker sends
the change in (x, x_bar, g_bar) since its previous report; the central
node folds each delta in scaled by alpha = 1/p, one message at a time,
and replies with its current values to that worker only; p is the
length of the central state's per-worker report counts. Because every
worker's baseline starts at zero and the central accumulators also
start at zero, the central vectors always equal 1/p times the sum of
each worker's most recently reported values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..model import Dataset, LossModel
from ..optim import EpochAverages, _permuted_epoch
from .protocol import MessageTag, ProtocolMessage


class ProtocolError(ValueError):
    """A message sequence violated the protocol contract."""


@dataclass
class Shard:
    """One worker's slice of the dataset. indices maps shard rows back
    to rows of the parent dataset."""

    worker_id: int
    indices: np.ndarray
    dataset: Dataset


def shard_dataset(ds: Dataset, p: int, rng: np.random.Generator) -> list[Shard]:
    """Split ds into p near-equal shards of a random permutation.

    Shard sizes differ by at most one (earlier shards get the extra
    row). With p=1 the permutation is skipped so the single shard is
    the dataset itself, in its original order."""
    n = len(ds)
    if p < 1:
        raise ValueError("p must be >= 1")
    if p > n:
        raise ValueError(f"cannot split {n} samples across {p} workers")
    order = np.arange(n) if p == 1 else rng.permutation(n)
    parts = np.array_split(order, p)
    return [Shard(s, part, ds.subset(part)) for s, part in enumerate(parts)]


@dataclass
class WorkerState:
    """Local optimizer state plus the values of the previous report,
    which are the baseline for async deltas."""

    worker_id: int
    x: np.ndarray
    averages: EpochAverages
    last_reported_x: np.ndarray
    last_reported_x_bar: np.ndarray
    last_reported_g_bar: np.ndarray
    epoch: int


@dataclass
class CentralState:
    """Central node's view of the shared triple. The worker count p is
    len(reports_seen), and an async delta is folded in scaled by 1/p."""

    x: np.ndarray
    x_bar: np.ndarray
    g_bar: np.ndarray
    reports_seen: np.ndarray  # per-worker report counts


def init_worker(worker_id: int, x: np.ndarray, x_bar: np.ndarray,
                g_bar: np.ndarray) -> WorkerState:
    """Worker state right after the initial broadcast. The delta
    baselines start at zero, so a worker's first async report carries
    its full local values."""
    d = x.shape[0]
    return WorkerState(
        worker_id=worker_id,
        x=x.copy(),
        averages=EpochAverages(x_bar.copy(), g_bar.copy()),
        last_reported_x=np.zeros(d),
        last_reported_x_bar=np.zeros(d),
        last_reported_g_bar=np.zeros(d),
        epoch=1,
    )


def central_sync_state(x, x_bar, g_bar, p: int) -> CentralState:
    """Synchronous central state starts at the broadcast triple."""
    return CentralState(x.copy(), x_bar.copy(), g_bar.copy(),
                        reports_seen=np.zeros(p, dtype=np.int64))


def central_async_state(d: int, p: int) -> CentralState:
    """Asynchronous central state starts at zero vectors, matching the
    workers' zero delta baselines: after every worker has reported, the
    central triple is exactly the mean of the latest reports."""
    return central_sync_state(np.zeros(d), np.zeros(d), np.zeros(d), p)


def _local_epoch(w: WorkerState, shard: Shard, model: LossModel, eta: float,
                 rng: np.random.Generator, accum_grad: str):
    """One corrected epoch over the worker's own shard, in a fresh
    permutation, anchored at the worker's current (x_bar, g_bar)."""
    if w.worker_id != shard.worker_id:
        raise ProtocolError(f"worker {w.worker_id} given shard of "
                            f"worker {shard.worker_id}")
    st = _permuted_epoch(model, shard.dataset, w.x, eta, rng, accum_grad,
                         (w.averages.x_bar, w.averages.g_bar))
    return st.x, st.averages


def worker_sync_epoch(w: WorkerState, shard: Shard, model: LossModel, eta: float,
                      rng: np.random.Generator, accum_grad: str = "post",
                      ) -> tuple[WorkerState, ProtocolMessage]:
    """Run one local epoch over the shard and report the resulting
    (x, x_bar, g_bar). Averages are over the shard's own length."""
    x, averages = _local_epoch(w, shard, model, eta, rng, accum_grad)
    new_w = WorkerState(
        worker_id=w.worker_id,
        x=x,
        averages=averages,
        last_reported_x=w.last_reported_x,
        last_reported_x_bar=w.last_reported_x_bar,
        last_reported_g_bar=w.last_reported_g_bar,
        epoch=w.epoch + 1,
    )
    msg = ProtocolMessage(MessageTag.SYNC_REPORT, w.worker_id, new_w.epoch,
                          x, averages.x_bar, averages.g_bar)
    return new_w, msg


def worker_async_epoch(w: WorkerState, shard: Shard, model: LossModel, eta: float,
                       rng: np.random.Generator, accum_grad: str = "post",
                       ) -> tuple[WorkerState, ProtocolMessage]:
    """Run one local epoch and report deltas against the previous
    report. The locally computed values become the new baseline before
    the central reply replaces the working copies."""
    x, averages = _local_epoch(w, shard, model, eta, rng, accum_grad)
    dx = x - w.last_reported_x
    dxb = averages.x_bar - w.last_reported_x_bar
    dgb = averages.g_bar - w.last_reported_g_bar
    new_w = WorkerState(
        worker_id=w.worker_id,
        x=x,
        averages=averages,
        last_reported_x=x,
        last_reported_x_bar=averages.x_bar,
        last_reported_g_bar=averages.g_bar,
        epoch=w.epoch + 1,
    )
    msg = ProtocolMessage(MessageTag.ASYNC_DELTA, w.worker_id, new_w.epoch,
                          dx, dxb, dgb)
    return new_w, msg


def adopt_global_state(w: WorkerState, msg: ProtocolMessage) -> WorkerState:
    """Replace the worker's (x, x_bar, g_bar) with the broadcast or
    reply values. Delta baselines are untouched."""
    if msg.tag != MessageTag.GLOBAL_STATE:
        raise ProtocolError(f"expected GLOBAL_STATE, got {msg.tag!r}")
    if not msg.v1.shape == msg.v2.shape == msg.v3.shape == w.x.shape:
        raise ProtocolError("global state dimension does not match worker")
    return WorkerState(
        worker_id=w.worker_id,
        x=msg.v1,
        averages=EpochAverages(msg.v2, msg.v3),
        last_reported_x=w.last_reported_x,
        last_reported_x_bar=w.last_reported_x_bar,
        last_reported_g_bar=w.last_reported_g_bar,
        epoch=w.epoch,
    )


def central_sync_aggregate(reports: list[ProtocolMessage], p: int) -> ProtocolMessage:
    """Average p synchronized reports into a broadcast message.

    Sums run in worker-id order whatever the arrival order, so the
    result is exactly permutation-invariant. Missing, duplicate or
    out-of-round reports are protocol errors."""
    if len(reports) != p:
        raise ProtocolError(f"expected {p} reports, got {len(reports)}")
    by_id = {}
    for r in reports:
        if r.tag != MessageTag.SYNC_REPORT:
            raise ProtocolError(f"expected SYNC_REPORT, got {r.tag!r}")
        if r.worker_id in by_id:
            raise ProtocolError(f"duplicate report from worker {r.worker_id}")
        by_id[r.worker_id] = r
    if sorted(by_id) != list(range(p)):
        missing = sorted(set(range(p)) - set(by_id))
        raise ProtocolError(f"missing reports from workers {missing}")
    epochs = {r.epoch for r in reports}
    if len(epochs) != 1:
        raise ProtocolError(f"reports span epochs {sorted(epochs)}")
    d = by_id[0].v1.shape[0]
    x = np.zeros(d)
    x_bar = np.zeros(d)
    g_bar = np.zeros(d)
    for s in range(p):
        r = by_id[s]
        if r.v1.shape != (d,) or r.v2.shape != (d,) or r.v3.shape != (d,):
            raise ProtocolError(f"report from worker {s} has wrong dimension")
        x += r.v1
        x_bar += r.v2
        g_bar += r.v3
    return ProtocolMessage(MessageTag.GLOBAL_STATE, 0, epochs.pop(),
                           x / p, x_bar / p, g_bar / p)


def central_async_apply(c: CentralState, msg: ProtocolMessage,
                        ) -> tuple[CentralState, ProtocolMessage]:
    """Fold one delta into the central triple (scaled by 1/p) and
    build the reply for the reporting worker. The state is updated in
    place and returned; callers running concurrently must serialize
    calls. Reply vectors are copies, so later applies never mutate a
    reply already sent.

    A worker's k-th delta must carry epoch k + 1 (its first distributed
    epoch is 2). A replayed, duplicated or skipped delta would break the
    invariant that the central triple is the mean of the latest reports,
    so it is rejected before any state changes."""
    if msg.tag != MessageTag.ASYNC_DELTA:
        raise ProtocolError(f"expected ASYNC_DELTA, got {msg.tag!r}")
    p = len(c.reports_seen)
    if not 0 <= msg.worker_id < p:
        raise ProtocolError(f"worker id {msg.worker_id} out of range")
    if msg.v1.shape != c.x.shape:
        raise ProtocolError("delta dimension does not match central state")
    expected = int(c.reports_seen[msg.worker_id]) + 2
    if msg.epoch != expected:
        raise ProtocolError(f"delta from worker {msg.worker_id} carries epoch "
                            f"{msg.epoch}, expected {expected}")
    alpha = 1.0 / p
    c.x += alpha * msg.v1
    c.x_bar += alpha * msg.v2
    c.g_bar += alpha * msg.v3
    c.reports_seen[msg.worker_id] += 1
    reply = ProtocolMessage(MessageTag.GLOBAL_STATE, msg.worker_id, msg.epoch,
                            c.x.copy(), c.x_bar.copy(), c.g_bar.copy())
    return c, reply
