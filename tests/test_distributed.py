from dataclasses import fields

import numpy as np
import pytest

from vrlite.data import SyntheticSpec, gen_gaussian_classification
from vrlite.model import Dataset, LossModel
from vrlite.optim import EpochAverages, OptState, vrlite_epoch
from vrlite.distributed.protocol import MessageTag, ProtocolMessage
from vrlite.distributed.runtime import (
    ProtocolError,
    WorkerState,
    central_async_apply,
    central_async_state,
    central_sync_aggregate,
    central_sync_state,
    init_worker,
    adopt_global_state,
    shard_dataset,
    worker_async_epoch,
    worker_sync_epoch,
)
from vrlite.seeding import optimizer_rng, shard_rng


@pytest.fixture(scope="module")
def small_problem():
    ds = gen_gaussian_classification(
        SyntheticSpec(n=48, d=4, task="classification", seed=5))
    return ds, LossModel("logistic", 1e-4)


def _msg(tag, worker_id, epoch, v1, v2, v3):
    return ProtocolMessage(tag, worker_id, epoch, np.asarray(v1, float),
                           np.asarray(v2, float), np.asarray(v3, float))


# ---------------------------------------------------------------- sharding


def test_shard_sizes_differ_by_at_most_one():
    ds = Dataset(np.arange(20.0).reshape(10, 2), np.arange(10.0), "regression")
    shards = shard_dataset(ds, 3, shard_rng(0))
    assert [len(s.dataset) for s in shards] == [4, 3, 3]


def test_single_shard_is_the_dataset_in_order(small_problem):
    ds, _ = small_problem
    (shard,) = shard_dataset(ds, 1, shard_rng(123))
    assert shard.worker_id == 0
    np.testing.assert_array_equal(shard.indices, np.arange(len(ds)))
    np.testing.assert_array_equal(shard.dataset.features, ds.features)
    np.testing.assert_array_equal(shard.dataset.labels, ds.labels)


@pytest.mark.parametrize("p", [2, 3, 7])
def test_shards_are_disjoint_and_cover(small_problem, p):
    ds, _ = small_problem
    shards = shard_dataset(ds, p, shard_rng(9))
    all_idx = np.concatenate([s.indices for s in shards])
    assert sorted(all_idx.tolist()) == list(range(len(ds)))
    sizes = [len(s.dataset) for s in shards]
    assert max(sizes) - min(sizes) <= 1
    for s in shards:
        np.testing.assert_array_equal(s.dataset.features,
                                      ds.features[s.indices])


def test_shard_validation(small_problem):
    ds, _ = small_problem
    with pytest.raises(ValueError):
        shard_dataset(ds, 0, shard_rng(0))
    with pytest.raises(ValueError):
        shard_dataset(ds, len(ds) + 1, shard_rng(0))


def test_sharding_is_seed_deterministic(small_problem):
    ds, _ = small_problem
    a = shard_dataset(ds, 4, shard_rng(7))
    b = shard_dataset(ds, 4, shard_rng(7))
    for sa, sb in zip(a, b):
        np.testing.assert_array_equal(sa.indices, sb.indices)


# ------------------------------------------------------------ worker side


def test_init_worker_copies_broadcast_and_zeroes_baselines():
    x = np.array([1.0, 2.0])
    xb = np.array([3.0, 4.0])
    gb = np.array([5.0, 6.0])
    w = init_worker(2, x, xb, gb)
    assert w.worker_id == 2 and w.epoch == 1
    np.testing.assert_array_equal(w.x, x)
    np.testing.assert_array_equal(w.averages.x_bar, xb)
    np.testing.assert_array_equal(w.averages.g_bar, gb)
    np.testing.assert_array_equal(w.last_reported_x, np.zeros(2))
    x[0] = -1.0  # broadcast buffer reuse must not leak into the worker
    assert w.x[0] == 1.0


def test_worker_rejects_foreign_shard(small_problem):
    ds, m = small_problem
    shards = shard_dataset(ds, 2, shard_rng(0))
    w = init_worker(0, np.zeros(4), np.zeros(4), np.zeros(4))
    with pytest.raises(ProtocolError):
        worker_sync_epoch(w, shards[1], m, 0.01, optimizer_rng(0))
    with pytest.raises(ProtocolError):
        worker_async_epoch(w, shards[1], m, 0.01, optimizer_rng(0))


def test_sync_report_carries_local_values(small_problem):
    ds, m = small_problem
    (shard,) = shard_dataset(ds, 1, shard_rng(0))
    w = init_worker(0, np.zeros(4), np.zeros(4), np.zeros(4))
    new_w, msg = worker_sync_epoch(w, shard, m, 0.05, optimizer_rng(3))
    assert msg.tag == MessageTag.SYNC_REPORT
    assert msg.worker_id == 0
    assert msg.epoch == new_w.epoch == 2
    np.testing.assert_array_equal(msg.v1, new_w.x)
    np.testing.assert_array_equal(msg.v2, new_w.averages.x_bar)
    np.testing.assert_array_equal(msg.v3, new_w.averages.g_bar)


def test_first_async_report_is_the_full_local_values(small_problem):
    # Zero baselines make the first delta equal to the raw local values.
    ds, m = small_problem
    (shard,) = shard_dataset(ds, 1, shard_rng(0))
    w = init_worker(0, np.zeros(4), np.zeros(4), np.zeros(4))
    new_w, msg = worker_async_epoch(w, shard, m, 0.05, optimizer_rng(3))
    assert msg.tag == MessageTag.ASYNC_DELTA
    np.testing.assert_array_equal(msg.v1, new_w.x)
    np.testing.assert_array_equal(msg.v2, new_w.averages.x_bar)
    np.testing.assert_array_equal(msg.v3, new_w.averages.g_bar)


def test_async_deltas_telescope_to_current_values(small_problem):
    # Summing every delta a worker has sent reconstructs its latest
    # report exactly, which is what keeps the central mean consistent.
    ds, m = small_problem
    (shard,) = shard_dataset(ds, 1, shard_rng(0))
    w = init_worker(0, np.zeros(4), np.zeros(4), np.zeros(4))
    rng = optimizer_rng(11)
    total_dx = np.zeros(4)
    for _ in range(4):
        w, msg = worker_async_epoch(w, shard, m, 0.05, rng)
        total_dx += msg.v1
        # Simulate adopting some unrelated global state between reports;
        # baselines must keep tracking what was reported, not what was
        # adopted.
        reply = _msg(MessageTag.GLOBAL_STATE, 0, w.epoch,
                     w.x * 0.5, w.averages.x_bar * 0.5,
                     w.averages.g_bar * 0.5)
        np.testing.assert_allclose(total_dx, w.last_reported_x, atol=1e-12,
                                   rtol=0)
        w = adopt_global_state(w, reply)
    np.testing.assert_allclose(total_dx, w.last_reported_x, atol=1e-12,
                               rtol=0)


def test_adopt_global_state_replaces_triple_only(small_problem):
    w = init_worker(1, np.ones(3), np.full(3, 2.0), np.full(3, 3.0))
    w.last_reported_x = np.full(3, 9.0)
    msg = _msg(MessageTag.GLOBAL_STATE, 0, 5, [7, 7, 7], [8, 8, 8], [9, 9, 9])
    w2 = adopt_global_state(w, msg)
    np.testing.assert_array_equal(w2.x, [7, 7, 7])
    np.testing.assert_array_equal(w2.averages.x_bar, [8, 8, 8])
    np.testing.assert_array_equal(w2.averages.g_bar, [9, 9, 9])
    np.testing.assert_array_equal(w2.last_reported_x, [9, 9, 9])
    assert w2.epoch == w.epoch


def _assert_worker_state(w, want):
    """Every WorkerState field of w equals want's entry of that name."""
    assert {f.name for f in fields(WorkerState)} == want.keys()
    for name, value in want.items():
        got = getattr(w, name)
        if isinstance(value, EpochAverages):
            np.testing.assert_array_equal(got.x_bar, value.x_bar)
            np.testing.assert_array_equal(got.g_bar, value.g_bar)
        elif isinstance(value, np.ndarray):
            np.testing.assert_array_equal(got, value)
        else:
            assert got == value, name


@pytest.mark.parametrize("step", ["sync", "async", "adopt"])
def test_worker_transitions_set_every_field(small_problem, step):
    """Each transition builds a new WorkerState field by field. With a
    distinct value in every field, a field that is dropped, swapped or
    left stale shows."""
    ds, m = small_problem
    shard = shard_dataset(ds, 2, shard_rng(0))[1]
    old = WorkerState(
        worker_id=1,
        x=np.full(4, 0.1),
        averages=EpochAverages(np.full(4, 0.2), np.full(4, 0.3)),
        last_reported_x=np.full(4, 0.4),
        last_reported_x_bar=np.full(4, 0.5),
        last_reported_g_bar=np.full(4, 0.6),
        epoch=3,
    )
    kept = {name: getattr(old, name) for name in
            ("worker_id", "last_reported_x", "last_reported_x_bar",
             "last_reported_g_bar")}
    if step == "adopt":
        msg = _msg(MessageTag.GLOBAL_STATE, 0, 9, [7] * 4, [8] * 4, [9] * 4)
        want = dict(kept, x=msg.v1, averages=EpochAverages(msg.v2, msg.v3),
                    epoch=3)
        _assert_worker_state(adopt_global_state(old, msg), want)
        return
    ref = vrlite_epoch(OptState(old.x, old.averages), m, shard.dataset, 0.05,
                       optimizer_rng(7))
    want = dict(kept, x=ref.x, averages=ref.averages, epoch=4)
    if step == "async":
        want.update(last_reported_x=ref.x,
                    last_reported_x_bar=ref.averages.x_bar,
                    last_reported_g_bar=ref.averages.g_bar)
    epoch = {"sync": worker_sync_epoch, "async": worker_async_epoch}[step]
    new_w, _ = epoch(old, shard, m, 0.05, optimizer_rng(7))
    _assert_worker_state(new_w, want)


def test_adopt_global_state_validation():
    w = init_worker(0, np.zeros(2), np.zeros(2), np.zeros(2))
    with pytest.raises(ProtocolError):
        adopt_global_state(w, _msg(MessageTag.SYNC_REPORT, 0, 1,
                                   [0, 0], [0, 0], [0, 0]))
    with pytest.raises(ProtocolError):
        adopt_global_state(w, _msg(MessageTag.GLOBAL_STATE, 0, 1,
                                   [0, 0, 0], [0, 0, 0], [0, 0, 0]))
    with pytest.raises(ProtocolError):
        adopt_global_state(w, _msg(MessageTag.GLOBAL_STATE, 0, 1,
                                   [0, 0], [0, 0, 0], [0, 0]))
    with pytest.raises(ProtocolError):
        adopt_global_state(w, _msg(MessageTag.GLOBAL_STATE, 0, 1,
                                   [0, 0], [0, 0], [0]))


# ----------------------------------------------------------- central side


def test_sync_aggregate_hand_value():
    a = _msg(MessageTag.SYNC_REPORT, 0, 2, [2, 0], [4, 2], [1, 1])
    b = _msg(MessageTag.SYNC_REPORT, 1, 2, [0, 2], [0, 2], [3, 1])
    out = central_sync_aggregate([a, b], 2)
    assert out.tag == MessageTag.GLOBAL_STATE
    assert out.epoch == 2
    np.testing.assert_array_equal(out.v1, [1.0, 1.0])
    np.testing.assert_array_equal(out.v2, [2.0, 2.0])
    np.testing.assert_array_equal(out.v3, [2.0, 1.0])


def test_sync_aggregate_is_arrival_order_invariant():
    rng = np.random.default_rng(0)
    reports = [_msg(MessageTag.SYNC_REPORT, s, 3, rng.standard_normal(6),
                    rng.standard_normal(6), rng.standard_normal(6))
               for s in range(5)]
    base = central_sync_aggregate(reports, 5)
    for _ in range(10):
        shuffled = [reports[i] for i in rng.permutation(5)]
        out = central_sync_aggregate(shuffled, 5)
        np.testing.assert_array_equal(out.v1, base.v1)
        np.testing.assert_array_equal(out.v2, base.v2)
        np.testing.assert_array_equal(out.v3, base.v3)


def test_sync_aggregate_single_report_is_identity():
    r = _msg(MessageTag.SYNC_REPORT, 0, 4, [0.1, 0.2], [0.3, 0.4], [0.5, 0.6])
    out = central_sync_aggregate([r], 1)
    np.testing.assert_array_equal(out.v1, r.v1)
    np.testing.assert_array_equal(out.v2, r.v2)
    np.testing.assert_array_equal(out.v3, r.v3)


def test_sync_aggregate_protocol_errors():
    mk = lambda s, e=2: _msg(MessageTag.SYNC_REPORT, s, e, [0.0], [0.0], [0.0])
    with pytest.raises(ProtocolError, match="expected 2 reports"):
        central_sync_aggregate([mk(0)], 2)
    with pytest.raises(ProtocolError, match="duplicate"):
        central_sync_aggregate([mk(0), mk(0)], 2)
    with pytest.raises(ProtocolError, match="missing"):
        central_sync_aggregate([mk(0), mk(2)], 2)
    with pytest.raises(ProtocolError, match="span epochs"):
        central_sync_aggregate([mk(0), mk(1, e=3)], 2)
    with pytest.raises(ProtocolError, match="SYNC_REPORT"):
        central_sync_aggregate(
            [_msg(MessageTag.ASYNC_DELTA, 0, 2, [0.0], [0.0], [0.0])], 1)
    bad_dim = [mk(0), _msg(MessageTag.SYNC_REPORT, 1, 2, [0.0, 0.0],
                           [0.0, 0.0], [0.0, 0.0])]
    with pytest.raises(ProtocolError, match="dimension"):
        central_sync_aggregate(bad_dim, 2)


def test_async_apply_hand_value():
    c = central_async_state(2, 2)
    c.x[:] = [1.0, 1.0]
    c, reply = central_async_apply(
        c, _msg(MessageTag.ASYNC_DELTA, 1, 2, [2, 0], [4, 0], [0, 8]))
    np.testing.assert_array_equal(c.x, [2.0, 1.0])
    np.testing.assert_array_equal(c.x_bar, [2.0, 0.0])
    np.testing.assert_array_equal(c.g_bar, [0.0, 4.0])
    assert reply.tag == MessageTag.GLOBAL_STATE
    assert reply.worker_id == 1 and reply.epoch == 2
    np.testing.assert_array_equal(reply.v1, c.x)
    assert c.reports_seen.tolist() == [0, 1]


def test_async_reply_vectors_are_frozen_copies():
    c = central_async_state(1, 1)
    c, reply = central_async_apply(
        c, _msg(MessageTag.ASYNC_DELTA, 0, 2, [1.0], [0.0], [0.0]))
    first = reply.v1.copy()
    central_async_apply(
        c, _msg(MessageTag.ASYNC_DELTA, 0, 3, [5.0], [0.0], [0.0]))
    np.testing.assert_array_equal(reply.v1, first)


def test_async_apply_validation():
    c = central_async_state(2, 2)
    with pytest.raises(ProtocolError):
        central_async_apply(c, _msg(MessageTag.SYNC_REPORT, 0, 2,
                                    [0, 0], [0, 0], [0, 0]))
    with pytest.raises(ProtocolError):
        central_async_apply(c, _msg(MessageTag.ASYNC_DELTA, 2, 2,
                                    [0, 0], [0, 0], [0, 0]))
    with pytest.raises(ProtocolError):
        central_async_apply(c, _msg(MessageTag.ASYNC_DELTA, 0, 2,
                                    [0], [0], [0]))


@pytest.mark.parametrize("epoch", [2, 4], ids=["replayed", "skipped"])
def test_async_apply_rejects_out_of_sequence_delta(epoch):
    """Worker 0 has sent its epoch-2 delta, so only epoch 3 is next. A
    replay of epoch 2 or a jump to epoch 4 is refused and leaves the
    central triple and the report counts exactly as they were."""
    c = central_async_state(2, 2)
    c, _ = central_async_apply(
        c, _msg(MessageTag.ASYNC_DELTA, 0, 2, [1, 2], [3, 4], [5, 6]))
    before = (c.x.copy(), c.x_bar.copy(), c.g_bar.copy(),
              c.reports_seen.copy())
    with pytest.raises(ProtocolError, match="expected 3"):
        central_async_apply(
            c, _msg(MessageTag.ASYNC_DELTA, 0, epoch, [1, 2], [3, 4], [5, 6]))
    for got, want in zip((c.x, c.x_bar, c.g_bar, c.reports_seen), before):
        np.testing.assert_array_equal(got, want)
    c, _ = central_async_apply(
        c, _msg(MessageTag.ASYNC_DELTA, 0, 3, [1, 2], [3, 4], [5, 6]))
    assert c.reports_seen.tolist() == [2, 0]


def test_async_central_equals_mean_of_latest_reports(small_problem):
    """After every worker's k-th report, the central triple equals the
    mean of the workers' k-th reported values, whatever the
    interleaving of applies in between."""
    ds, m = small_problem
    p = 3
    shards = shard_dataset(ds, p, shard_rng(1))
    boot_x = np.zeros(4)
    rng_master = np.random.default_rng(99)

    for trial in range(5):
        workers = [init_worker(s, boot_x, boot_x, boot_x) for s in range(p)]
        rngs = [optimizer_rng(7, worker=s) for s in range(p)]
        c = central_async_state(4, p)
        latest = [None] * p
        for round_no in range(3):
            # Each worker reports once per round, in a random order.
            for s in rng_master.permutation(p):
                s = int(s)
                workers[s], msg = worker_async_epoch(
                    workers[s], shards[s], m, 0.02, rngs[s])
                c, reply = central_async_apply(c, msg)
                workers[s] = adopt_global_state(workers[s], reply)
                latest[s] = (workers[s].last_reported_x,
                             workers[s].last_reported_x_bar,
                             workers[s].last_reported_g_bar)
            want_x = np.mean([t[0] for t in latest], axis=0)
            want_xb = np.mean([t[1] for t in latest], axis=0)
            want_gb = np.mean([t[2] for t in latest], axis=0)
            np.testing.assert_allclose(c.x, want_x, atol=1e-12, rtol=0)
            np.testing.assert_allclose(c.x_bar, want_xb, atol=1e-12, rtol=0)
            np.testing.assert_allclose(c.g_bar, want_gb, atol=1e-12, rtol=0)


def test_sync_round_trip_over_workers(small_problem):
    """One full synchronous round through the public pieces: local
    epochs, aggregate, broadcast adoption."""
    ds, m = small_problem
    p = 2
    shards = shard_dataset(ds, p, shard_rng(2))
    boot = np.zeros(4)
    workers = [init_worker(s, boot, boot, boot) for s in range(p)]
    rngs = [optimizer_rng(5, worker=s) for s in range(p)]
    reports = []
    for s in range(p):
        workers[s], msg = worker_sync_epoch(workers[s], shards[s], m, 0.02,
                                            rngs[s])
        reports.append(msg)
    out = central_sync_aggregate(reports, p)
    np.testing.assert_allclose(
        out.v1, 0.5 * (reports[0].v1 + reports[1].v1), atol=0, rtol=0)
    workers = [adopt_global_state(w, out) for w in workers]
    np.testing.assert_array_equal(workers[0].x, workers[1].x)
    np.testing.assert_array_equal(workers[0].averages.g_bar,
                                  workers[1].averages.g_bar)


def test_central_sync_state_tracks_broadcast():
    c = central_sync_state(np.ones(2), np.full(2, 2.0), np.full(2, 3.0), 4)
    np.testing.assert_array_equal(c.reports_seen, np.zeros(4))
    np.testing.assert_array_equal(c.x, [1.0, 1.0])
