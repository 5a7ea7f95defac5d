import numpy as np
import pytest

from vrlite.data import SyntheticSpec, gen_gaussian_classification, gen_linear_regression
from vrlite.distributed.engine import DistributedConfig, run_distributed
from vrlite.distributed.protocol import MessageTag, ProtocolMessage
from vrlite.distributed.runtime import central_async_apply, central_async_state
from vrlite.model import LossModel
from vrlite.optim import vrlite_epoch, vrlite_init
from vrlite.seeding import optimizer_rng


@pytest.fixture(scope="module")
def prob():
    ds = gen_gaussian_classification(
        SyntheticSpec(n=48, d=4, task="classification", seed=5))
    return ds, LossModel("logistic", 1e-4)


@pytest.fixture(scope="module")
def reg_prob():
    ds, _ = gen_linear_regression(
        SyntheticSpec(n=48, d=4, task="regression", seed=6))
    return ds, LossModel("ridge", 1e-4)


def _cfg(**kw):
    base = dict(mode="sync", workers=1, epochs=5, eta=0.05, seed=0,
                transport="sim")
    base.update(kw)
    return DistributedConfig(**base)


def test_sync_single_worker_equals_sequential(prob):
    """With one worker the shard is the dataset in order and the worker
    consumes the sequential generator stream, so the distributed
    trajectory reproduces the sequential one exactly."""
    ds, m = prob
    epochs, eta, seed = 6, 0.05, 3
    res = run_distributed(m, ds, _cfg(mode="sync", workers=1, epochs=epochs,
                                      eta=eta, seed=seed))
    rng = optimizer_rng(seed)
    st = vrlite_init(m, ds, eta, rng)
    np.testing.assert_array_equal(res.snapshots[0].x, st.x)
    for k in range(2, epochs + 1):
        st = vrlite_epoch(st, m, ds, eta, rng)
        np.testing.assert_array_equal(res.snapshots[k - 1].x, st.x)
    np.testing.assert_array_equal(res.x, st.x)
    np.testing.assert_array_equal(res.x_bar, st.averages.x_bar)
    np.testing.assert_array_equal(res.g_bar, st.averages.g_bar)


@pytest.mark.parametrize("mode", ["sync", "async"])
def test_sim_runs_are_deterministic(prob, mode):
    ds, m = prob
    cfg = _cfg(mode=mode, workers=3, epochs=5, latency=2.5, seed=7)
    a = run_distributed(m, ds, cfg)
    b = run_distributed(m, ds, cfg)
    assert len(a.snapshots) == len(b.snapshots)
    for sa, sb in zip(a.snapshots, b.snapshots):
        assert sa.epoch == sb.epoch
        assert sa.clock_ms == sb.clock_ms
        np.testing.assert_array_equal(sa.x, sb.x)
    np.testing.assert_array_equal(a.x, b.x)


def test_sync_final_state_is_shared(prob):
    ds, m = prob
    res = run_distributed(m, ds, _cfg(mode="sync", workers=4, epochs=4))
    for w in res.workers:
        np.testing.assert_array_equal(w.x, res.x)
        np.testing.assert_array_equal(w.averages.x_bar, res.x_bar)
        np.testing.assert_array_equal(w.averages.g_bar, res.g_bar)


def test_async_central_ends_at_mean_of_last_reports(prob):
    ds, m = prob
    for p in (2, 3, 4):
        res = run_distributed(m, ds, _cfg(mode="async", workers=p, epochs=5))
        np.testing.assert_allclose(
            res.x, np.mean([w.last_reported_x for w in res.workers], axis=0),
            atol=1e-12, rtol=0)
        np.testing.assert_allclose(
            res.x_bar,
            np.mean([w.last_reported_x_bar for w in res.workers], axis=0),
            atol=1e-12, rtol=0)
        np.testing.assert_allclose(
            res.g_bar,
            np.mean([w.last_reported_g_bar for w in res.workers], axis=0),
            atol=1e-12, rtol=0)
        assert res.central.reports_seen.tolist() == [4] * p


@pytest.mark.parametrize("mode", ["sync", "async"])
def test_snapshots_cover_every_epoch(prob, mode):
    ds, m = prob
    res = run_distributed(m, ds, _cfg(mode=mode, workers=3, epochs=7))
    assert [s.epoch for s in res.snapshots] == list(range(1, 8))
    clocks = [s.clock_ms for s in res.snapshots]
    assert clocks == sorted(clocks)
    assert all(np.isfinite(s.x).all() for s in res.snapshots)


def test_sync_virtual_clock_arithmetic(prob):
    # n=48 over p=2 gives 24-sample shards. Bootstrap is one plain pass
    # over shard 0 (2 evals/sample), rounds are corrected passes
    # (3 evals/sample) plus two message hops.
    ds, m = prob
    lat = 5.0
    res = run_distributed(m, ds, _cfg(mode="sync", workers=2, epochs=3,
                                      latency=lat))
    boot = 24 * 2 + lat
    round_cost = 24 * 3 + 2 * lat
    assert [s.clock_ms for s in res.snapshots] == [
        boot, boot + round_cost, boot + 2 * round_cost]


def test_async_virtual_clock_arithmetic(prob):
    # Single async worker: the first report lands one compute plus one
    # hop after the bootstrap broadcast; each further round adds a
    # reply hop, a compute, and a report hop.
    ds, m = prob
    lat = 10.0
    res = run_distributed(m, ds, _cfg(mode="async", workers=1, epochs=4,
                                      latency=lat))
    boot = 48 * 2 + lat
    compute = 48 * 3
    t2 = boot + compute + lat
    t3 = t2 + compute + 2 * lat
    t4 = t3 + compute + 2 * lat
    assert [s.clock_ms for s in res.snapshots] == [boot, t2, t3, t4]


def test_speed_multiplier_scales_compute(prob):
    ds, m = prob
    res = run_distributed(m, ds, _cfg(mode="sync", workers=2, epochs=2,
                                      speed=(1.0, 2.0)))
    # Boot over shard 0 at unit speed; the round waits on the slower
    # worker (worker 0 at speed 1): max(72, 36) = 72.
    assert [s.clock_ms for s in res.snapshots] == [48.0, 120.0]
    faster = run_distributed(m, ds, _cfg(mode="sync", workers=2, epochs=2,
                                         speed=(2.0, 2.0)))
    assert [s.clock_ms for s in faster.snapshots] == [24.0, 60.0]


def test_uniform_speed_and_latency_scale_only_the_clock(prob):
    # Latency is counted in gradient evaluations: doubling every worker's
    # speed and halving the latency halves each clock reading and leaves
    # the schedule, and so every iterate, unchanged.
    ds, m = prob
    base = run_distributed(m, ds, _cfg(mode="async", workers=3, epochs=4,
                                       latency=5.0))
    fast = run_distributed(m, ds, _cfg(mode="async", workers=3, epochs=4,
                                       latency=2.5, speed=(2.0, 2.0, 2.0)))
    assert [s.clock_ms for s in fast.snapshots] == [
        s.clock_ms / 2 for s in base.snapshots]
    assert [s.x.tobytes() for s in fast.snapshots] == [
        s.x.tobytes() for s in base.snapshots]


def test_stop_when_ends_sim_runs_early(prob):
    ds, m = prob
    calls = []

    def stop(x):
        calls.append(len(calls))
        return len(calls) >= 3

    res = run_distributed(m, ds, _cfg(mode="sync", workers=2, epochs=10),
                          stop_when=stop)
    assert [s.epoch for s in res.snapshots] == [1, 2, 3]
    assert not res.diverged


@pytest.mark.parametrize("transport", ["sim", "socket"])
def test_stop_when_is_given_each_snapshot(prob, transport):
    ds, m = prob
    seen = []
    res = run_distributed(m, ds, _cfg(workers=2, epochs=4, transport=transport),
                          stop_when=lambda snap: seen.append(snap) or False)
    assert len(seen) == len(res.snapshots) == 4
    assert all(a is b for a, b in zip(seen, res.snapshots))


def _stop_on_call(k):
    calls = []

    def stop(x):
        calls.append(None)
        return len(calls) >= k
    return stop


@pytest.mark.parametrize("case", ["stop_when", "diverging"])
def test_socket_sync_stops_like_sim(prob, reg_prob, case):
    """Both transports share one stop rule, so a sync socket run that
    ends early, on stop_when or on a non-finite iterate, keeps exactly
    the simulator's snapshots."""
    if case == "stop_when":
        (ds, m), eta, stop = prob, 0.05, (lambda: _stop_on_call(3))
    else:
        (ds, m), eta, stop = reg_prob, 100.0, (lambda: None)
    sim, sock = [run_distributed(m, ds, _cfg(workers=2, epochs=12, eta=eta,
                                             transport=t), stop_when=stop())
                 for t in ("sim", "socket")]
    assert len(sim.snapshots) < 12
    assert sock.diverged == sim.diverged == (case == "diverging")
    assert [s.epoch for s in sock.snapshots] == [s.epoch for s in sim.snapshots]
    for a, b in zip(sock.snapshots, sim.snapshots):
        assert a.x.tobytes() == b.x.tobytes()
    assert sock.x.tobytes() == sim.x.tobytes()


@pytest.mark.parametrize("transport,mode", [
    ("sim", "sync"), ("sim", "async"), ("socket", "sync"), ("socket", "async")],
    ids=["sync", "async", "socket-sync", "socket-async"])
def test_divergence_flag_stops_the_run(reg_prob, transport, mode):
    ds, m = reg_prob
    res = run_distributed(m, ds, _cfg(mode=mode, workers=2, epochs=12,
                                      eta=100.0, transport=transport))
    assert res.diverged
    assert len(res.snapshots) < 12
    assert not np.isfinite(res.snapshots[-1].x).all()
    assert all(np.isfinite(s.x).all() for s in res.snapshots[:-1])


def test_config_validation(prob):
    ds, m = prob
    with pytest.raises(ValueError):
        run_distributed(m, ds, _cfg(mode="ring"))
    with pytest.raises(ValueError):
        run_distributed(m, ds, _cfg(transport="carrier-pigeon"))
    with pytest.raises(ValueError):
        run_distributed(m, ds, _cfg(workers=0))
    with pytest.raises(ValueError):
        run_distributed(m, ds, _cfg(workers=len(ds) + 1))
    with pytest.raises(ValueError):
        run_distributed(m, ds, _cfg(epochs=0))
    with pytest.raises(ValueError):
        run_distributed(m, ds, _cfg(latency=-1.0))
    with pytest.raises(ValueError):
        run_distributed(m, ds, _cfg(workers=2, speed=(1.0,)))
    with pytest.raises(ValueError):
        run_distributed(m, ds, _cfg(workers=1, speed=(0.0,)))
    # Non-finite settings would poison the virtual clock.
    for bad in (float("nan"), float("inf")):
        for kw in (dict(latency=bad),
                   dict(mode="async", workers=2, speed=(bad, 1.0))):
            with pytest.raises(ValueError, match="finite"):
                run_distributed(m, ds, _cfg(**kw))


def test_epoch_budget_of_one_is_bootstrap_only(prob):
    ds, m = prob
    res = run_distributed(m, ds, _cfg(mode="sync", workers=2, epochs=1))
    assert [s.epoch for s in res.snapshots] == [1]
    rng = optimizer_rng(0)
    # Shards of 48 split two ways: worker 0 holds the first 24 rows of
    # the seeded permutation; reproduce its bootstrap directly.
    from vrlite.distributed.runtime import shard_dataset
    from vrlite.seeding import shard_rng
    shards = shard_dataset(ds, 2, shard_rng(0))
    boot = vrlite_init(m, shards[0].dataset, 0.05, rng)
    np.testing.assert_array_equal(res.snapshots[0].x, boot.x)


def test_async_alpha_is_one_over_workers(prob):
    ds, m = prob
    res = run_distributed(m, ds, _cfg(mode="async", workers=4, epochs=2))
    assert len(res.central.reports_seen) == 4
    # One delta on a fresh 4-worker central state lands scaled by 1/4.
    v = np.random.default_rng(0).standard_normal(ds.dimension)
    c, _ = central_async_apply(central_async_state(ds.dimension, 4),
                               ProtocolMessage(MessageTag.ASYNC_DELTA, 1, 2, v, v, v))
    for got in (c.x, c.x_bar, c.g_bar):
        assert got.tobytes() == (0.25 * v).tobytes()
