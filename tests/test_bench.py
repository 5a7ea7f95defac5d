import csv
import io
import os
from dataclasses import replace

import numpy as np
import pytest

import vrlite.bench as bench
import vrlite.optim as optim
from vrlite.bench import (
    CSV_HEADER,
    DEFAULT_GRID,
    ExperimentConfig,
    MetricsRow,
    epochs_to_target,
    load_dataset,
    render_csv,
    run_experiment,
    stepsize_sweep,
    write_csv,
)
from vrlite.data import (
    SyntheticSpec,
    format_libsvm,
    gen_gaussian_classification,
    gen_linear_regression,
)
from vrlite.model import full_gradient, objective


def _cfg(**kw):
    base = dict(algo="vrlite", dataset="toy-class", eta=0.05, epochs=5, seed=0)
    base.update(kw)
    return ExperimentConfig(**base)


# ------------------------------------------------------------- validation


def test_config_validation():
    good = _cfg()
    good.validate()
    bad = [
        _cfg(algo="adam"),
        _cfg(mode="mesh"),
        _cfg(transport="udp"),
        _cfg(algo="sgd", mode="sync"),       # distributed is vrlite-only
        _cfg(mode="sync", workers=0),
        _cfg(mode="seq", workers=2),
        _cfg(epochs=-1),
        _cfg(seed=-1),
        _cfg(latency_ms=-0.5),
        _cfg(latency_ms=float("nan")),
        _cfg(latency_ms=float("inf")),
        _cfg(lam=-1.0),
        _cfg(lam=float("inf")),
        _cfg(dataset="mnist"),
        _cfg(accum_grad="bogus"),
        _cfg(target_rel=float("nan")),
        _cfg(target_rel=float("inf")),
        _cfg(target_rel=0.0),
        _cfg(target_rel=-1.0),
        _cfg(stop_at_rel=float("nan")),
        _cfg(stop_at_rel=float("inf")),
        _cfg(stop_at_rel=0.0),
        _cfg(stop_at_rel=-1.0),
    ]
    for cfg in bad:
        with pytest.raises(ValueError):
            cfg.validate()
    _cfg(target_rel=1e-300, stop_at_rel=1e-300).validate()


def test_run_requires_eta():
    with pytest.raises(ValueError, match="eta"):
        run_experiment(_cfg(eta=None))


def test_load_dataset_picks_matching_loss():
    ds, m = load_dataset(_cfg(dataset="toy-class"))
    assert ds.task == "classification" and m.kind == "logistic"
    ds, m = load_dataset(_cfg(dataset="toy-reg"))
    assert ds.task == "regression" and m.kind == "ridge"
    assert len(ds) == 5000 and ds.dimension == 20


def test_load_dataset_libsvm(tmp_path, tiny_class):
    src = tiny_class[0]
    path = tmp_path / "data.libsvm"
    path.write_text(format_libsvm(src))
    ds, m = load_dataset(_cfg(dataset=f"libsvm:{path}"))
    assert m.kind == "logistic"
    np.testing.assert_array_equal(ds.labels, src.labels)


def _fresh_toy(name, seed):
    if name == "toy-class":
        return gen_gaussian_classification(SyntheticSpec(
            n=bench.TOY_N, d=bench.TOY_D, task="classification", seed=seed))
    return gen_linear_regression(SyntheticSpec(
        n=bench.TOY_N, d=bench.TOY_D, task="regression", seed=seed))[0]


def _assert_same_toy(ds, fresh):
    assert ds.task == fresh.task
    for got, want in ((ds.features, fresh.features), (ds.labels, fresh.labels)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["toy-class", "toy-reg"])
def test_toy_dataset_is_built_once_and_read_only(name):
    ds, _ = load_dataset(_cfg(dataset=name, seed=3))
    again, model = load_dataset(_cfg(dataset=name, seed=3, lam=0.5))
    assert again is ds and model.lam == 0.5
    _assert_same_toy(ds, _fresh_toy(name, 3))
    for arr in (ds.features, ds.labels):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        ds.features[:, 0] *= 2.0
    for arr in (ds.features, ds.labels):
        with pytest.raises(ValueError, match="WRITEABLE"):
            arr.flags.writeable = True
        assert not arr.flags.writeable
    _assert_same_toy(ds, _fresh_toy(name, 3))
    _assert_same_toy(load_dataset(_cfg(dataset=name, seed=3))[0], _fresh_toy(name, 3))


def test_toy_memo_never_shares_across_names_or_seeds():
    keys = [("toy-class", 0), ("toy-class", 1), ("toy-reg", 0), ("toy-reg", 1),
            ("toy-class", 0), ("toy-reg", 1)]  # evicted and kept entries alike
    for name, seed in keys:
        ds, _ = load_dataset(_cfg(dataset=name, seed=seed))
        _assert_same_toy(ds, _fresh_toy(name, seed))
    a, _ = load_dataset(_cfg(dataset="toy-class", seed=0))
    b, _ = load_dataset(_cfg(dataset="toy-class", seed=1))
    assert a is not b and not np.array_equal(a.features, b.features)


def test_libsvm_file_is_read_afresh_on_every_load(tmp_path, tiny_class, tiny_ridge):
    path = tmp_path / "data.libsvm"
    path.write_text(format_libsvm(tiny_class[0]))
    cfg = _cfg(dataset=f"libsvm:{path}")
    first, m1 = load_dataset(cfg)
    path.write_text(format_libsvm(tiny_ridge[0]))
    second, m2 = load_dataset(cfg)
    assert (m1.kind, m2.kind) == ("logistic", "ridge")
    np.testing.assert_array_equal(first.labels, tiny_class[0].labels)
    np.testing.assert_array_equal(second.labels, tiny_ridge[0].labels)


# ------------------------------------------------------------------ rows


def test_zero_epochs_single_baseline_row():
    res = run_experiment(_cfg(epochs=0))
    assert len(res.rows) == 1
    r = res.rows[0]
    assert r.epoch == 0
    assert r.wall_ms == 0.0
    assert r.rel_grad_norm == 1.0
    assert not res.diverged


@pytest.mark.parametrize("algo,expected_walls", [
    ("vrlite", [0.0, 10000.0, 25000.0, 40000.0]),   # 2n bootstrap, then 3n
    ("sgd", [0.0, 10000.0, 20000.0, 30000.0]),      # 2n per pass
    ("svrg", [0.0, 25000.0, 50000.0, 75000.0]),     # n snapshot + 4n inner
    ("saga", [0.0, 10000.0, 15000.0, 20000.0]),     # n table init + n per pass
])
def test_virtual_wall_clock_per_algorithm(algo, expected_walls):
    res = run_experiment(_cfg(algo=algo, dataset="toy-class", eta=1e-4,
                              epochs=3))
    assert [r.wall_ms for r in res.rows] == expected_walls
    assert [r.epoch for r in res.rows] == [0, 1, 2, 3]


@pytest.mark.parametrize("dataset", ["toy-class", "toy-reg"])
@pytest.mark.parametrize("accum", ["post", "reuse"])
def test_seq_csv_equals_one_worker_sync_sim(dataset, accum):
    """One sync worker at latency 0 runs the sequential trajectory on the
    same clock: both clocks charge `optim.epoch_grad_evals`, so the CSVs
    differ only in the mode column."""
    seq = run_experiment(_cfg(dataset=dataset, eta=1e-3, epochs=6,
                              accum_grad=accum))
    sim = run_experiment(_cfg(dataset=dataset, eta=1e-3, epochs=6,
                              accum_grad=accum, mode="sync"))
    assert {r.mode for r in sim.rows} == {"sync"}
    assert (render_csv([replace(r, mode="seq") for r in sim.rows])
            == render_csv(seq.rows))


def test_rows_record_config_fields():
    res = run_experiment(_cfg(algo="sgd", eta=0.01, epochs=2, seed=9))
    for r in res.rows:
        assert (r.algo, r.mode, r.workers, r.eta, r.seed) == (
            "sgd", "seq", 1, 0.01, 9)


def test_metrics_match_direct_evaluation(toy_class):
    ds, m = toy_class
    res = run_experiment(_cfg(algo="vrlite", eta=0.05, epochs=2))
    x0 = np.zeros(ds.dimension)
    norm0 = np.linalg.norm(full_gradient(m, ds, x0))
    assert res.rows[0].objective == pytest.approx(objective(m, ds, x0),
                                                  rel=1e-15)
    assert res.rows[0].rel_grad_norm == 1.0
    assert norm0 > 0


@pytest.mark.parametrize("algo,eta", [
    ("sgd", 10.0),
    ("svrg", 0.05),     # four finite epochs, then non-finite
    ("saga", 1.0),
    ("vrlite", 1.0),
], ids=["sgd", "svrg", "saga", "vrlite"])
def test_divergence_emits_no_nonfinite_rows(algo, eta):
    res = run_experiment(_cfg(algo=algo, dataset="toy-reg", eta=eta,
                              epochs=8))
    assert res.diverged
    for r in res.rows:
        assert np.isfinite(r.objective) and np.isfinite(r.rel_grad_norm)
    assert len(res.rows) < 9


@pytest.mark.parametrize("algo,eta", [
    ("sgd", 0.0032),
    ("svrg", 0.0128),
    ("saga", 0.0032),
    ("vrlite", 0.05),
], ids=["sgd", "svrg", "saga", "vrlite"])
def test_stop_at_rel_ends_early(algo, eta):
    full = run_experiment(_cfg(algo=algo, eta=eta, epochs=12))
    target = full.rows[-1].rel_grad_norm * 10
    stopped = run_experiment(_cfg(algo=algo, eta=eta, epochs=12,
                                  stop_at_rel=target))
    assert len(stopped.rows) < len(full.rows)
    assert stopped.rows[-1].rel_grad_norm <= target


EPOCH_FUNCS = ("vrlite_init", "vrlite_epoch", "sgd_epoch", "svrg_epoch",
               "saga_epoch", "saga_init")


@pytest.mark.parametrize("algo,expected", [
    ("vrlite", {"vrlite_init": 1, "vrlite_epoch": 2}),
    ("sgd", {"sgd_epoch": 3}),
    ("svrg", {"svrg_epoch": 3}),
    ("saga", {"saga_init": 1, "saga_epoch": 3}),
], ids=["vrlite", "sgd", "svrg", "saga"])
def test_epoch_functions_are_called_through_module_attributes(
        monkeypatch, algo, expected):
    """Per-layer tracing wraps the public epoch functions where the
    package holds them. The sequential driver must call them through
    vrlite.bench's attributes at call time, and no public epoch function
    may call another, or traced call counts would be skewed."""
    calls = dict.fromkeys(EPOCH_FUNCS, 0)
    active = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            assert not active, f"{name} called inside {active[-1]}"
            calls[name] += 1
            active.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                active.pop()
        return wrapper

    for name in EPOCH_FUNCS:
        wrapped = counting(name, getattr(optim, name))
        monkeypatch.setattr(optim, name, wrapped)
        monkeypatch.setattr(bench, name, wrapped)
    res = run_experiment(_cfg(algo=algo, eta=1e-3, epochs=3))
    assert [r.epoch for r in res.rows] == [0, 1, 2, 3]
    assert calls == {**dict.fromkeys(EPOCH_FUNCS, 0), **expected}


@pytest.mark.parametrize("mode", ["sync", "async"])
def test_distributed_metrics_are_computed_once_per_snapshot(monkeypatch, mode):
    """One metric pass per row, the reference norm taken from row 0's:
    the stop rule reads the row it has just recorded."""
    calls = []
    real = bench._objective_and_gradient

    def counting(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(bench, "_objective_and_gradient", counting)
    res = run_experiment(_cfg(mode=mode, workers=2, epochs=6, eta=0.05,
                              stop_at_rel=1e-300))
    assert [r.epoch for r in res.rows] == list(range(7))
    assert len(calls) == 7


def test_distributed_rows_come_from_snapshots():
    res = run_experiment(_cfg(mode="sync", workers=2, epochs=4, eta=0.05))
    assert [r.epoch for r in res.rows] == [0, 1, 2, 3, 4]
    assert res.rows[1].wall_ms > 0
    res_async = run_experiment(_cfg(mode="async", workers=2, epochs=4,
                                    eta=0.05))
    assert [r.epoch for r in res_async.rows] == [0, 1, 2, 3, 4]


def test_epochs_to_target_picks_first_row():
    rows = [MetricsRow("sgd", "seq", 1, e, 0.0, 0.0, rel, 0.1, 0)
            for e, rel in enumerate([1.0, 0.5, 0.05, 0.01, 0.02])]
    assert epochs_to_target(rows, 0.05) == 2
    assert epochs_to_target(rows, 1e-9) is None


# ------------------------------------------------------------------- csv


def test_render_csv_layout():
    rows = [MetricsRow("sgd", "seq", 1, 0, 0.0, 1.5, 1.0, 0.1, 0),
            MetricsRow("sgd", "seq", 1, 1, 2.5, 0.125, 0.25, 0.1, 0)]
    text = render_csv(rows)
    lines = text.split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[1] == "sgd,seq,1,0,0,1.5,1,0.10000000000000001,0"
    assert lines[2] == "sgd,seq,1,1,2.5,0.125,0.25,0.10000000000000001,0"
    assert text.endswith("\n") and lines[-1] == ""


def test_csv_survives_parse_with_full_precision():
    row = MetricsRow("vrlite", "seq", 1, 3, 12.0, 1.0 / 3.0,
                     7.213e-7, 0.0016, 4)
    text = render_csv([row])
    parsed = list(csv.DictReader(io.StringIO(text)))
    assert len(parsed) == 1
    back = parsed[0]
    assert float(back["objective"]) == row.objective
    assert float(back["rel_grad_norm"]) == row.rel_grad_norm
    assert float(back["eta"]) == row.eta
    assert int(back["epoch"]) == 3


def test_write_csv_is_atomic_and_clean(tmp_path):
    rows = [MetricsRow("sgd", "seq", 1, 0, 0.0, 1.0, 1.0, 0.1, 0)]
    path = tmp_path / "out.csv"
    write_csv(rows, path)
    assert path.read_text() == render_csv(rows)
    assert not os.path.exists(f"{path}.tmp")
    write_csv(rows + rows, path)  # overwrite in place
    assert path.read_text() == render_csv(rows + rows)


def test_write_csv_failure_leaves_no_temp_file(tmp_path, monkeypatch):
    rows = [MetricsRow("sgd", "seq", 1, 0, 0.0, 1.0, 1.0, 0.1, 0)]
    path = tmp_path / "out.csv"
    write_csv(rows, path)

    def failing_fsync(fd):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "fsync", failing_fsync)
    with pytest.raises(OSError, match="No space left"):
        write_csv(rows + rows, path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]
    assert path.read_text() == render_csv(rows)  # the old file is untouched


def test_repeated_runs_are_byte_identical(tmp_path):
    cfg_a = _cfg(algo="vrlite", eta=0.05, epochs=4,
                 out_path=str(tmp_path / "a.csv"))
    cfg_b = replace(cfg_a, out_path=str(tmp_path / "b.csv"))
    bench._toy.cache_clear()
    first = run_experiment(cfg_a)    # builds the toy set
    second = run_experiment(cfg_b)   # reuses it
    assert first.rows == second.rows
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_distributed_csv_byte_identical(tmp_path):
    for mode in ("sync", "async"):
        a = _cfg(mode=mode, workers=3, epochs=3, eta=0.05,
                 out_path=str(tmp_path / f"{mode}-a.csv"))
        b = replace(a, out_path=str(tmp_path / f"{mode}-b.csv"))
        run_experiment(a)
        run_experiment(b)
        assert (tmp_path / f"{mode}-a.csv").read_bytes() == \
            (tmp_path / f"{mode}-b.csv").read_bytes()


# ----------------------------------------------------------------- sweep


def test_default_grid_shape():
    assert len(DEFAULT_GRID) == 13
    assert DEFAULT_GRID[0] == 1e-4
    assert DEFAULT_GRID[-1] == pytest.approx(4096e-4)
    ratios = [b / a for a, b in zip(DEFAULT_GRID, DEFAULT_GRID[1:])]
    assert all(r == pytest.approx(2.0) for r in ratios)


def test_sweep_picks_fewest_epochs_then_smaller_eta():
    cfg = _cfg(algo="vrlite", eta=None, epochs=25, target_rel=1e-4)
    grid = (0.0128, 0.0256, 0.0512)
    sweep = stepsize_sweep(cfg, grid)
    assert sweep.best_eta in grid
    qualified = [o for o in sweep.outcomes
                 if not o.diverged and o.epochs_to_target is not None]
    assert qualified, "expected at least one stepsize to reach the target"
    best_epochs = min(o.epochs_to_target for o in qualified)
    winners = [o.eta for o in qualified if o.epochs_to_target == best_epochs]
    assert sweep.best_eta == min(winners)


def test_sweep_result_is_grid_order_invariant():
    cfg = _cfg(algo="vrlite", eta=None, epochs=20, target_rel=1e-3)
    grid = (0.0064, 0.0128, 0.0256)
    fwd = stepsize_sweep(cfg, grid)
    rev = stepsize_sweep(cfg, tuple(reversed(grid)))
    assert fwd.best_eta == rev.best_eta


def test_sweep_excludes_divergent_and_hopeless_points():
    cfg = _cfg(algo="sgd", dataset="toy-reg", eta=None, epochs=3,
               target_rel=1e-12)
    sweep = stepsize_sweep(cfg, (1e-9, 10.0))
    assert sweep.best_eta is None
    tiny, huge = sweep.outcomes
    assert tiny.epochs_to_target is None and not tiny.diverged
    assert huge.diverged


def _sweep_one_point_at_a_time(cfg, grid=DEFAULT_GRID):
    """The sweep as one run_experiment per grid point, each loading its
    dataset and drawing from its own stream, and the ran epoch counts."""
    outcomes, ran = [], []
    for eta in grid:
        res = run_experiment(replace(cfg, eta=eta, stop_at_rel=cfg.target_rel))
        outcomes.append(bench.EtaOutcome(
            eta, epochs_to_target(res.rows, cfg.target_rel), res.diverged,
            res.rows[-1].rel_grad_norm))
        ran.append(res.rows[-1].epoch + res.diverged)
    reached = [(o.epochs_to_target, o.eta) for o in outcomes
               if not o.diverged and o.epochs_to_target is not None]
    best = min(reached)[1] if reached else None
    return bench.SweepResult(best, cfg.target_rel, outcomes), ran


def _libsvm(tmp_path, ds):
    path = tmp_path / "data.libsvm"
    path.write_text(format_libsvm(ds))
    return f"libsvm:{path}"


def test_sweep_loads_its_dataset_once(monkeypatch, tmp_path, tiny_ridge):
    cfg = _cfg(dataset=_libsvm(tmp_path, tiny_ridge[0]), eta=None, epochs=30)
    want, _ = _sweep_one_point_at_a_time(cfg)
    assert any(o.diverged for o in want.outcomes)

    loads = []
    real = bench.load_dataset

    def counting(c):
        loads.append(c.dataset)
        return real(c)

    monkeypatch.setattr(bench, "load_dataset", counting)
    assert stepsize_sweep(cfg) == want
    assert loads == [cfg.dataset]


# 1e-4 misses the target within the budget and 1e6 diverges; a point in
# between stops early for every algorithm on both tiny sets. Six points
# fill one block of four lanes and part of a second.
EQUIVALENCE_GRID = (1e-4, 0.0064, 0.0256, 0.1024, 0.4096, 1e6)


@pytest.mark.parametrize("kernel", ["compiled", "python"])
@pytest.mark.parametrize("accum", ["post", "reuse"])
@pytest.mark.parametrize("problem", ["tiny_class", "tiny_ridge"])
@pytest.mark.parametrize("algo", ["sgd", "svrg", "vrlite", "saga"])
def test_sweep_equals_one_run_per_point(request, monkeypatch, tmp_path, algo,
                                        problem, accum, kernel):
    """Lock step (SGD, SVRG, vrlite) or one point at a time (SAGA), the
    sweep's outcomes are those of run_experiment at each stepsize."""
    if kernel == "python":
        monkeypatch.setattr(optim._kernel, "lib", None)
    elif optim._kernel.lib is None:
        pytest.skip("no compiled kernel")
    ds = request.getfixturevalue(problem)[0]
    cfg = _cfg(algo=algo, dataset=_libsvm(tmp_path, ds), eta=None, epochs=12,
               target_rel=1e-2, accum_grad=accum)
    want, _ = _sweep_one_point_at_a_time(cfg, EQUIVALENCE_GRID)
    kinds = {"diverged" if o.diverged else o.epochs_to_target is not None
             for o in want.outcomes}
    assert kinds == {"diverged", True, False}
    assert stepsize_sweep(cfg, EQUIVALENCE_GRID) == want


def test_lock_step_sweep_draws_each_order_once(monkeypatch):
    """One permutation per epoch of the longest-running point, where one
    run per point draws one per point-epoch."""
    draws = []
    real = optim.permutation

    def counting(n, rng):
        draws.append(n)
        return real(n, rng)

    monkeypatch.setattr(optim, "permutation", counting)
    cfg = _cfg(dataset="toy-reg", eta=None, epochs=30)
    want, ran = _sweep_one_point_at_a_time(cfg)
    assert len(draws) == sum(ran)
    draws.clear()
    assert stepsize_sweep(cfg) == want
    assert len(draws) == max(ran) < sum(ran)


def test_sweep_validates_grid():
    cfg = _cfg(eta=None)
    with pytest.raises(ValueError):
        stepsize_sweep(cfg, ())
    with pytest.raises(ValueError):
        stepsize_sweep(cfg, (0.1, -0.2))
    with pytest.raises(ValueError):
        stepsize_sweep(cfg, (float("nan"),))


def test_sweep_does_not_write_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    cfg = _cfg(algo="vrlite", eta=None, epochs=4, target_rel=1e-3,
               out_path=str(out))
    stepsize_sweep(cfg, (0.0128,))
    assert not out.exists()
