"""Show that each output check rejects a wrong output.

    python3 perfbench/selftest.py

Each case takes a right output (a short real run of the program, or
sweep outcomes written out by hand), confirms that the check accepts it,
then perturbs it and confirms that the check rejects it. Exits 1 if a
check accepts a wrong output or rejects a right one.
"""

from __future__ import annotations

import copy
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import vrlite.bench as bench  # noqa: E402
import vrlite.distributed as distributed  # noqa: E402

import checks  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

SEED = 0


def expect(label, problems, wrong) -> bool:
    ok = bool(problems) == wrong
    verdict = "; ".join(problems) if problems else "accepted"
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}")
    return ok


def seq_run_cases(ds, f_star):
    """A perturbed objective, a wrong clock, a wrong epoch-0 row."""
    epochs = workloads.EPOCHS
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        path = os.path.join(tmp, "vrlite.csv")
        bench.run_experiment(bench.ExperimentConfig(
            algo="vrlite", dataset="toy-class", eta=workloads.ETA, epochs=epochs,
            seed=SEED, out_path=path))
        rows = checks.read_csv(path)
    kw = dict(algo="vrlite", mode="seq", workers=1, accum="post", eta=workloads.ETA,
              seed=SEED, epochs=epochs, n=len(ds), latency=0.0, f_star=f_star,
              converges=True)

    def perturbed(k, **fields):
        bad = copy.deepcopy(rows)
        for name, value in fields.items():
            setattr(bad[k], name, value)
        return checks.check_run(bad, **kw)

    return [
        expect("seq vrlite run", checks.check_run(rows, **kw), wrong=False),
        expect("final objective raised by 1e-8",
               perturbed(-1, objective=rows[-1].objective + 1e-8), wrong=True),
        expect("an objective 1e-11 below f*",
               perturbed(5, objective=f_star - 1e-11), wrong=True),
        expect("epoch-0 objective off by 1e-12",
               perturbed(0, objective=oracle.LOG2 + 1e-12), wrong=True),
        expect("one wall_ms off by one evaluation",
               perturbed(3, wall_ms=rows[3].wall_ms + 1.0), wrong=True),
    ]


def distributed_cases(ds, model, f_star):
    """A broken async invariant; a sync run that is not bit-identical."""
    def run(mode, epochs):
        return distributed.run_distributed(model, ds, distributed.DistributedConfig(
            mode=mode, workers=2, epochs=epochs, eta=workloads.ETA, seed=SEED))

    def value(x):
        return oracle.value(model.kind, ds.features, ds.labels, model.lam, x)

    res = run("async", 5)
    kw = dict(epochs=5, workers=2)
    right = checks.check_socket_async(res, final_value=value(res.x), **kw)
    broken = copy.deepcopy(res)
    broken.workers[1].last_reported_g_bar = broken.workers[1].last_reported_g_bar + 1e-9
    extra = copy.deepcopy(res)
    extra.central.reports_seen[0] += 1
    out = [
        expect("async run", right, wrong=False),
        expect("a worker's last g_bar report moved by 1e-9",
               checks.check_socket_async(broken, final_value=value(res.x), **kw), wrong=True),
        expect("one report too many",
               checks.check_socket_async(extra, final_value=value(res.x), **kw), wrong=True),
    ]

    sync, sim = run("sync", 20), run("sync", 20)
    kw = dict(epochs=20, f_star=f_star)
    nudged = copy.deepcopy(sync)
    nudged.snapshots[7].x[0] = np.nextafter(nudged.snapshots[7].x[0], np.inf)
    out += [
        expect("sync run", checks.check_socket_sync(sync, sim, final_value=value(sync.x),
                                                    **kw), wrong=False),
        expect("epoch-8 iterate one ulp off",
               checks.check_socket_sync(nudged, sim, final_value=value(sync.x), **kw),
               wrong=True),
    ]
    return out


def sweep_cases():
    """A best_eta that is not the fewest-epochs point."""
    O = bench.EtaOutcome
    outcomes = [O(1e-4, 15, False, 9e-7), O(2e-4, 8, False, 6e-7),
                O(4e-4, 8, False, 4e-7), O(8e-4, 9, False, 8e-7),
                O(1.6e-3, None, False, 3e-3), O(3.2e-3, None, True, 2e2)]

    def chosen(eta):
        return checks.check_selection(bench.SweepResult(eta, 1e-6, outcomes))

    return [
        expect("best_eta 2e-4 (8 epochs, smaller of a tie)", chosen(2e-4), wrong=False),
        expect("best_eta 4e-4 (the larger of a tie)", chosen(4e-4), wrong=True),
        expect("best_eta 1e-4 (15 epochs)", chosen(1e-4), wrong=True),
        expect("best_eta 3.2e-3 (diverged)", chosen(3.2e-3), wrong=True),
        expect("a point that stopped above the target",
               checks.check_outcome(O(8e-4, 9, False, 2e-6), 8e-4, 1e-6, 30), wrong=True),
    ]


def main() -> int:
    ds, model, f_star = workloads.dataset_with_optimum("toy-class", SEED)
    results = seq_run_cases(ds, f_star) + distributed_cases(ds, model, f_star) + sweep_cases()
    print(f"{sum(results)}/{len(results)} cases behave")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
