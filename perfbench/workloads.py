"""The three workloads.

Each workload builds its inputs and reference values from the seed once
per process (in its constructor), then runs whole rounds. A round calls
the program's public entry points, times each call on the
drift-corrected clock, and checks every output. One operation is one
optimizer run: one sweep point, one method, or one transport/mode pair.

The program is reached only through module attributes looked up at call
time (``bench.run_experiment``, ``distributed.run_distributed``), so the
traced run sees every call.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

import vrlite.bench as bench
import vrlite.distributed as distributed
import vrlite.optim as optim
from vrlite.seeding import optimizer_rng

import checks
import oracle

EPOCHS = 10            # methods: per-run epoch budget, except SAGA
SAGA_EPOCHS = 25       # SAGA steps cost n evaluations per epoch, a third of vrlite's
ETA = 0.0032           # toy-class stepsize of the README
LATENCY_MS = 5.0       # methods: simulated message latency
SIM_WORKERS = 4
SWEEP_EPOCHS = 30
SWEEP_TARGET = 1e-6
SOCKET_WORKERS = 2
SOCKET_EPOCHS = 20

# methods: (algo, mode, accum_grad, epochs, must end within 1e-9 of f*)
METHOD_RUNS = (
    ("sgd", "seq", "post", EPOCHS, False),
    ("svrg", "seq", "post", EPOCHS, True),
    ("saga", "seq", "post", SAGA_EPOCHS, True),
    ("vrlite", "seq", "post", EPOCHS, True),
    ("vrlite", "seq", "reuse", EPOCHS, True),
    ("vrlite", "sync", "post", EPOCHS, False),
    ("vrlite", "async", "post", EPOCHS, False),
)


@dataclass
class Round:
    """Program time, gradient evaluations and verdicts of one round."""

    clock: object
    time: float = 0.0
    evals: int = 0
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    problems: list = field(default_factory=list)

    def call(self, fn, name: str, ops: int = 1):
        """Time one call into the program. If it raises, the ``ops``
        operations it stood for are attempted and failed; returns None."""
        t0 = self.clock.now()
        try:
            return fn()
        except Exception as exc:  # a raising operation is a failed one
            self.attempted += ops
            self.failed += ops
            self.problems.append(f"{name}: raised {exc!r}")
            return None
        finally:
            self.time += self.clock.now() - t0

    def judge(self, name: str, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.wrong += 1
            self.problems += [f"{name}: {p}" for p in problems]


def dataset_with_optimum(name: str, seed: int):
    ds, model = bench.load_dataset(
        bench.ExperimentConfig(algo="vrlite", dataset=name, seed=seed))
    return ds, model, oracle.optimum(model.kind, ds.features, ds.labels, model.lam)[1]


class Methods:
    """The paper's method comparison on toy-class, with CSV output."""

    name = "methods"
    datasets = ("toy-class",)
    reference = "python"

    def __init__(self, seed: int, outdir: str):
        self.seed, self.outdir = seed, outdir
        ds, _, self.f_star = dataset_with_optimum("toy-class", seed)
        self.n = len(ds)

    def round(self, r: Round):
        for algo, mode, accum, epochs, converges in METHOD_RUNS:
            name = f"{algo}-{mode}-{accum}"
            path = os.path.join(self.outdir, name + ".csv")
            workers = 1 if mode == "seq" else SIM_WORKERS
            latency = 0.0 if mode == "seq" else LATENCY_MS
            cfg = bench.ExperimentConfig(
                algo=algo, dataset="toy-class", eta=ETA, mode=mode,
                epochs=epochs, workers=workers, latency_ms=latency,
                seed=self.seed, out_path=path, accum_grad=accum)
            if r.call(lambda: bench.run_experiment(cfg), name) is None:
                continue
            r.evals += checks.run_evals(algo, mode, workers, accum, self.n, epochs)
            r.judge(name, checks.check_run(
                checks.read_csv(path), algo=algo, mode=mode, workers=workers,
                accum=accum, eta=ETA, seed=self.seed, epochs=epochs, n=self.n,
                latency=latency, f_star=self.f_star, converges=converges))


class SweepReg:
    """The paper's stepsize protocol: vrlite on toy-reg over the default
    grid with early stopping, then the winner's full-budget CSV run."""

    name = "sweep-reg"
    datasets = ("toy-reg",)
    reference = "python"

    def __init__(self, seed: int, outdir: str):
        self.seed, self.outdir = seed, outdir
        self.ds, self.model, self.f_star = dataset_with_optimum("toy-reg", seed)
        self.n = len(self.ds)
        self.cfg = bench.ExperimentConfig(
            algo="vrlite", dataset="toy-reg", epochs=SWEEP_EPOCHS, seed=seed,
            target_rel=SWEEP_TARGET)
        # Taken before a traced run wraps them, so the replay below is not traced.
        self._vrlite_init, self._vrlite_epoch = optim.vrlite_init, optim.vrlite_epoch
        self._diverged_at: dict[float, int] = {}

    def _epochs_run(self, o) -> int:
        """Epochs a sweep point executed: to the target, the full budget,
        or up to the first non-finite iterate, found here by replaying the
        run through the epoch API (once per stepsize and process)."""
        if not o.diverged:
            return o.epochs_to_target or SWEEP_EPOCHS
        if o.eta not in self._diverged_at:
            rng = optimizer_rng(self.seed)
            ds, model = self.ds, self.model
            with np.errstate(all="ignore"):
                st = self._vrlite_init(model, ds, o.eta, rng)
                k = 1
                while (k < SWEEP_EPOCHS and np.isfinite(st.x).all() and math.isfinite(
                        oracle.value(model.kind, ds.features, ds.labels, model.lam, st.x))):
                    st = self._vrlite_epoch(st, model, ds, o.eta, rng)
                    k += 1
            self._diverged_at[o.eta] = k
        return self._diverged_at[o.eta]

    def round(self, r: Round):
        grid = [1e-4 * 2.0 ** k for k in range(len(bench.DEFAULT_GRID))]
        sweep = r.call(lambda: bench.stepsize_sweep(self.cfg), "sweep", ops=len(grid))
        if sweep is None:
            r.attempted += 1   # the winner's re-run cannot run either
            r.failed += 1
            return
        for k, eta in enumerate(grid):
            if k >= len(sweep.outcomes):
                r.judge(f"eta={eta:g}", ["no outcome"])
                continue
            o = sweep.outcomes[k]
            r.evals += checks.run_evals("vrlite", "seq", 1, "post", self.n,
                                        self._epochs_run(o))
            r.judge(f"eta={eta:g}", checks.check_outcome(o, eta, SWEEP_TARGET,
                                                         SWEEP_EPOCHS))
        path = os.path.join(self.outdir, "winner.csv")
        if sweep.best_eta is not None:
            rerun = replace(self.cfg, eta=sweep.best_eta, out_path=path)
            if r.call(lambda: bench.run_experiment(rerun), "winner") is None:
                return
            r.evals += checks.run_evals("vrlite", "seq", 1, "post", self.n, SWEEP_EPOCHS)
        rows = checks.read_csv(path) if sweep.best_eta is not None else []
        r.judge("winner", checks.check_winner(
            sweep, rows, target=SWEEP_TARGET, budget=SWEEP_EPOCHS, f_star=self.f_star))


class DistSocket:
    """vrlite over localhost TCP with two worker threads, sync mode.

    The async socket run is left out: now and then it raises
    ``OSError(9, 'Bad file descriptor')`` from a reader thread that the
    engine leaves running while it closes the connections, and a failure
    that comes and goes cannot be counted the same way in every run."""

    name = "dist-socket"
    datasets = ("toy-class",)
    reference = "held"  # worker threads share the interpreter lock

    def __init__(self, seed: int, outdir: str):
        self.seed = seed
        self.ds, self.model, self.f_star = dataset_with_optimum("toy-class", seed)
        self.n = len(self.ds)
        self.sim = distributed.run_distributed(self.model, self.ds, self._config("sim"))

    def _config(self, transport):
        return distributed.DistributedConfig(
            mode="sync", workers=SOCKET_WORKERS, epochs=SOCKET_EPOCHS, eta=ETA,
            seed=self.seed, transport=transport)

    def round(self, r: Round):
        cfg = self._config("socket")
        res = r.call(lambda: distributed.run_distributed(self.model, self.ds, cfg),
                     name="socket-sync")
        if res is None:
            return
        r.evals += checks.run_evals("vrlite", "sync", SOCKET_WORKERS, "post",
                                    self.n, SOCKET_EPOCHS)
        ds, m = self.ds, self.model
        value = oracle.value(m.kind, ds.features, ds.labels, m.lam, res.x)
        r.judge("socket-sync", checks.check_socket_sync(
            res, self.sim, epochs=SOCKET_EPOCHS, final_value=value, f_star=self.f_star))


WORKLOADS = {w.name: w for w in (Methods, SweepReg, DistSocket)}
