"""Output checks. Each returns a list of problems; an empty list means
the output is correct. Expected values come from ``oracle`` and from the
README's cost model as written out here, never from a stored copy of an
earlier run, and never from ``vrlite.model``."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from oracle import LOG2

CSV_HEADER = "algo,mode,workers,epoch,wall_ms,objective,rel_grad_norm,eta,seed"
GAP_VR = 1e-9         # seq VR runs and sync socket runs end this close to f*
BELOW_FSTAR = 1e-12   # no row may fall further below f* than this
ASYNC_INVARIANT = 1e-12

# Gradient evaluations per step, as the README states them: a corrected
# step costs 3 ("post") or 2 ("reuse"); a plain SGD step costs one less.
VR_EVALS = {"post": 3, "reuse": 2}
SGD_EVALS = {"post": 2, "reuse": 1}


@dataclass
class Row:
    algo: str
    mode: str
    workers: int
    epoch: int
    wall_ms: float
    objective: float
    rel: float
    eta: float
    seed: int


def read_csv(path) -> list[Row]:
    with open(path, newline="") as fh:
        lines = fh.read().split("\n")
    if lines[0] != CSV_HEADER or lines[-1] != "":
        raise ValueError(f"{path}: unexpected header or missing final newline")
    rows = []
    for line in lines[1:-1]:
        a, m, w, e, wall, obj, rel, eta, seed = line.split(",")
        rows.append(Row(a, m, int(w), int(e), float(wall), float(obj),
                        float(rel), float(eta), int(seed)))
    return rows


def seq_costs(algo: str, accum: str, n: int, epochs: int) -> tuple[int, list[int]]:
    """Gradient evaluations of a ``seq`` run: (up-front cost, cost of
    each epoch). Epoch 1 of vrlite is its plain-SGD bootstrap."""
    if algo == "sgd":
        return 0, [n * SGD_EVALS[accum]] * epochs
    if algo == "svrg":
        return 0, [n + 4 * n] * epochs   # snapshot pass, then 2n two-gradient steps
    if algo == "saga":
        return n, [n] * epochs           # the table, then n steps per epoch
    return 0, [n * SGD_EVALS[accum]] + [n * VR_EVALS[accum]] * (epochs - 1)


def expected_clock(algo, mode, workers, accum, n, epochs, latency=0.0):
    """The ``wall_ms`` column the README's cost model predicts: one ms per
    gradient evaluation, plus ``latency`` per simulated message hop.
    Distributed runs are modelled for equal shards and speeds."""
    if mode == "seq":
        upfront, costs = seq_costs(algo, accum, n, epochs)
        return [0.0] + [float(upfront + sum(costs[:k])) for k in range(1, epochs + 1)]
    if n % workers:
        raise ValueError("the distributed cost model here assumes equal shards")
    shard = n // workers
    boot = float(shard * SGD_EVALS[accum]) + latency
    c = float(shard * VR_EVALS[accum])
    clock = [0.0, boot]
    for k in range(2, epochs + 1):
        if mode == "async" and k == 2:   # every worker's first report hop
            clock.append(boot + c + latency)
        else:  # sync: barrier + broadcast; async: reply, compute, report
            clock.append(clock[-1] + c + 2.0 * latency)
    return clock


def run_evals(algo, mode, workers, accum, n, epochs) -> int:
    """Gradient evaluations of a run of ``epochs`` epochs."""
    if mode == "seq":
        upfront, costs = seq_costs(algo, accum, n, epochs)
        return upfront + sum(costs)
    shard = n // workers
    return shard * SGD_EVALS[accum] + (epochs - 1) * n * VR_EVALS[accum]


def check_run(rows, *, algo, mode, workers, accum, eta, seed, epochs, n,
              latency, f_star, converges) -> list[str]:
    """A full-budget ``run_experiment`` CSV on toy-class. ``converges``
    runs must end within GAP_VR of f*; the others strictly between f*
    and log 2."""
    bad = []
    if [r.epoch for r in rows] != list(range(epochs + 1)):
        return [f"epochs {[r.epoch for r in rows]}, expected 0..{epochs}"]
    for r in rows:
        if (r.algo, r.mode, r.workers, r.eta, r.seed) != (algo, mode, workers, eta, seed):
            bad.append(f"epoch {r.epoch}: labels {r.algo},{r.mode},{r.workers},"
                       f"{r.eta},{r.seed}")
    r0 = rows[0]
    # The program averages n copies of log 2; pairwise summation may
    # round that by up to ceil(log2 n) ulps.
    if abs(r0.objective - LOG2) > (math.ceil(math.log2(n)) + 1) * np.spacing(LOG2):
        bad.append(f"epoch 0 objective {r0.objective!r} is not log 2")
    if r0.rel != 1.0:
        bad.append(f"epoch 0 rel_grad_norm {r0.rel!r} is not 1")
    lowest = min(r.objective for r in rows)
    if not lowest >= f_star - BELOW_FSTAR:
        bad.append(f"objective {lowest!r} below f* {f_star!r}")
    want = expected_clock(algo, mode, workers, accum, n, epochs, latency)
    got = [r.wall_ms for r in rows]
    if got != want:
        k = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
        bad.append(f"epoch {k}: wall_ms {got[k]!r}, cost model says {want[k]!r}")
    last = rows[-1].objective
    if converges:
        if not last - f_star <= GAP_VR:
            bad.append(f"final gap {last - f_star:.3e} exceeds {GAP_VR:g}")
    elif not f_star < last < LOG2:
        bad.append(f"final objective {last!r} not in (f*, log 2)")
    return bad


def best_eta(outcomes):
    """The sweep's selection rule, restated: fewest epochs to the target
    among runs that reached it without diverging; ties go to the smaller
    stepsize; None when no run qualifies."""
    ok = [(o.epochs_to_target, o.eta) for o in outcomes
          if not o.diverged and o.epochs_to_target is not None]
    return min(ok)[1] if ok else None


def check_outcome(o, eta, target, budget) -> list[str]:
    """One sweep point: an early stop, a full budget that missed the
    target, or a divergence, each self-consistent."""
    if o.eta != eta:
        return [f"outcome eta {o.eta!r}, grid has {eta!r}"]
    if o.diverged:
        return [] if o.epochs_to_target is None else [
            f"eta {eta:g}: diverged yet reached the target"]
    if o.epochs_to_target is None:
        if o.final_rel is None or not o.final_rel > target:
            return [f"eta {eta:g}: missed the target but ends at {o.final_rel!r}"]
        return []
    if not 1 <= o.epochs_to_target <= budget:
        return [f"eta {eta:g}: target epoch {o.epochs_to_target} outside 1..{budget}"]
    if not o.final_rel <= target:
        return [f"eta {eta:g}: stopped at {o.final_rel!r} above the target"]
    return []


def check_selection(sweep) -> list[str]:
    want = best_eta(sweep.outcomes)
    if sweep.best_eta != want:
        return [f"best_eta {sweep.best_eta!r}, selection rule gives {want!r}"]
    return [] if want is not None else ["no stepsize reached the target"]


def check_winner(sweep, rows, *, target, budget, f_star) -> list[str]:
    """The selected stepsize and the winner's full-budget re-run."""
    bad = check_selection(sweep)
    if bad:
        return bad
    sweep_epoch = next(o.epochs_to_target for o in sweep.outcomes
                       if o.eta == sweep.best_eta)
    if [r.epoch for r in rows] != list(range(budget + 1)):
        return [f"re-run epochs {[r.epoch for r in rows]}, expected 0..{budget}"]
    if rows[0].rel != 1.0:
        bad.append(f"epoch 0 rel_grad_norm {rows[0].rel!r} is not 1")
    reached = next((r.epoch for r in rows if r.rel <= target), None)
    if reached != sweep_epoch:
        bad.append(f"re-run reaches the target at {reached}, sweep said {sweep_epoch}")
    lowest = min(r.objective for r in rows)
    if not lowest >= f_star - BELOW_FSTAR:
        bad.append(f"objective {lowest!r} below f* {f_star!r}")
    if not rows[-1].objective - f_star <= GAP_VR:
        bad.append(f"final gap {rows[-1].objective - f_star:.3e} exceeds {GAP_VR:g}")
    return bad


def check_socket_sync(res, sim, *, epochs, final_value, f_star) -> list[str]:
    """Sync over TCP ends within GAP_VR of f* and equals the simulator
    bit for bit at every epoch boundary."""
    bad = []
    if res.diverged:
        bad.append("sync run flagged diverged")
    if [s.epoch for s in res.snapshots] != list(range(1, epochs + 1)):
        bad.append(f"snapshot epochs {[s.epoch for s in res.snapshots]}")
    elif any(a.x.tobytes() != b.x.tobytes() for a, b in zip(res.snapshots, sim.snapshots)):
        k = next(a.epoch for a, b in zip(res.snapshots, sim.snapshots)
                 if a.x.tobytes() != b.x.tobytes())
        bad.append(f"socket and sim iterates differ at epoch {k}")
    if res.x.tobytes() != sim.x.tobytes():
        bad.append("final socket iterate differs from sim")
    if not final_value - f_star <= GAP_VR:
        bad.append(f"final gap {final_value - f_star:.3e} exceeds {GAP_VR:g}")
    return bad


def check_socket_async(res, *, epochs, workers, final_value) -> list[str]:
    """Async over TCP: the central triple is the mean of each worker's
    last report, every worker reported epochs - 1 times, and the final
    objective is finite and below log 2. No workload runs it yet: the
    async socket run is left out of ``dist-socket`` (see the README);
    ``selftest.py`` exercises it on a simulated run."""
    bad = []
    seen = [int(k) for k in res.central.reports_seen]
    if seen != [epochs - 1] * workers:
        bad.append(f"reports per worker {seen}, expected {epochs - 1} each")
    if len(res.workers) != workers:
        return bad + [f"{len(res.workers)} final worker states"]
    for name, attr in (("x", "last_reported_x"), ("x_bar", "last_reported_x_bar"),
                       ("g_bar", "last_reported_g_bar")):
        mean = sum(getattr(w, attr) for w in res.workers) / workers
        err = float(np.max(np.abs(getattr(res.central, name) - mean)))
        if not err <= ASYNC_INVARIANT:
            bad.append(f"central {name} is {err:.3e} from the mean of the last reports")
    if not (math.isfinite(final_value) and final_value < LOG2):
        bad.append(f"final objective {final_value!r} not finite and below log 2")
    return bad
