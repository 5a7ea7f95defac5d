"""Benchmark driver: experiment configs, per-epoch metric rows, the
stepsize sweep, and deterministic CSV output.

Per-epoch timing is a virtual clock, not wall time: each per-sample
gradient evaluation costs one unit and each simulated message hop costs
the configured latency. That keeps CSV output byte-identical across
repeated runs with the same config and seed. Only the socket transport
reports real elapsed milliseconds.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .data import SyntheticSpec, gen_gaussian_classification, gen_linear_regression, load_libsvm
from .distributed.engine import MODES as DISTRIBUTED_MODES
from .distributed.engine import TRANSPORTS, DistributedConfig, run_distributed
from .model import DEFAULT_LAMBDA, Dataset, LossModel, _objective_and_gradient
from .optim import (
    ACCUM_MODES,
    EpochAverages,
    OptState,
    epoch_grad_evals,
    initial_state,
    saga_epoch,
    saga_init,
    sgd_epoch,
    svrg_epoch,
    vrlite_epoch,
    vrlite_init,
)
from .seeding import optimizer_rng

ALGOS = ("sgd", "svrg", "saga", "vrlite")
MODES = ("seq",) + DISTRIBUTED_MODES

CSV_HEADER = "algo,mode,workers,epoch,wall_ms,objective,rel_grad_norm,eta,seed"
DEFAULT_GRID = tuple((2.0 ** k) * 1e-4 for k in range(13))
DEFAULT_TARGET = 1e-6

TOY_N = 5000
TOY_D = 20


@dataclass
class ExperimentConfig:
    algo: str
    dataset: str                      # "toy-class" | "toy-reg" | "libsvm:<path>"
    eta: float | None = None
    mode: str = "seq"
    lam: float = DEFAULT_LAMBDA
    epochs: int = 30
    workers: int = 1
    transport: str = "sim"
    latency_ms: float = 0.0
    seed: int = 0
    out_path: str | None = None
    target_rel: float = DEFAULT_TARGET
    stop_at_rel: float | None = None  # end a run once this metric is reached
    accum_grad: str = "post"

    def validate(self):
        if self.algo not in ALGOS:
            raise ValueError(f"algo must be one of {ALGOS}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.transport not in TRANSPORTS:
            raise ValueError(f"transport must be one of {TRANSPORTS}")
        if self.mode != "seq" and self.algo != "vrlite":
            raise ValueError("distributed modes support only algo='vrlite'")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.mode == "seq" and self.workers != 1:
            raise ValueError("sequential runs use exactly one worker")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not (self.latency_ms >= 0 and math.isfinite(self.latency_ms)):
            raise ValueError("latency_ms must be finite and >= 0")
        if not (self.lam >= 0 and math.isfinite(self.lam)):
            raise ValueError("lambda must be finite and >= 0")
        if not (self.target_rel > 0 and math.isfinite(self.target_rel)):
            raise ValueError("target_rel must be finite and > 0")
        if self.stop_at_rel is not None and not (
                self.stop_at_rel > 0 and math.isfinite(self.stop_at_rel)):
            raise ValueError("stop_at_rel must be None or finite and > 0")
        if self.accum_grad not in ACCUM_MODES:
            raise ValueError(f"accum_grad must be one of {ACCUM_MODES}")
        known = ("toy-class", "toy-reg")
        if self.dataset not in known and not self.dataset.startswith("libsvm:"):
            raise ValueError(
                f"dataset must be one of {known} or 'libsvm:<path>'")


@dataclass
class MetricsRow:
    algo: str
    mode: str
    workers: int
    epoch: int
    wall_ms: float
    objective: float
    rel_grad_norm: float
    eta: float
    seed: int


@dataclass
class ExperimentResult:
    rows: list[MetricsRow]
    diverged: bool
    config: ExperimentConfig


@dataclass
class EtaOutcome:
    eta: float
    epochs_to_target: int | None
    diverged: bool
    final_rel: float | None


@dataclass
class SweepResult:
    best_eta: float | None
    target_rel: float
    outcomes: list[EtaOutcome] = field(default_factory=list)


def load_dataset(cfg: ExperimentConfig) -> tuple[Dataset, LossModel]:
    """Materialize the configured dataset and the matching loss model
    (logistic for classification tasks, ridge otherwise). A toy dataset
    is shared and read-only (see `_toy`); a LIBSVM file is read afresh
    on every call, since it may change between calls."""
    if cfg.dataset.startswith("libsvm:"):
        ds = load_libsvm(cfg.dataset.split(":", 1)[1])
    else:
        ds = _toy(cfg.dataset, cfg.seed)
    kind = "logistic" if ds.task == "classification" else "ridge"
    return ds, LossModel(kind, cfg.lam)


@functools.lru_cache(maxsize=2)
def _toy(name: str, seed: int) -> Dataset:
    """The toy dataset of this name and seed, built once per process for
    the last two keys asked for. The generators are pure functions of
    the seed, so a rebuild would give the same bits; the arrays lie over
    immutable bytes, so that no caller can change the copy others share."""
    if name == "toy-class":
        ds = gen_gaussian_classification(
            SyntheticSpec(n=TOY_N, d=TOY_D, task="classification", seed=seed))
    else:
        ds, _ = gen_linear_regression(
            SyntheticSpec(n=TOY_N, d=TOY_D, task="regression", seed=seed))
    return Dataset(*(np.frombuffer(a.tobytes(), a.dtype).reshape(a.shape)
                     for a in (ds.features, ds.labels)), ds.task)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run the configured optimizer for the epoch budget, recording one
    row per epoch (epoch 0 is the all-zeros starting point). On a
    non-finite iterate or metric the run stops and is flagged diverged;
    no non-finite row is emitted. Writes CSV to cfg.out_path when set."""
    cfg.validate()
    if cfg.eta is None:
        raise ValueError("eta is required (or use stepsize_sweep)")
    ds, model = load_dataset(cfg)
    run = _Run(cfg, model, ds)
    _execute([run], model, ds)
    result = run.result()
    if cfg.out_path:
        write_csv(result.rows, cfg.out_path)
    return result


class _Run:
    """The rows of one run and its stop rule."""

    def __init__(self, cfg: ExperimentConfig, model: LossModel, ds: Dataset):
        self.cfg, self.model, self.ds = cfg, model, ds
        self.rows: list[MetricsRow] = []
        self.diverged = False
        self.norm0 = None  # the gradient norm at x0, taken from row 0

    def record(self, epoch: int, wall: float, x: np.ndarray) -> bool:
        """Append the row for iterate x; True ends the run. A non-finite
        iterate or metric adds no row, except at epoch 0 (the CLI reports
        the last row), and flags the run diverged."""
        cfg = self.cfg
        with np.errstate(over="ignore", invalid="ignore"):
            obj, grad = _objective_and_gradient(self.model, self.ds, x)
            norm = np.linalg.norm(grad)
            if self.norm0 is None:
                self.norm0 = float(norm)
                if self.norm0 == 0.0:
                    raise ValueError("gradient at the zero iterate is zero; "
                                     "nothing to run")
            rel = float(norm / self.norm0)
        self.diverged = not (math.isfinite(obj) and math.isfinite(rel)
                             and np.isfinite(x).all())
        if not self.diverged or epoch == 0:
            self.rows.append(MetricsRow(cfg.algo, cfg.mode, cfg.workers, epoch,
                                        wall, obj, rel, cfg.eta, cfg.seed))
        return self.diverged or (cfg.stop_at_rel is not None
                                 and rel <= cfg.stop_at_rel)

    def result(self) -> ExperimentResult:
        return ExperimentResult(rows=self.rows, diverged=self.diverged,
                                config=self.cfg)


def _execute(runs: list[_Run], model: LossModel, ds: Dataset):
    """Run validated configs that differ only in eta: sequential runs in
    lock step, a distributed run (always alone) over its transport."""
    x0 = np.zeros(ds.dimension)
    for run in runs:
        run.record(0, 0.0, x0)  # the starting point never ends a run
    cfg = runs[0].cfg
    if cfg.epochs == 0:
        return
    if cfg.mode == "seq":
        _run_sequential(runs, model, ds)
        return
    (run,) = runs
    dcfg = DistributedConfig(
        mode=cfg.mode,
        workers=cfg.workers,
        epochs=cfg.epochs,
        eta=cfg.eta,
        seed=cfg.seed,
        transport=cfg.transport,
        latency=cfg.latency_ms,
        accum_grad=cfg.accum_grad,
    )
    res = run_distributed(model, ds, dcfg, stop_when=lambda snap: run.record(
        snap.epoch, snap.clock_ms, snap.x))
    run.diverged = run.diverged or res.diverged


def _run_sequential(runs: list[_Run], model: LossModel, ds: Dataset):
    """One epoch loop for every sequential algorithm, over runs that
    differ only in eta. The runs step in lock step: every draw of the
    sample order comes from one stream and serves every run, which is
    the order each run would draw from its own stream of the same seed,
    since no draw depends on eta. A run leaves when its record ends it.
    SAGA takes one run at a time (its table is n x d per run).

    Every epoch adds its gradient evaluations (`epoch_grad_evals`) to
    the virtual clock."""
    cfg = runs[0].cfg
    rng = optimizer_rng(cfg.seed)
    eta = np.array([run.cfg.eta for run in runs])
    accum = cfg.accum_grad
    state = initial_state((len(runs), ds.dimension))
    wall = 0.0
    if cfg.algo == "saga":
        assert len(runs) == 1, "SAGA runs one at a time"
        table = saga_init(model, ds, state.x[0])

    for epoch in range(1, cfg.epochs + 1):
        if cfg.algo == "svrg":
            state.x = svrg_epoch(state.x, model, ds, eta, rng)
        elif cfg.algo == "saga":
            x, table = saga_epoch(state.x[0], model, ds, table, cfg.eta, rng)
            state.x = x[None]
        elif cfg.algo == "vrlite" and epoch > 1:
            state = vrlite_epoch(state, model, ds, eta, rng, accum)
        else:  # a plain-SGD pass: SGD, or vrlite's bootstrap from zero
            state = (vrlite_init(model, ds, eta, rng, accum) if cfg.algo == "vrlite"
                     else sgd_epoch(state, model, ds, eta, rng, accum))
        wall += epoch_grad_evals(cfg.algo, len(ds), accum, epoch == 1)
        going = [not run.record(epoch, wall, xk) for run, xk in zip(runs, state.x)]
        if not all(going):
            runs = [run for run, g in zip(runs, going) if g]
            if not runs:
                return
            eta = eta[going]
            avg = state.averages
            state = OptState(state.x[going],
                             EpochAverages(avg.x_bar[going], avg.g_bar[going]))


def epochs_to_target(rows: list[MetricsRow], target: float) -> int | None:
    """First epoch at which the metric is at or below target."""
    for r in rows:
        if r.rel_grad_norm <= target:
            return r.epoch
    return None


def stepsize_sweep(cfg: ExperimentConfig, grid=None) -> SweepResult:
    """Run cfg at every stepsize in the grid and pick the best.

    Best means fewest epochs to reach cfg.target_rel; ties go to the
    smaller stepsize, so the answer does not depend on grid order.
    Diverged runs and runs that never reach the target are excluded.
    best_eta is None when nothing qualifies.

    Sequential SGD, SVRG and vrlite sweeps run every grid point in lock
    step (see `_run_sequential`); SAGA and distributed sweeps run one
    point after the other. Either way each outcome equals that of
    run_experiment at that stepsize with stop_at_rel = target_rel."""
    grid = DEFAULT_GRID if grid is None else tuple(grid)
    if not grid or any(not (g > 0 and math.isfinite(g)) for g in grid):
        raise ValueError("sweep grid must contain positive finite stepsizes")
    cfg.validate()
    ds, model = load_dataset(cfg)  # once: no grid point changes the data
    runs = [_Run(replace(cfg, eta=float(eta), stop_at_rel=cfg.target_rel,
                         out_path=None), model, ds) for eta in grid]
    if cfg.mode == "seq" and cfg.algo != "saga":
        _execute(runs, model, ds)
    else:  # SAGA's tables and distributed transports: one point at a time
        for run in runs:
            _execute([run], model, ds)
    outcomes = []
    for run in runs:
        reached = epochs_to_target(run.rows, cfg.target_rel)
        final = run.rows[-1].rel_grad_norm if run.rows else None
        outcomes.append(EtaOutcome(run.cfg.eta, reached, run.diverged, final))
    candidates = [(o.epochs_to_target, o.eta) for o in outcomes
                  if not o.diverged and o.epochs_to_target is not None]
    best = min(candidates)[1] if candidates else None
    return SweepResult(best_eta=best, target_rel=cfg.target_rel,
                       outcomes=outcomes)


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def render_csv(rows: list[MetricsRow]) -> str:
    """CSV text: fixed header, 17-significant-digit reals, LF endings."""
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join([
            r.algo, r.mode, str(r.workers), str(r.epoch), _fmt(r.wall_ms),
            _fmt(r.objective), _fmt(r.rel_grad_norm), _fmt(r.eta), str(r.seed),
        ]))
    return "\n".join(lines) + "\n"


def write_csv(rows: list[MetricsRow], path: str | os.PathLike):
    """Atomically write the rows: the file appears complete or not at all,
    and a failed write or rename leaves no temporary file behind."""
    text = render_csv(rows)
    tmp = f"{path}.tmp"
    fh = open(tmp, "w", newline="")
    try:
        with fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):  # keep the first error
            os.remove(tmp)
        raise
