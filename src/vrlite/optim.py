"""Sequential stochastic optimizers over a Dataset.

The headline method ("vrlite") is variance-reduced SGD whose correction
is anchored at running epoch averages instead of a snapshot point: each
epoch keeps the mean iterate x_bar and the mean per-step gradient g_bar
of the previous epoch, and every step moves along

    grad_i(x) - grad_i(x_bar) + g_bar.

This avoids both the periodic full-gradient pass of SVRG and the
per-sample gradient table of SAGA; the price is that the correction is
biased, since g_bar is not the exact mean gradient at x_bar. SGD, SVRG
and SAGA are provided as baselines. All randomness comes from a
caller-owned numpy Generator, so trajectories are reproducible given a
seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernel
from .model import Dataset, LossModel, _grad_coefs, _row_grad, _terms, full_gradient

ACCUM_MODES = ("post", "reuse")
SVRG_INNER = 2  # an SVRG round takes SVRG_INNER * n inner steps


def epoch_grad_evals(algo: str, n: int, accum_grad: str, first: bool) -> int:
    """Per-sample gradient evaluations of one epoch over n samples, the
    cost both virtual clocks charge. A vrlite step takes grad_i at x and
    at x_bar, a plain-SGD step (SGD, and vrlite's first epoch, its
    bootstrap) one, and "post" adds one at the new iterate to either. An
    SVRG round is a snapshot pass plus SVRG_INNER * n steps of two. A
    SAGA epoch is n steps of one, after a table fill of n charged to the
    first epoch."""
    _check_accum(accum_grad)
    post = accum_grad == "post"
    if algo == "svrg":
        return n + SVRG_INNER * n * 2
    if algo == "saga":
        return 2 * n if first else n
    if algo == "vrlite" and not first:
        return n * (3 if post else 2)
    return n * (2 if post else 1)


@dataclass
class EpochAverages:
    """Mean iterate and mean step gradient of one epoch."""

    x_bar: np.ndarray
    g_bar: np.ndarray

    @classmethod
    def zeros(cls, d) -> "EpochAverages":
        return cls(np.zeros(d), np.zeros(d))


@dataclass
class OptState:
    """Iterate plus the averages carried between epochs."""

    x: np.ndarray
    averages: EpochAverages


def permutation(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random permutation of 0..n-1 drawn from rng."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return rng.permutation(n)


def vr_step(x, grad_x, grad_ref, grad_avg, eta):
    """One corrected step: x - eta * (grad_x - grad_ref + grad_avg)."""
    return x - eta * (grad_x - grad_ref + grad_avg)


def vrlite_step(model: LossModel, sample, x, averages: EpochAverages, eta: float):
    """Apply one vrlite update for the given sample.

    The correction gradient is taken at the previous epoch's mean
    iterate, and the previous epoch's mean step gradient stands in for
    the full gradient.
    """
    logistic = model.kind == "logistic"
    lam2 = 2.0 * model.lam
    g_x = _row_grad(logistic, lam2, sample.features, sample.label, x)
    g_ref = _row_grad(logistic, lam2, sample.features, sample.label, averages.x_bar)
    return vr_step(x, g_x, g_ref, averages.g_bar, eta)


def _check_eta(eta):
    """eta: one stepsize, or one per run."""
    if not all(math.isfinite(v) and v >= 0.0 for v in np.ravel(eta).tolist()):
        raise ValueError("eta must be finite and >= 0")


def _check_accum(accum_grad: str):
    if accum_grad not in ACCUM_MODES:
        raise ValueError(f"accum_grad must be one of {ACCUM_MODES}")


def _epoch(model, ds, x, order, eta, anchor=None, accum_grad=None):
    """The one per-sample loop behind SGD, SVRG and vrlite, which differ
    only in their anchor. With anchor = (x_ref, g_mean) each step moves
    along grad_i(x) - grad_i(x_ref) + g_mean; with anchor None it is a
    plain SGD step. accum_grad ("post" or "reuse") also accumulates the
    epoch's averages; with None nothing is accumulated. The loop runs in
    the compiled kernel, or in `_epoch_py` when there is none; neither
    writes to x or the anchor.

    x is one iterate (d,), or K iterates (K, d) that run in lock step over
    the same order, each with its own stepsize (eta of shape (K,), or one
    shared) and anchor (entries shaped like x); every run steps exactly
    as it would alone.

    Returns (x, EpochAverages or None), shaped like the input."""
    F, L = _kernel.rows(ds)
    n, d = F.shape
    order = _kernel.indices(order, n)
    shape = (d,) if np.ndim(x) == 1 else (len(x), d)
    x = _kernel.matrix(x, shape, "x").reshape(-1, d)
    if anchor is not None:
        anchor = [_kernel.matrix(v, shape, what).reshape(-1, d)
                  for v, what in zip(anchor, ("x_bar", "g_bar"))]
    run = _epoch_py if _kernel.lib is None else _kernel.epoch
    x, acc_x, acc_g = run(F, L, order, x, anchor, accum_grad,
                          model.kind == "logistic", 2.0 * model.lam, eta)
    x = x.reshape(shape)
    if accum_grad is None:
        return x, None
    steps = len(order)
    return x, EpochAverages(acc_x.reshape(shape) / steps,
                            acc_g.reshape(shape) / steps)


def _epoch_py(F, L, order, x, anchor, accum_grad, logistic, lam2, eta):
    """`_kernel.epoch` in Python, one run after the other: the loop
    without a compiled kernel, and the reference the tests hold the
    kernel to."""
    eta = np.broadcast_to(eta, (len(x),))
    out = [_run_py(F, L, order, x[k], None if anchor is None else
                   (anchor[0][k], anchor[1][k]), accum_grad, logistic, lam2,
                   float(eta[k]))
           for k in range(x.shape[0])]
    return tuple(np.array(v) for v in zip(*out))


def _run_py(F, L, order, x, anchor, accum_grad, logistic, lam2, eta):
    """One run of `_epoch_py`: (x, acc_x, acc_g) for x of shape (d,)."""
    accumulate = accum_grad is not None
    reuse = accum_grad == "reuse"
    acc_x = np.zeros_like(x)
    acc_g = np.zeros_like(x)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in order:
            a = F[i]
            b = L[i]
            g = _row_grad(logistic, lam2, a, b, x)
            if anchor is None:
                x = x - eta * g
            else:
                g_ref = _row_grad(logistic, lam2, a, b, anchor[0])
                x = vr_step(x, g, g_ref, anchor[1], eta)
            if accumulate:
                acc_x += x
                acc_g += g if reuse else _row_grad(logistic, lam2, a, b, x)
    return x, acc_x, acc_g


def _permuted_epoch(model, ds, x, eta, rng, accum_grad, anchor):
    """One without-replacement pass in a fresh permutation from rng."""
    _check_eta(eta)
    _check_accum(accum_grad)
    order = permutation(len(ds), rng)
    x, averages = _epoch(model, ds, x, order, eta, anchor, accum_grad)
    return OptState(x=x, averages=averages)


def initial_state(d) -> OptState:
    """Zero iterate with zeroed averages; d is the dimension, or (K, d)
    for K runs in lock step."""
    return OptState(x=np.zeros(d), averages=EpochAverages.zeros(d))


def vrlite_init(model: LossModel, ds: Dataset, eta: float,
                rng: np.random.Generator, accum_grad: str = "post") -> OptState:
    """Bootstrap pass: one plain-SGD epoch from x = 0 whose accumulators
    seed the first usable (x_bar, g_bar) pair.

    accum_grad picks where the accumulated gradient is evaluated: "post"
    evaluates it at the just-updated iterate (one extra gradient per
    step), "reuse" reuses the step gradient already in hand.

    With K stepsizes (eta of shape (K,)) it starts K runs from zero in
    lock step, and every OptState array has shape (K, d).
    """
    x0 = np.zeros(np.shape(eta) + (ds.dimension,))
    return _permuted_epoch(model, ds, x0, eta, rng, accum_grad, None)


def vrlite_epoch(state: OptState, model: LossModel, ds: Dataset, eta: float,
                 rng: np.random.Generator, accum_grad: str = "post") -> OptState:
    """One vrlite epoch: a full without-replacement pass in permutation
    order, corrected by the previous epoch's averages."""
    anchor = (state.averages.x_bar, state.averages.g_bar)
    return _permuted_epoch(model, ds, state.x, eta, rng, accum_grad, anchor)


def sgd_epoch(state: OptState, model: LossModel, ds: Dataset, eta: float,
              rng: np.random.Generator, accum_grad: str = "post") -> OptState:
    """One plain-SGD epoch in permutation order. Keeps the same epoch
    accumulators as vrlite for fair instrumentation; they do not feed
    back into the updates."""
    return _permuted_epoch(model, ds, state.x, eta, rng, accum_grad, None)


def svrg_epoch(x: np.ndarray, model: LossModel, ds: Dataset, eta: float,
               rng: np.random.Generator) -> np.ndarray:
    """One SVRG round: snapshot the iterate, take the exact full gradient
    there, then run SVRG_INNER * n corrected steps (m = 2n, as in Johnson
    and Zhang) with indices drawn uniformly with replacement. Returns the
    last inner iterate.

    All inner indices are drawn from rng up front, so the consumption of
    randomness is well defined. With K iterates (x of shape (K, d)) and
    K stepsizes, K rounds run in lock step over the same indices, each
    with its own snapshot.
    """
    _check_eta(eta)
    n = len(ds)
    y = x.copy()
    g_full = np.reshape([full_gradient(model, ds, v) for v in
                         y.reshape(-1, y.shape[-1])], y.shape)
    x, _ = _epoch(model, ds, x, rng.integers(0, n, size=SVRG_INNER * n), eta,
                  anchor=(y, g_full))
    return x


@dataclass
class SagaState:
    """Per-sample gradient table and its incrementally maintained mean."""

    grad_table: np.ndarray  # (n, d)
    table_mean: np.ndarray  # (d,)


def saga_init(model: LossModel, ds: Dataset, x0: np.ndarray) -> SagaState:
    """Fill the gradient table with per-sample gradients at x0."""
    coefs = _grad_coefs(model, ds, _terms(model, ds.features, ds.labels, x0))
    table = coefs[:, None] * ds.features + (2.0 * model.lam) * x0
    return SagaState(grad_table=table, table_mean=table.mean(axis=0))


def saga_step(x: np.ndarray, i: int, model: LossModel, ds: Dataset,
              st: SagaState, eta: float) -> tuple[np.ndarray, SagaState]:
    """One SAGA update for sample i. The state is modified in place and
    returned: the table entry is refreshed with the gradient at the
    pre-update iterate and the mean is adjusted incrementally."""
    n = len(ds)
    if not 0 <= i < n:
        raise IndexError(f"sample index {i} out of range for n={n}")
    logistic = model.kind == "logistic"
    lam2 = 2.0 * model.lam
    with np.errstate(over="ignore", invalid="ignore"):
        g = _row_grad(logistic, lam2, ds.features[i], float(ds.labels[i]), x)
        delta = g - st.grad_table[i]
        x_new = x - eta * (delta + st.table_mean)
        st.table_mean += delta / n
        st.grad_table[i] = g
    return x_new, st


def saga_epoch(x: np.ndarray, model: LossModel, ds: Dataset, st: SagaState,
               eta: float, rng: np.random.Generator) -> tuple[np.ndarray, SagaState]:
    """n SAGA steps with indices drawn uniformly with replacement: the
    saga_step loop, run in the compiled kernel when there is one."""
    _check_eta(eta)
    F, L = _kernel.rows(ds)
    n, d = F.shape
    order = rng.integers(0, n, size=n)
    x = _kernel.matrix(x, (d,), "x")
    table = _kernel.matrix(st.grad_table, (n, d), "grad_table", writable=True)
    mean = _kernel.matrix(st.table_mean, (d,), "table_mean", writable=True)
    if _kernel.lib is None:
        for i in order:
            x, st = saga_step(x, int(i), model, ds, st, eta)
        return x, st
    x = _kernel.saga_epoch(F, L, order, x, table, mean, model.kind == "logistic",
                           2.0 * model.lam, eta)
    # Copies made to reach C's layout are written back: the state is
    # updated in place, as by saga_step.
    if table is not st.grad_table:
        st.grad_table[...] = table
    if mean is not st.table_mean:
        st.table_mean[...] = mean
    return x, st
