"""Finite-sum loss models: l2-regularized logistic and ridge regression.

The objective is the mean of per-sample losses f_i, and the l2 term is
folded into every f_i, so each stochastic gradient already carries the
regularizer.

Sign convention for the logistic loss: the per-sample loss is
log(1 + exp(b * a.x)), with the margin entering through a plus sign.
Minimizing therefore drives b * a.x negative. Callers who want the
conventional log(1 + exp(-b * a.x)) behaviour should negate their
labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernel

DEFAULT_LAMBDA = 1e-4

TASKS = ("classification", "regression")
LOSS_KINDS = ("logistic", "ridge")


@dataclass(frozen=True)
class LabeledSample:
    """One term of the finite sum: a feature vector and a scalar label."""

    features: np.ndarray
    label: float


class Dataset:
    """Dense sample matrix with labels and a task tag.

    features is (n, d) float64, labels is (n,). task is "classification"
    (labels in {-1, +1}) or "regression". Rows are addressable by index
    and the container is ordered, so optimizers can sample by position.
    """

    def __init__(self, features, labels, task):
        features = np.ascontiguousarray(features, dtype=np.float64)
        labels = np.ascontiguousarray(labels, dtype=np.float64)
        if features.ndim != 2 or features.shape[0] < 1 or features.shape[1] < 1:
            raise ValueError("features must be a nonempty (n, d) matrix")
        if labels.shape != (features.shape[0],):
            raise ValueError(
                f"labels have shape {labels.shape}, expected ({features.shape[0]},)"
            )
        if task not in TASKS:
            raise ValueError(f"unknown task {task!r}")
        if not np.isfinite(features).all():
            raise ValueError("features contain NaN or Inf")
        if not np.isfinite(labels).all():
            raise ValueError("labels contain NaN or Inf")
        if task == "classification" and not np.isin(labels, (-1.0, 1.0)).all():
            raise ValueError("classification labels must lie in {-1, +1}")
        self.features = features
        self.labels = labels
        self.task = task

    @property
    def dimension(self) -> int:
        return self.features.shape[1]

    def __len__(self) -> int:
        return self.features.shape[0]

    def __getitem__(self, i) -> LabeledSample:
        return LabeledSample(self.features[i], float(self.labels[i]))

    def subset(self, indices) -> "Dataset":
        """New Dataset holding the given rows, in the given order: integer
        indices in [0, n), else IndexError, as for a sample order."""
        indices = _kernel.indices(indices, len(self))
        return Dataset(self.features[indices], self.labels[indices], self.task)

    def __repr__(self):
        n, d = self.features.shape
        return f"Dataset(n={n}, d={d}, task={self.task!r})"


@dataclass(frozen=True)
class LossModel:
    """Loss family plus its l2 weight."""

    kind: str
    lam: float = DEFAULT_LAMBDA

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if not (math.isfinite(self.lam) and self.lam >= 0.0):
            raise ValueError("lam must be finite and >= 0")


def _sigmoid(z: float) -> float:
    # Branch keeps the exp argument <= 0, so this never overflows.
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def _sigmoid_vec(z: np.ndarray) -> np.ndarray:
    # _sigmoid's two branches over one shared exp(-|z|) <= 1: exp(-z) where
    # z >= 0 and exp(z) elsewhere. Bit for bit the masked two-branch form,
    # but not _sigmoid's bits: np.exp is NumPy's SIMD exp, not libm's. Over
    # 200 000 draws of N(0, 5^2) (NumPy 2.4.6, AVX2 x86-64), 4 365 elements
    # differed from _sigmoid, by at most 3.3e-16 relative.
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _grad_coef(logistic: bool, margin: float, label: float) -> float:
    """Scalar weight of the feature vector in the per-sample gradient."""
    if logistic:
        return label * _sigmoid(label * margin)
    return 2.0 * (margin - label)


def _row_grad(logistic: bool, lam2: float, a: np.ndarray, label: float,
              x: np.ndarray) -> np.ndarray:
    """Per-sample gradient from raw rows; shared by grad_sample and the
    optimizers' Python loops. Its margin is the kernel's sequential dot,
    so it matches the compiled loops bit for bit."""
    coef = _grad_coef(logistic, _kernel.dot(a, x), label)
    return coef * a + lam2 * x


def _check_dim(d_have: int, d_want: int, what: str = "x"):
    if d_have != d_want:
        raise ValueError(f"dimension mismatch: {what} has length {d_have}, "
                         f"expected {d_want}")


def loss_sample(model: LossModel, sample: LabeledSample, x: np.ndarray) -> float:
    """Per-sample loss f_i(x), l2 term included: `objective` over the
    one-sample set."""
    t = _terms(model, sample.features[None], [sample.label], x)
    return _objective_at(model, x, t)


def grad_sample(model: LossModel, sample: LabeledSample, x: np.ndarray) -> np.ndarray:
    """Per-sample gradient of f_i at x, l2 term included."""
    a = sample.features
    _check_dim(x.shape[0], a.shape[0])
    return _row_grad(model.kind == "logistic", 2.0 * model.lam, a, sample.label, x)


def objective(model: LossModel, ds: Dataset, x: np.ndarray) -> float:
    """Full objective (1/n) sum_i f_i(x), computed with vectorized math."""
    return _objective_at(model, x, _terms(model, ds.features, ds.labels, x))


def full_gradient(model: LossModel, ds: Dataset, x: np.ndarray) -> np.ndarray:
    """Mean of the per-sample gradients over the whole dataset."""
    return _gradient_at(model, ds, x, _terms(model, ds.features, ds.labels, x))


def _objective_and_gradient(model: LossModel, ds: Dataset,
                            x: np.ndarray) -> tuple[float, np.ndarray]:
    """objective and full_gradient at x from one shared _terms (one
    F @ x and one b * z or z - b): the same bits as the two calls."""
    t = _terms(model, ds.features, ds.labels, x)
    return _objective_at(model, x, t), _gradient_at(model, ds, x, t)


def _terms(model: LossModel, F: np.ndarray, b, x: np.ndarray) -> np.ndarray:
    """Each sample's data loss at x as a function of one number t[i], from
    the margins z = F @ x and labels b: t = b * z (logistic) or t = z - b
    (ridge)."""
    _check_dim(x.shape[0], F.shape[1])
    z = F @ x
    if model.kind == "logistic":
        return b * z
    return z - b


def _objective_at(model: LossModel, x: np.ndarray, t: np.ndarray) -> float:
    """objective at x from its _terms t."""
    data = np.logaddexp(0.0, t) if model.kind == "logistic" else t * t
    return float(data.mean() + model.lam * np.dot(x, x))


def _grad_coefs(model: LossModel, ds: Dataset, t: np.ndarray) -> np.ndarray:
    """coefs such that sample i's loss gradient at x is coefs[i] * a_i,
    from the _terms t at x (the regularizer's 2 lam x excluded)."""
    if model.kind == "logistic":
        return ds.labels * _sigmoid_vec(t)
    return 2.0 * t


def _gradient_at(model: LossModel, ds: Dataset, x: np.ndarray,
                 t: np.ndarray) -> np.ndarray:
    """full_gradient at x from its _terms t."""
    coefs = _grad_coefs(model, ds, t)
    return (ds.features.T @ coefs) / len(ds) + (2.0 * model.lam) * x


def rel_grad_norm(model: LossModel, ds: Dataset, x: np.ndarray,
                  x0: np.ndarray) -> float:
    """||grad f(x)|| / ||grad f(x0)||, the convergence metric used
    throughout the benchmarks."""
    denom = float(np.linalg.norm(full_gradient(model, ds, x0)))
    if denom == 0.0:
        raise ValueError("x0 is already stationary: reference gradient is zero")
    if not math.isfinite(denom):
        raise ValueError("reference gradient at x0 is not finite")
    return float(np.linalg.norm(full_gradient(model, ds, x)) / denom)
