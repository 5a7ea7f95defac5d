"""vrlite: variance-reduced SGD anchored at epoch averages, with
sequential baselines (SGD, SVRG, SAGA), deterministic simulated and
socket-backed distributed runtimes, synthetic and LIBSVM data loading,
and a benchmarking CLI."""

from .model import (
    DEFAULT_LAMBDA,
    Dataset,
    LabeledSample,
    LossModel,
    full_gradient,
    grad_sample,
    loss_sample,
    objective,
    rel_grad_norm,
)
from .optim import (
    EpochAverages,
    OptState,
    SagaState,
    initial_state,
    permutation,
    saga_epoch,
    saga_init,
    saga_step,
    sgd_epoch,
    svrg_epoch,
    vr_step,
    vrlite_epoch,
    vrlite_init,
    vrlite_step,
)
from .data import (
    SyntheticSpec,
    format_libsvm,
    gen_gaussian_classification,
    gen_linear_regression,
    load_libsvm,
    parse_libsvm,
)
from . import bench, distributed, seeding

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_LAMBDA",
    "Dataset",
    "LabeledSample",
    "LossModel",
    "full_gradient",
    "grad_sample",
    "loss_sample",
    "objective",
    "rel_grad_norm",
    "EpochAverages",
    "OptState",
    "SagaState",
    "initial_state",
    "permutation",
    "saga_epoch",
    "saga_init",
    "saga_step",
    "sgd_epoch",
    "svrg_epoch",
    "vr_step",
    "vrlite_epoch",
    "vrlite_init",
    "vrlite_step",
    "SyntheticSpec",
    "format_libsvm",
    "gen_gaussian_classification",
    "gen_linear_regression",
    "load_libsvm",
    "parse_libsvm",
    "bench",
    "distributed",
    "seeding",
    "__version__",
]
