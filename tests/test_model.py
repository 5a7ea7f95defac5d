import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vrlite import (
    Dataset,
    LabeledSample,
    LossModel,
    full_gradient,
    grad_sample,
    loss_sample,
    objective,
    rel_grad_norm,
)
from vrlite.model import _sigmoid_vec
from conftest import finite_difference_gradient


def test_ridge_loss_hand_value():
    m = LossModel("ridge", 0.0)
    s = LabeledSample(np.array([1.0, 0.0]), 2.0)
    assert loss_sample(m, s, np.zeros(2)) == 4.0


def test_logistic_loss_hand_value():
    m = LossModel("logistic", 0.0)
    s = LabeledSample(np.array([1.0, 1.0]), 1.0)
    assert loss_sample(m, s, np.zeros(2)) == pytest.approx(math.log(2.0), rel=1e-15)


def test_logistic_grad_hand_value():
    m = LossModel("logistic", 0.0)
    s = LabeledSample(np.array([1.0, 1.0]), 1.0)
    np.testing.assert_array_equal(grad_sample(m, s, np.zeros(2)),
                                  np.array([0.5, 0.5]))


def test_ridge_grad_hand_value():
    m = LossModel("ridge", 0.0)
    s = LabeledSample(np.array([1.0, 0.0]), 2.0)
    np.testing.assert_array_equal(grad_sample(m, s, np.zeros(2)),
                                  np.array([-4.0, 0.0]))


def test_ridge_grad_regularizer_only():
    m = LossModel("ridge", 1e-4)
    s = LabeledSample(np.array([0.0, 0.0]), 0.0)
    np.testing.assert_array_equal(grad_sample(m, s, np.array([1.0, 1.0])),
                                  np.array([2e-4, 2e-4]))


def test_dimension_mismatch_rejected():
    m = LossModel("ridge")
    s = LabeledSample(np.array([1.0, 0.0]), 2.0)
    with pytest.raises(ValueError, match="dimension"):
        loss_sample(m, s, np.zeros(3))
    with pytest.raises(ValueError, match="dimension"):
        grad_sample(m, s, np.zeros(3))


def test_loss_model_validation():
    with pytest.raises(ValueError):
        LossModel("hinge")
    with pytest.raises(ValueError):
        LossModel("ridge", -1.0)
    with pytest.raises(ValueError):
        LossModel("ridge", float("nan"))


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 2)), np.array([0.5, -1.0]), "classification")
    with pytest.raises(ValueError):
        Dataset(np.array([[np.nan, 0.0]]), np.array([1.0]), "regression")
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 2)), np.array([1.0]), "regression")
    with pytest.raises(ValueError):
        Dataset(np.zeros((0, 2)), np.zeros(0), "regression")


@pytest.mark.parametrize("indices", [
    [True, False, True],   # a mask, not rows 1, 0, 1
    [0.7],                 # not row 0
    np.array([0.0, 1.0]),  # integral floats are still floats
    [-1],                  # no wrap to the last row
    [3],                   # n
], ids=["bool", "float", "integral-float", "negative", "n"])
def test_subset_rejects_what_is_not_a_row_index(indices):
    ds = Dataset(np.zeros((3, 2)), np.zeros(3), "regression")
    with pytest.raises(IndexError):
        ds.subset(indices)


@pytest.mark.parametrize("kind", ["logistic", "ridge"])
def test_gradient_matches_finite_differences(kind):
    rng = np.random.default_rng(5)
    m = LossModel(kind, 1e-4)
    for _ in range(10):
        d = int(rng.integers(1, 8))
        a = rng.standard_normal(d)
        label = float(rng.choice([-1.0, 1.0])) if kind == "logistic" \
            else float(rng.standard_normal())
        s = LabeledSample(a, label)
        x = rng.standard_normal(d)
        g = grad_sample(m, s, x)
        fd = finite_difference_gradient(lambda z: loss_sample(m, s, z), x)
        denom = np.maximum(np.abs(g), 1e-3)
        assert (np.abs(g - fd) / denom <= 1e-5).all()


def test_objective_single_sample_equals_loss(tiny_ridge):
    ds, m, _ = tiny_ridge
    one = ds.subset([3])
    x = np.linspace(-1, 1, ds.dimension)
    assert objective(m, one, x) == loss_sample(m, one[0], x)


def test_objective_duplicate_sample_unchanged(tiny_class):
    ds, m = tiny_class
    two = ds.subset([5, 5])
    x = np.full(ds.dimension, 0.3)
    assert objective(m, two, x) == loss_sample(m, two[0], x)


@pytest.mark.parametrize("fixture", ["tiny_ridge", "tiny_class"])
def test_full_gradient_is_mean_of_sample_gradients(fixture, request):
    parts = request.getfixturevalue(fixture)
    ds, m = parts[0], parts[1]
    rng = np.random.default_rng(9)
    x = rng.standard_normal(ds.dimension)
    per_sample = np.stack([grad_sample(m, ds[i], x) for i in range(len(ds))])
    np.testing.assert_allclose(full_gradient(m, ds, x), per_sample.mean(axis=0),
                               atol=1e-12, rtol=0)


def test_full_gradient_partition_linearity(tiny_ridge):
    ds, m, _ = tiny_ridge
    x = np.arange(ds.dimension, dtype=float) / 10.0
    n = len(ds)
    k = 23
    left, right = ds.subset(range(k)), ds.subset(range(k, n))
    combined = (k * full_gradient(m, left, x)
                + (n - k) * full_gradient(m, right, x)) / n
    np.testing.assert_allclose(full_gradient(m, ds, x), combined, atol=1e-12,
                               rtol=0)


def test_ridge_minimizer_from_normal_equations(tiny_ridge):
    # Closed-form solve of (2/n A'A + 2 lam I) x = (2/n) A' b gives a
    # stationary point of the ridge objective.
    ds, m, _ = tiny_ridge
    n = len(ds)
    A, b = ds.features, ds.labels
    lhs = (2.0 / n) * (A.T @ A) + 2.0 * m.lam * np.eye(ds.dimension)
    rhs = (2.0 / n) * (A.T @ b)
    x_hat = np.linalg.solve(lhs, rhs)
    assert np.linalg.norm(full_gradient(m, ds, x_hat)) <= 1e-8


@pytest.mark.parametrize("fixture", ["tiny_ridge", "tiny_class"])
def test_objective_is_convex_on_segments(fixture, request):
    parts = request.getfixturevalue(fixture)
    ds, m = parts[0], parts[1]
    rng = np.random.default_rng(17)
    for _ in range(100):
        u = rng.standard_normal(ds.dimension)
        v = rng.standard_normal(ds.dimension)
        mid = objective(m, ds, (u + v) / 2.0)
        avg = 0.5 * (objective(m, ds, u) + objective(m, ds, v))
        assert mid <= avg + 1e-12


def test_rel_grad_norm_is_one_at_reference(tiny_ridge):
    ds, m, _ = tiny_ridge
    x0 = np.zeros(ds.dimension)
    assert rel_grad_norm(m, ds, x0, x0) == 1.0


def test_rel_grad_norm_rejects_stationary_reference():
    ds = Dataset(np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros(2), "regression")
    m = LossModel("ridge", 0.0)
    with pytest.raises(ValueError, match="stationary"):
        rel_grad_norm(m, ds, np.ones(2), np.zeros(2))


def test_operations_are_pure(tiny_class):
    ds, m = tiny_class
    x = np.full(ds.dimension, 0.25)
    g1 = full_gradient(m, ds, x)
    g2 = full_gradient(m, ds, x)
    np.testing.assert_array_equal(g1, g2)
    assert objective(m, ds, x) == objective(m, ds, x)


def _sigmoid_vec_masked(z):
    """The masked-indexing sigmoid that _sigmoid_vec replaced, kept as
    its reference."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    e = np.exp(z[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _assert_same_bits(got, want):
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(got[~nan].view(np.uint64),
                                  want[~nan].view(np.uint64))


_SIGMOID_EDGES = (0.0, -0.0, 745.0, -745.0, 746.0, -746.0, 709.8, -709.8,
                  36.8, -36.8, 1e308, -1e308, 5e-324, -5e-324,
                  np.inf, -np.inf, np.nan)


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, st.integers(0, 600),
                  elements=st.one_of(st.floats(width=64),
                                     st.sampled_from(_SIGMOID_EDGES))))
def test_sigmoid_vec_equals_masked_reference(z):
    _assert_same_bits(_sigmoid_vec(z), _sigmoid_vec_masked(z))


def test_sigmoid_vec_equals_masked_reference_on_metric_sized_rows():
    rng = np.random.default_rng(0)
    for scale in np.geomspace(1e-3, 700.0, 24):
        z = scale * rng.standard_normal(5000)
        z[:len(_SIGMOID_EDGES)] = _SIGMOID_EDGES
        _assert_same_bits(_sigmoid_vec(z), _sigmoid_vec_masked(z))
