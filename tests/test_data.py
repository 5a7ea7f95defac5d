import io
import math

import numpy as np
import pytest

from vrlite.data import (
    SyntheticSpec,
    format_libsvm,
    gen_gaussian_classification,
    gen_linear_regression,
    load_libsvm,
    parse_libsvm,
)
from vrlite.model import Dataset


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(n=0)
    with pytest.raises(ValueError):
        SyntheticSpec(d=0)
    with pytest.raises(ValueError):
        SyntheticSpec(task="clustering")
    with pytest.raises(ValueError):
        SyntheticSpec(noise_sigma=-1.0)


def test_classification_generator_shapes_and_balance():
    spec = SyntheticSpec(n=200, d=7, task="classification", seed=3)
    ds = gen_gaussian_classification(spec)
    assert len(ds) == 200
    assert ds.dimension == 7
    assert (ds.labels == -1.0).sum() == 100
    assert (ds.labels == 1.0).sum() == 100
    # The -1 block comes first.
    assert (ds.labels[:100] == -1.0).all()


def test_classification_generator_rejects_odd_n():
    with pytest.raises(ValueError, match="even"):
        gen_gaussian_classification(
            SyntheticSpec(n=3, d=2, task="classification"))


def test_classification_generator_rejects_wrong_task():
    with pytest.raises(ValueError):
        gen_gaussian_classification(SyntheticSpec(task="regression"))
    with pytest.raises(ValueError):
        gen_linear_regression(SyntheticSpec(task="classification"))


def test_classification_means_are_shifted():
    # Class means concentrate near 0 and near the configured shift; a
    # 4-sigma band around the expectation bounds the sample mean.
    spec = SyntheticSpec(n=4000, d=10, task="classification",
                         class_mean_shift=1.0, seed=1)
    ds = gen_gaussian_classification(spec)
    half = len(ds) // 2
    tol = 4.0 / math.sqrt(half * spec.d)
    assert abs(ds.features[:half].mean()) < tol
    assert abs(ds.features[half:].mean() - 1.0) < tol


def test_classification_zero_noise_is_separable_at_midpoint():
    spec = SyntheticSpec(n=40, d=3, task="classification",
                         class_mean_shift=1.0, noise_sigma=0.0, seed=0)
    ds = gen_gaussian_classification(spec)
    # With no noise each class sits exactly on its mean, so the feature
    # average separates the classes at 0.5.
    side = np.sign(ds.features.mean(axis=1) - 0.5)
    np.testing.assert_array_equal(side, ds.labels)


def test_regression_generator_planted_solution():
    spec = SyntheticSpec(n=500, d=8, task="regression", noise_sigma=0.0,
                         seed=9)
    ds, x_star = gen_linear_regression(spec)
    np.testing.assert_allclose(ds.features @ x_star, ds.labels, atol=1e-12,
                               rtol=0)


def test_generators_are_deterministic():
    spec = SyntheticSpec(n=64, d=5, task="classification", seed=42)
    a = gen_gaussian_classification(spec)
    b = gen_gaussian_classification(spec)
    np.testing.assert_array_equal(a.features, b.features)
    rspec = SyntheticSpec(n=64, d=5, task="regression", seed=42)
    ra, xa = gen_linear_regression(rspec)
    rb, xb = gen_linear_regression(rspec)
    np.testing.assert_array_equal(ra.labels, rb.labels)
    np.testing.assert_array_equal(xa, xb)


def test_parse_libsvm_basic():
    text = "+1 1:0.5 3:2.0\n-1 2:-1.5\n"
    ds = parse_libsvm(text)
    assert ds.task == "classification"
    assert ds.dimension == 3
    np.testing.assert_array_equal(ds.labels, [1.0, -1.0])
    np.testing.assert_array_equal(
        ds.features, [[0.5, 0.0, 2.0], [0.0, -1.5, 0.0]])


def test_parse_libsvm_zero_one_labels_remapped():
    ds = parse_libsvm("0 1:1\n1 1:2\n")
    assert ds.task == "classification"
    np.testing.assert_array_equal(ds.labels, [-1.0, 1.0])


def test_parse_libsvm_other_labels_are_regression():
    ds = parse_libsvm("2.5 1:1\n-3.25 1:2\n")
    assert ds.task == "regression"
    np.testing.assert_array_equal(ds.labels, [2.5, -3.25])


def test_parse_libsvm_expected_d_pads_and_caps():
    ds = parse_libsvm("1 1:1\n-1 2:1\n", expected_d=5)
    assert ds.dimension == 5
    with pytest.raises(ValueError, match="line 1.*exceeds"):
        parse_libsvm("1 7:1\n", expected_d=5)


def test_parse_libsvm_skips_blank_lines():
    ds = parse_libsvm("\n1 1:1\n\n\n-1 1:2\n\n")
    assert len(ds) == 2


def test_parse_libsvm_accepts_bytes_and_file_objects():
    blob = b"1 1:1.5\n-1 2:0.25\n"
    a = parse_libsvm(blob)
    b = parse_libsvm(io.BytesIO(blob))
    c = parse_libsvm(io.StringIO(blob.decode()))
    for ds in (b, c):
        np.testing.assert_array_equal(a.features, ds.features)
        np.testing.assert_array_equal(a.labels, ds.labels)


def test_parse_libsvm_error_messages_name_the_line():
    with pytest.raises(ValueError, match="line 1: bad label"):
        parse_libsvm("spam 1:1\n")
    with pytest.raises(ValueError, match="line 2: malformed pair"):
        parse_libsvm("1 1:1\n1 2=3\n")
    with pytest.raises(ValueError, match="line 1: malformed pair"):
        parse_libsvm("1 1:one\n")
    with pytest.raises(ValueError, match="line 3.*1-based"):
        parse_libsvm("1 1:1\n1 1:1\n1 0:2\n")
    with pytest.raises(ValueError, match="line 1.*ascending"):
        parse_libsvm("1 2:1 2:2\n")
    with pytest.raises(ValueError, match="line 1.*ascending"):
        parse_libsvm("1 3:1 2:2\n")
    with pytest.raises(ValueError, match="no records"):
        parse_libsvm("\n\n")
    with pytest.raises(ValueError, match="dimension"):
        parse_libsvm("1\n-1\n")  # labels only, no features anywhere
    for line, what in (("nan 1:1", "label 'nan'"), ("inf 1:1", "label 'inf'"),
                       ("-1 1:inf", "value in '1:inf'"),
                       ("-1 2:nan", "value in '2:nan'")):
        with pytest.raises(ValueError, match=f"^line 2: {what} is not finite$"):
            parse_libsvm(f"1 1:0.5\n{line}\n")


def test_format_parse_round_trip(tiny_ridge):
    ds = tiny_ridge[0]
    text = format_libsvm(ds)
    back = parse_libsvm(text, expected_d=ds.dimension)
    assert back.task == "regression"
    np.testing.assert_array_equal(back.features, ds.features)
    np.testing.assert_array_equal(back.labels, ds.labels)


@pytest.mark.parametrize("labels,back_labels", [
    ([0.0, 1.0, 0.0], [-1.0, 1.0, -1.0]),
    ([1.0, -1.0, 1.0], [1.0, -1.0, 1.0]),
])
def test_round_trip_reads_two_valued_regression_labels_as_classes(labels,
                                                                   back_labels):
    """The one set the round trip does not invert: regression labels that
    all lie in {0, 1} or {-1, +1} come back as classification."""
    ds = Dataset(np.eye(3), np.array(labels), "regression")
    back = parse_libsvm(format_libsvm(ds), expected_d=ds.dimension)
    assert back.task == "classification"
    np.testing.assert_array_equal(back.features, ds.features)
    np.testing.assert_array_equal(back.labels, back_labels)


def test_format_parse_round_trip_sparse_classification():
    features = np.array([[0.0, 2.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    ds = Dataset(features, np.array([1.0, -1.0, 1.0]), "classification")
    text = format_libsvm(ds)
    lines = text.splitlines()
    assert lines[0] == "1 2:2"
    assert lines[2] == "1"  # all-zero row keeps its label
    back = parse_libsvm(text, expected_d=3)
    np.testing.assert_array_equal(back.features, ds.features)
    np.testing.assert_array_equal(back.labels, ds.labels)


def test_load_libsvm_round_trip(tmp_path, tiny_class):
    ds = tiny_class[0]
    path = tmp_path / "slice.txt"
    path.write_text(format_libsvm(ds))
    back = load_libsvm(path, expected_d=ds.dimension)
    np.testing.assert_array_equal(back.features, ds.features)
    np.testing.assert_array_equal(back.labels, ds.labels)
