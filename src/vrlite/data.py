"""Synthetic dataset generators and LIBSVM-format text I/O.

Generators are pure functions of their spec (including the seed): the
same spec always yields bitwise-identical arrays. Draw order is part of
the contract and documented per generator.
"""

from __future__ import annotations

import io
import math
import os
from dataclasses import dataclass

import numpy as np

from .model import Dataset, TASKS


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters for the synthetic generators.

    class_mean_shift is the mean of the +1 class (the -1 class is
    centered at 0); noise_sigma is the per-coordinate feature standard
    deviation for classification and the label noise scale for
    regression.
    """

    n: int = 5000
    d: int = 20
    task: str = "classification"
    class_mean_shift: float = 1.0
    noise_sigma: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise ValueError("n and d must be >= 1")
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if not self.noise_sigma >= 0.0:
            raise ValueError("noise_sigma must be >= 0")


def gen_gaussian_classification(spec: SyntheticSpec) -> Dataset:
    """Two balanced Gaussian classes: n/2 samples of class -1 drawn
    N(0, sigma^2) per coordinate, then n/2 samples of class +1 drawn
    N(shift, sigma^2). Requires even n. Draw order: the -1 block first,
    then the +1 block."""
    if spec.task != "classification":
        raise ValueError("spec.task must be 'classification'")
    if spec.n % 2 != 0:
        raise ValueError("classification generator needs even n")
    rng = np.random.default_rng(spec.seed)
    half = spec.n // 2
    neg = rng.normal(0.0, spec.noise_sigma, size=(half, spec.d))
    pos = rng.normal(spec.class_mean_shift, spec.noise_sigma, size=(half, spec.d))
    features = np.vstack([neg, pos])
    labels = np.concatenate([np.full(half, -1.0), np.full(half, 1.0)])
    return Dataset(features, labels, "classification")


def gen_linear_regression(spec: SyntheticSpec) -> tuple[Dataset, np.ndarray]:
    """Gaussian design with a planted coefficient vector: A is (n, d)
    standard normal, x_star is standard normal, and b = A x_star + eps
    with eps ~ N(0, noise_sigma^2). Draw order: A, then x_star, then
    eps. Returns the dataset and x_star so tests can use the planted
    solution as an oracle."""
    if spec.task != "regression":
        raise ValueError("spec.task must be 'regression'")
    rng = np.random.default_rng(spec.seed)
    A = rng.standard_normal((spec.n, spec.d))
    x_star = rng.standard_normal(spec.d)
    eps = spec.noise_sigma * rng.standard_normal(spec.n)
    b = A @ x_star + eps
    return Dataset(A, b, "regression"), x_star


def _classify_labels(raw: np.ndarray) -> tuple[np.ndarray, str]:
    """Map parsed labels onto the library's alphabet. Labels already in
    {-1, +1} pass through; {0, 1} inputs are remapped (0 -> -1); any
    other label set is treated as regression targets."""
    values = set(np.unique(raw))
    if values <= {-1.0, 1.0}:
        return raw, "classification"
    if values <= {0.0, 1.0}:
        return np.where(raw == 0.0, -1.0, 1.0), "classification"
    return raw, "regression"


def parse_libsvm(source, expected_d: int | None = None) -> Dataset:
    """Parse LIBSVM text: one "label idx:val idx:val ..." record per
    line, indices 1-based and strictly ascending. Accepts str or bytes
    content, or a file-like object. Features are densified; the
    dimension is expected_d when given, otherwise the largest index
    seen. Blank lines are skipped. Malformed input, a NaN or infinite
    label or value included, raises ValueError naming the offending
    line number."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = source
    if isinstance(text, bytes):
        text = text.decode("utf-8")

    rows: list[dict[int, float]] = []
    raw_labels: list[float] = []
    max_index = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        tokens = line.split()
        try:
            label = float(tokens[0])
        except ValueError:
            raise ValueError(f"line {lineno}: bad label {tokens[0]!r}") from None
        if not math.isfinite(label):
            raise ValueError(f"line {lineno}: label {tokens[0]!r} is not finite")
        entries: dict[int, float] = {}
        prev = 0
        for tok in tokens[1:]:
            idx_s, sep, val_s = tok.partition(":")
            if not sep:
                raise ValueError(f"line {lineno}: malformed pair {tok!r}")
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise ValueError(f"line {lineno}: malformed pair {tok!r}") from None
            if not math.isfinite(val):
                raise ValueError(f"line {lineno}: value in {tok!r} is not finite")
            if idx < 1:
                raise ValueError(f"line {lineno}: index {idx} is not 1-based")
            if idx <= prev:
                raise ValueError(
                    f"line {lineno}: indices must be strictly ascending "
                    f"({idx} after {prev})")
            if expected_d is not None and idx > expected_d:
                raise ValueError(
                    f"line {lineno}: index {idx} exceeds expected dimension "
                    f"{expected_d}")
            entries[idx] = val
            prev = idx
        rows.append(entries)
        raw_labels.append(label)
        max_index = max(max_index, prev)

    if not rows:
        raise ValueError("no records found")
    d = expected_d if expected_d is not None else max_index
    if d < 1:
        raise ValueError("cannot infer a positive dimension (no features seen)")

    features = np.zeros((len(rows), d))
    for r, entries in enumerate(rows):
        for idx, val in entries.items():
            features[r, idx - 1] = val
    labels, task = _classify_labels(np.asarray(raw_labels, dtype=np.float64))
    return Dataset(features, labels, task)


def load_libsvm(path: str | os.PathLike, expected_d: int | None = None) -> Dataset:
    """parse_libsvm over the contents of a file."""
    with open(path, "rb") as fh:
        return parse_libsvm(fh, expected_d=expected_d)


def format_libsvm(ds: Dataset) -> str:
    """Render a Dataset as LIBSVM text (nonzero entries only, 1-based
    ascending indices, 17-significant-digit values). parse_libsvm with
    expected_d=ds.dimension inverts this exactly, except for a regression
    set whose labels all lie in {0, 1} or {-1, +1}: the parser reads it
    as classification, with labels of 0 as -1."""
    out = io.StringIO()
    for i in range(len(ds)):
        out.write(format(ds.labels[i], ".17g"))
        row = ds.features[i]
        for j in np.nonzero(row)[0]:
            out.write(f" {j + 1}:{format(row[j], '.17g')}")
        out.write("\n")
    return out.getvalue()
