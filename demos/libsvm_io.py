"""Walkthrough: LIBSVM-format text I/O and training from a file.

The parser accepts the common "label idx:val idx:val" sparse text
format (1-based, strictly ascending indices), densifies the features,
and maps labels onto the library's conventions: {-1,+1} pass through,
{0,1} are remapped to {-1,+1}, anything else is treated as regression
targets. format_libsvm is the exact inverse when the dimension is
pinned, except for a regression set whose labels all lie in {0,1} or
{-1,+1}: it comes back as classification, with labels of 0 as -1.

Run as: python3 demos/libsvm_io.py
"""

import os
import tempfile

import numpy as np

from vrlite.bench import ExperimentConfig, run_experiment
from vrlite.data import format_libsvm, load_libsvm, parse_libsvm
from vrlite.model import Dataset

SNIPPET = """\
+1 1:0.5 3:-2
-1 2:0.25
+1 1:-1 2:1 3:1
"""


def main():
    ds = parse_libsvm(SNIPPET)
    print("parsed snippet:", ds)
    print("features:")
    print(ds.features)
    print("labels:", ds.labels)

    # Round trip: format, then parse with the dimension pinned so
    # trailing all-zero columns survive.
    rng = np.random.default_rng(4)
    feats = np.round(rng.standard_normal((6, 4)), 3)
    feats[rng.random((6, 4)) < 0.3] = 0.0
    original = Dataset(feats, rng.standard_normal(6), "regression")
    text = format_libsvm(original)
    back = parse_libsvm(text, expected_d=original.dimension)
    exact = (np.array_equal(back.features, original.features)
             and np.array_equal(back.labels, original.labels))
    print()
    print("format -> parse round trip exact:", exact)
    print("first formatted line:", text.splitlines()[0])

    # Malformed input names the offending line.
    try:
        parse_libsvm("+1 1:0.5\n-1 3:1 2:1\n")
    except ValueError as e:
        print("malformed input rejected:", e)

    # Train straight from a file path via the benchmark config.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "demo.libsvm")
        n, d = 600, 12
        labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        blob = rng.normal(0.4 * labels[:, None], 1.0, size=(n, d))
        with open(path, "w") as fh:
            fh.write(format_libsvm(Dataset(blob, labels, "classification")))
        cfg = ExperimentConfig(algo="vrlite", dataset=f"libsvm:{path}",
                               eta=0.02, epochs=12, seed=0)
        res = run_experiment(cfg)
        print()
        print(f"trained on {path.split(os.sep)[-1]}: "
              f"final rel_grad_norm {res.rows[-1].rel_grad_norm:.2e} "
              f"after {res.rows[-1].epoch} epochs")


if __name__ == "__main__":
    main()
