"""The CLI gives the output pinned in `tests/golden/corpus.json`: the same
bytes where the environment fingerprint matches the one the corpus was
made in, and the same discrete outcomes everywhere. See
`tests/golden/corpus.py` for the cases and how to regenerate them."""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).with_name("golden")
_spec = importlib.util.spec_from_file_location("corpus", GOLDEN / "corpus.py")
corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus)


@pytest.fixture(scope="module")
def outcomes():
    return json.loads(corpus.CORPUS.read_text()), corpus.collect()


def test_corpus_discrete_outcomes(outcomes):
    want, got = outcomes
    assert got["cases"].keys() == want["cases"].keys()
    for name, case in want["cases"].items():
        assert ({k: got["cases"][name][k] for k in corpus.DISCRETE}
                == {k: case[k] for k in corpus.DISCRETE}), name


def test_corpus_bytes(outcomes):
    want, got = outcomes
    if got["fingerprint"] != want["fingerprint"]:
        pytest.skip(f"bytes unchecked: environment {got['fingerprint']} is not "
                    f"the corpus's {want['fingerprint']}")
    for name, case in want["cases"].items():
        assert got["cases"][name] == case, name
