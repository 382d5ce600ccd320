"""Shared fixtures.  Thread-count pins must run before numpy loads so
every test sees single-threaded, bit-reproducible linear algebra."""

import os

from clozereader import BLAS_THREAD_VARS  # the package's __init__ loads no numpy

for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from clozereader import synthdata  # noqa: E402
from clozereader.corpus import ingest_books, tokenize_book  # noqa: E402


@pytest.fixture(scope="session")
def fixture_library(tmp_path_factory):
    """Five small template books on disk."""
    directory = tmp_path_factory.mktemp("books")
    synthdata.write_fixture_library(directory, n_books=5, rng_seed=0,
                                    n_paragraphs=14)
    return directory


@pytest.fixture(scope="session")
def fixture_books(fixture_library):
    """The same books, ingested and tokenized."""
    raw, errors = ingest_books(fixture_library)
    assert not errors
    return [tokenize_book(book) for book in raw]


@pytest.fixture(scope="session")
def recall_examples():
    """A small batch of pointing-task examples."""
    return synthdata.associative_recall_examples(30, rng_seed=123)


@pytest.fixture(scope="module")
def generated_splits(tmp_path_factory):
    """Splits as ``generate`` writes them and ``read_examples`` reads them:
    overlapping examples share their sentence lists."""
    from clozereader import cli
    from clozereader.cbtio import read_examples

    books, out = tmp_path_factory.mktemp("books"), tmp_path_factory.mktemp("splits")
    synthdata.write_fixture_library(books, n_books=6, rng_seed=0, n_paragraphs=20)
    assert cli.main(["generate", "--books", str(books), "--type", "ne",
                     "--out", str(out), "--seed", "7", "--splits", "0.6,0.2,0.2"]) == 0
    return {s: read_examples(out / f"ne_{s}.txt") for s in ("train", "valid", "test")}


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
