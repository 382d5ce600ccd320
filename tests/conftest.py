"""Shared fixtures.  Thread-count pins must run before numpy loads so
every test sees single-threaded, bit-reproducible linear algebra."""

import os

for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
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


@pytest.fixture(scope="session")
def fixture_dataset(fixture_books):
    """Named-entity examples generated from the fixture books."""
    from clozereader.clozegen import generate_from_book
    from clozereader.tagger import WordType, default_config, tag_book

    config = default_config()
    examples = []
    for book in fixture_books:
        labels = tag_book(book, config)
        generated, _ = generate_from_book(
            book, labels, WordType.NAMED_ENTITY, rng_seed=7
        )
        examples.extend(generated)
    assert examples
    return examples


@pytest.fixture(scope="session")
def fixture_dataset_path(fixture_dataset, tmp_path_factory):
    """The same examples written out as a question file."""
    from clozereader.cbtio import write_examples

    path = tmp_path_factory.mktemp("dataset") / "ne_train.txt"
    write_examples(fixture_dataset, path)
    return path


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
