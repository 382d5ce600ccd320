"""Heuristic word-type labels and the pre-tagged adapter."""

import pytest

from clozereader.corpus import TokenizedBook
from clozereader.tagger import (
    TagAlignmentError,
    TaggerConfig,
    WordType,
    default_config,
    read_pretagged,
    tag_book,
)

NE = WordType.NAMED_ENTITY
CN = WordType.COMMON_NOUN
O = WordType.OTHER


def book(sentences, book_id="b", title="T"):
    return TokenizedBook(book_id=book_id, title=title, sentences=sentences)


@pytest.fixture(scope="module")
def config():
    return default_config()


def test_midsentence_capital_becomes_entity(config):
    sentences = [
        ["Mira", "lit", "the", "lantern", "."],
        ["Then", "Mira", "slept", "."],
    ]
    labels = tag_book(book(sentences), config)
    # Occurrence 2 supplies mid-sentence evidence; both occurrences get it.
    assert labels[0][0] is NE
    assert labels[1][1] is NE


def test_sentence_initial_capital_without_evidence_is_other(config):
    sentences = [["Suddenly", "the", "rain", "stopped", "."]]
    labels = tag_book(book(sentences), config)
    assert labels[0][0] is O


def test_capital_after_quote_is_not_evidence(config):
    sentences = [['"', "Hollis", "waved", ".", '"']]
    labels = tag_book(book(sentences), config)
    assert labels[0][1] is O


def test_capital_after_comma_is_evidence(config):
    sentences = [["Yes", ",", "Hollis", ",", "come", "here", "."]]
    labels = tag_book(book(sentences), config)
    assert labels[0][2] is NE


def test_honorific_is_never_entity(config):
    sentences = [["She", "greeted", "Mr.", "Finch", "warmly", "."]]
    labels = tag_book(book(sentences), config)
    assert labels[0][2] is O
    assert labels[0][3] is NE


def test_lexicon_noun_is_common_noun(config):
    sentences = [["the", "lantern", "swung", "."]]
    labels = tag_book(book(sentences), config)
    assert labels[0][1] is CN


def test_stopword_beats_lexicon():
    config = TaggerConfig(
        noun_lexicon=frozenset({"lantern", "will"}),
        stopwords=frozenset({"will", "the"}),
        honorifics=frozenset(),
    )
    sentences = [["the", "will", "named", "no", "lantern", "."]]
    labels = tag_book(book(sentences), config)
    assert labels[0][1] is O
    assert labels[0][4] is CN


def test_capitalized_token_is_not_a_common_noun(config):
    # "Lantern" at sentence start: capitalized but without entity evidence,
    # and not lowercase, so it cannot take the noun-lexicon label.
    sentences = [["Lantern", "light", "faded", "."]]
    labels = tag_book(book(sentences), config)
    assert labels[0][0] is O


def test_surface_forms_are_independent(config):
    sentences = [
        ["the", "baker", "worked", "."],
        ["She", "paid", "Baker", "today", "."],
    ]
    labels = tag_book(book(sentences), config)
    assert labels[0][1] is CN
    assert labels[1][2] is NE


def test_labels_align_with_tokens(fixture_books, config):
    for item in fixture_books:
        labels = tag_book(item, config)
        assert len(labels) == len(item.sentences)
        for row, sentence in zip(labels, item.sentences):
            assert len(row) == len(sentence)


def test_empty_lexicon_rejected():
    with pytest.raises(ValueError):
        TaggerConfig(
            noun_lexicon=frozenset(),
            stopwords=frozenset(),
            honorifics=frozenset(),
        )


# ----------------------------------------------------------- pre-tagged IO


def test_read_pretagged_round_trip(tmp_path):
    sentences = [["Mira", "lit", "a", "lantern", "."], ["Rain", "fell", "."]]
    path = tmp_path / "tags.txt"
    path.write_text(
        "Mira/NE lit/O a/O lantern/CN ./O\nRain/O fell/O ./O\n", encoding="utf-8"
    )
    labels = read_pretagged(path, book(sentences))
    assert labels == [[NE, O, O, CN, O], [O, O, O]]


def test_read_pretagged_sentence_count_mismatch(tmp_path):
    path = tmp_path / "tags.txt"
    path.write_text("a/O\n", encoding="utf-8")
    with pytest.raises(TagAlignmentError, match="1 sentences"):
        read_pretagged(path, book([["a", "."], ["b", "."]]))


def test_read_pretagged_token_mismatch(tmp_path):
    path = tmp_path / "tags.txt"
    path.write_text("a/O b/O\n", encoding="utf-8")
    with pytest.raises(TagAlignmentError, match="do not match"):
        read_pretagged(path, book([["a", "c"]]))


def test_read_pretagged_ignores_trailing_blank_lines(tmp_path):
    path = tmp_path / "tags.txt"
    path.write_text("a/NE ./O\n\n \n", encoding="utf-8")
    assert read_pretagged(path, book([["a", "."]])) == [[NE, O]]


def test_read_pretagged_malformed_pair(tmp_path):
    path = tmp_path / "tags.txt"
    path.write_text("a/O b\n", encoding="utf-8")
    with pytest.raises(TagAlignmentError, match="sentence 0: malformed pair 'b'"):
        read_pretagged(path, book([["a", "b"]]))


def test_read_pretagged_unknown_tag(tmp_path):
    path = tmp_path / "tags.txt"
    path.write_text("a/VB\n", encoding="utf-8")
    with pytest.raises(TagAlignmentError, match="unknown tag"):
        read_pretagged(path, book([["a"]]))


def test_read_pretagged_token_containing_slash(tmp_path):
    path = tmp_path / "tags.txt"
    path.write_text("either/or/O\n", encoding="utf-8")
    labels = read_pretagged(path, book([["either/or"]]))
    assert labels == [[O]]
