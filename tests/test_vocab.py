"""Vocabulary construction, anonymous-slot encoding, save/load."""

import random

import pytest
from hypothesis import given, strategies as st

from clozereader.clozegen import GAP_TOKEN, ClozeExample
from clozereader.vocab import (
    ANON_START,
    GAP_ID,
    PAD_ID,
    AnonymousSlotsExhausted,
    Vocabulary,
    VocabularyError,
    build_vocab,
    decode_example,
    encode_dataset,
    encode_example,
    load_vocab,
    save_vocab,
)


def make_example(context, question, answer, candidates):
    return ClozeExample(
        context=context, question=question, answer=answer, candidates=candidates
    )


def small_vocab(words=("the", "crow", "lamp"), anon_count=5):
    return Vocabulary(words=list(words), cap=100, anon_count=anon_count)


# --------------------------------------------------------------- id layout


def test_reserved_id_layout():
    vocab = small_vocab()
    assert PAD_ID == 0
    assert GAP_ID == 1
    assert vocab.word_start == ANON_START + 5
    assert vocab.size == vocab.word_start + 3
    assert vocab.token_id("the") == vocab.word_start
    assert vocab.token_id(GAP_TOKEN) == GAP_ID
    assert vocab.token_id("unseen") is None
    assert vocab.is_anonymous(ANON_START)
    assert not vocab.is_anonymous(vocab.word_start)
    assert not vocab.is_anonymous(GAP_ID)


def test_id_token_inverse():
    vocab = small_vocab()
    assert vocab.id_token(vocab.token_id("crow")) == "crow"
    assert vocab.id_token(GAP_ID) == GAP_TOKEN
    with pytest.raises(VocabularyError):
        vocab.id_token(PAD_ID)
    with pytest.raises(VocabularyError):
        vocab.id_token(ANON_START)


def test_duplicate_words_rejected():
    with pytest.raises(VocabularyError, match="duplicate"):
        Vocabulary(words=["a", "a"], cap=10, anon_count=1)


@pytest.mark.parametrize("field", ["cap", "anon_count"])
def test_negative_sizes_rejected(field):
    with pytest.raises(VocabularyError, match=f"{field} must be at least 0, got -5"):
        Vocabulary(words=["a"], **{field: -5})
    with pytest.raises(VocabularyError, match=f"{field} must be at least 0, got -1"):
        build_vocab([make_example([["a", "b"]], ["a", GAP_TOKEN], "a", ["a", "b"])],
                    **{field: -1})


# ------------------------------------------------------------ construction


def test_build_vocab_ranks_by_frequency_then_lexical():
    example = make_example(
        context=[["b", "b", "a", "a", "c"]],
        question=["b", GAP_TOKEN],
        answer="b",
        candidates=["b", "c"],
    )
    vocab = build_vocab([example], cap=2, anon_count=3)
    # b occurs 3x, a 2x, c 1x; cap keeps the top two.
    assert vocab.words == ["b", "a"]
    assert vocab.token_id("c") is None


def test_build_vocab_ties_break_lexicographically():
    example = make_example(
        context=[["pear", "apple"]], question=["x"], answer="x", candidates=["x"]
    )
    vocab = build_vocab([example], cap=10, anon_count=1)
    assert vocab.words[:2] == ["apple", "pear"]


def test_build_vocab_excludes_gap_token():
    example = make_example(
        context=[["a"]], question=[GAP_TOKEN, "a"], answer="a", candidates=["a"]
    )
    vocab = build_vocab([example], cap=10, anon_count=1)
    assert GAP_TOKEN not in vocab.words


def test_build_vocab_reads_files(tmp_path, fixture_dataset_path):
    vocab = build_vocab([fixture_dataset_path], cap=500, anon_count=10)
    assert len(vocab.words) > 0
    assert GAP_TOKEN not in vocab.words


# ---------------------------------------------------------------- encoding


def test_encode_known_tokens():
    vocab = small_vocab()
    example = make_example(
        context=[["the", "crow"], ["the", "lamp"]],
        question=["the", GAP_TOKEN],
        answer="crow",
        candidates=["crow", "lamp"],
    )
    encoded = encode_example(example, vocab, rng_seed=0)
    w = vocab.word_start
    assert encoded.context_ids == [w, w + 1, w, w + 2]
    assert encoded.question_ids == [w, GAP_ID]
    assert encoded.answer_id == w + 1
    assert encoded.candidate_ids == [w + 1, w + 2]
    assert encoded.oov_map == {}


def test_encode_assigns_consistent_anonymous_slots():
    vocab = small_vocab()
    example = make_example(
        context=[["wren", "the", "wren"], ["stoat"]],
        question=["wren", GAP_TOKEN],
        answer="stoat",
        candidates=["stoat", "wren"],
    )
    encoded = encode_example(example, vocab, rng_seed=1)
    wren, stoat = encoded.oov_map["wren"], encoded.oov_map["stoat"]
    assert wren != stoat
    assert all(vocab.is_anonymous(i) for i in (wren, stoat))
    assert encoded.context_ids == [wren, vocab.token_id("the"), wren, stoat]
    assert encoded.answer_id == stoat
    assert encoded.candidate_ids == [stoat, wren]


def test_encode_slots_differ_across_seeds():
    vocab = small_vocab(anon_count=50)
    example = make_example(
        context=[["wren"]], question=[GAP_TOKEN], answer="wren", candidates=["wren"]
    )
    slots = {
        encode_example(example, vocab, rng_seed=seed).oov_map["wren"]
        for seed in range(20)
    }
    assert len(slots) > 1


def test_encode_matches_stdlib_sampling():
    vocab = small_vocab(anon_count=7)
    example = make_example(
        context=[["wren", "stoat"]],
        question=[GAP_TOKEN],
        answer="wren",
        candidates=["wren", "stoat"],
    )
    encoded = encode_example(example, vocab, rng_seed=123)
    expected = random.Random(123).sample(range(7), 2)
    assert encoded.oov_map == {
        "wren": ANON_START + expected[0],
        "stoat": ANON_START + expected[1],
    }


def test_encode_exhausted_slots_raises():
    vocab = small_vocab(anon_count=2)
    example = make_example(
        context=[["wren", "stoat", "otter"]],
        question=[GAP_TOKEN],
        answer="wren",
        candidates=["wren"],
    )
    with pytest.raises(AnonymousSlotsExhausted):
        encode_example(example, vocab, rng_seed=0)


def test_encode_dataset_varies_slots_per_example():
    vocab = small_vocab(anon_count=40)
    example = make_example(
        context=[["wren"]], question=[GAP_TOKEN], answer="wren", candidates=["wren"]
    )
    encoded = encode_dataset([example] * 12, vocab, rng_seed=5)
    slots = {e.oov_map["wren"] for e in encoded}
    assert len(slots) > 1


def test_encode_dataset_is_deterministic():
    vocab = small_vocab(anon_count=40)
    example = make_example(
        context=[["wren", "the"]],
        question=[GAP_TOKEN],
        answer="wren",
        candidates=["wren", "the"],
    )
    one = encode_dataset([example] * 4, vocab, rng_seed=9)
    two = encode_dataset([example] * 4, vocab, rng_seed=9)
    assert [e.context_ids for e in one] == [e.context_ids for e in two]


@given(st.integers(min_value=0, max_value=2**63 - 1))
def test_encode_decode_round_trip(seed):
    vocab = small_vocab(anon_count=10)
    example = make_example(
        context=[["the", "wren", "sang"], ["crow"]],
        question=["the", GAP_TOKEN, "sang"],
        answer="wren",
        candidates=["wren", "crow"],
    )
    encoded = encode_example(example, vocab, seed)
    context, question = decode_example(encoded, vocab)
    assert context == ["the", "wren", "sang", "crow"]
    assert question == ["the", GAP_TOKEN, "sang"]


# -------------------------------------------------------------------- file


def test_save_load_round_trip(tmp_path):
    vocab = small_vocab(words=("alpha", "beta", "gamma"), anon_count=4)
    path = tmp_path / "vocab.txt"
    save_vocab(vocab, path)
    loaded = load_vocab(path)
    assert loaded.words == vocab.words
    assert loaded.cap == vocab.cap
    assert loaded.anon_count == vocab.anon_count
    assert loaded.size == vocab.size


def test_load_rejects_missing_header(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("alpha\nbeta\n", encoding="utf-8")
    with pytest.raises(VocabularyError, match="header"):
        load_vocab(path)


def test_load_rejects_word_count_mismatch(tmp_path):
    vocab = small_vocab(words=("alpha", "beta"), anon_count=2)
    path = tmp_path / "vocab.txt"
    save_vocab(vocab, path)
    text = path.read_text("utf-8")
    path.write_text(text + "extra\n", encoding="utf-8")
    with pytest.raises(VocabularyError, match="declares 2 words"):
        load_vocab(path)
