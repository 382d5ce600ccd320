"""Vocabulary construction, anonymous-slot encoding, save/load."""

import gc
import random
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clozereader.asreader import Batch
from clozereader.cbtio import read_examples, write_examples
from clozereader.clozegen import GAP_TOKEN, ClozeExample
from clozereader.seeding import derive_seed
from clozereader.training import TrainConfig, make_batches
from clozereader.vocab import (
    ANON_START,
    GAP_ID,
    PAD_ID,
    AnonymousSlotsExhausted,
    EncodedExample,
    Vocabulary,
    VocabularyError,
    build_vocab,
    EncodedCorpus,
    as_corpus,
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


# ------------------------------------------------- per-token reference


def reference_words(examples, cap):
    counts = Counter()
    for example in examples:
        for token in [t for s in example.context for t in s] + example.question:
            counts[token] += 1
    counts.pop(GAP_TOKEN, None)
    return [w for w, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))][:cap]


def reference_encode(example, vocab, rng_seed):
    """One id lookup per token: the gap tag first, then the word list."""
    word_ids = {w: vocab.word_start + i for i, w in enumerate(vocab.words)}

    def token_id(token):
        return GAP_ID if token == GAP_TOKEN else word_ids.get(token)

    oov_forms = []
    for token in [t for s in example.context for t in s] + example.question + example.candidates:
        if token_id(token) is None and token not in oov_forms:
            oov_forms.append(token)
    if len(oov_forms) > vocab.anon_count:
        raise AnonymousSlotsExhausted(f"{len(oov_forms)} forms")
    slots = random.Random(rng_seed).sample(range(vocab.anon_count), len(oov_forms))
    oov_map = {form: ANON_START + slot for form, slot in zip(oov_forms, slots)}

    def encode(token):
        known = token_id(token)
        return known if known is not None else oov_map[token]

    return EncodedExample(
        context_ids=[encode(t) for s in example.context for t in s],
        question_ids=[encode(t) for t in example.question],
        answer_id=encode(example.answer),
        candidate_ids=[encode(t) for t in example.candidates],
        oov_map=oov_map,
        source=example.source,
    )


BATCH_FIELDS = ("context", "context_lengths", "question", "question_lengths", "answers",
                "candidates", "indices")


def reference_batch(rows, indices):
    """Padded int64 arrays filled one example at a time."""
    b = len(rows)
    t = max(len(ex.context_ids) for ex in rows)
    q = max(len(ex.question_ids) for ex in rows)
    arrays = {
        "context": np.full((b, t), PAD_ID, dtype=np.int64),
        "context_lengths": np.zeros(b, dtype=np.int64),
        "question": np.full((b, q), PAD_ID, dtype=np.int64),
        "question_lengths": np.zeros(b, dtype=np.int64),
        "answers": np.zeros(b, dtype=np.int64),
        "candidates": np.zeros((b, len(rows[0].candidate_ids)), dtype=np.int64),
        "indices": np.asarray(indices, dtype=np.int64),
    }
    for i, ex in enumerate(rows):
        arrays["context"][i, : len(ex.context_ids)] = ex.context_ids
        arrays["question"][i, : len(ex.question_ids)] = ex.question_ids
        arrays["context_lengths"][i] = len(ex.context_ids)
        arrays["question_lengths"][i] = len(ex.question_ids)
        arrays["answers"][i] = ex.answer_id
        arrays["candidates"][i] = ex.candidate_ids
    return arrays


def assert_batch_matches(batch, expected, indices=None):
    """``batch`` holds the reference arrays of ``expected[i]`` for its indices."""
    if indices is None:
        indices = batch.indices.tolist()
    reference = reference_batch([expected[i] for i in indices], indices)
    for name in BATCH_FIELDS:
        got, want = getattr(batch, name), reference[name]
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        np.testing.assert_array_equal(got, want, err_msg=name)


# Two-letter forms, copied on each draw, so equal tokens are distinct objects.
FORM = st.sampled_from(["ab", "cd", "ef", "gh", "ij", "kl", GAP_TOKEN]).map(lambda f: f[:1] + f[1:])


@st.composite
def cloze_examples(draw):
    tokens = st.lists(FORM, min_size=1, max_size=6)
    candidates = draw(st.lists(FORM, min_size=1, max_size=4, unique=True))
    return make_example(
        context=draw(st.lists(tokens, min_size=1, max_size=3)),
        question=draw(tokens),
        answer=draw(st.sampled_from(candidates)),
        candidates=candidates,
    )


@settings(max_examples=200, deadline=None)
@given(
    examples=st.lists(cloze_examples(), min_size=1, max_size=4),
    cap=st.sampled_from([0, 1, 5, 200_000]),
    anon_count=st.integers(min_value=0, max_value=8),
    gap_at=st.none() | st.integers(min_value=0, max_value=6),
    rng_seed=st.integers(min_value=0, max_value=2**63 - 1),
)
def test_encoding_matches_a_per_token_reference(examples, cap, anon_count, gap_at, rng_seed):
    words = build_vocab(examples, cap=cap).words
    assert words == reference_words(examples, cap)
    if gap_at is not None:
        words.insert(gap_at, GAP_TOKEN)
    vocab = Vocabulary(words=words, cap=cap, anon_count=anon_count)
    expected = []
    for index, example in enumerate(examples):
        seed = derive_seed(rng_seed, "anon", index)
        try:
            expected.append(reference_encode(example, vocab, seed))
        except AnonymousSlotsExhausted:
            with pytest.raises(AnonymousSlotsExhausted):
                encode_example(example, vocab, seed)
            with pytest.raises(AnonymousSlotsExhausted):
                encode_dataset(examples, vocab, rng_seed)
            return
        assert encode_example(example, vocab, seed) == expected[-1]
    corpus = encode_dataset(examples, vocab, rng_seed)
    assert list(corpus) == expected
    same = [i for i, e in enumerate(expected)
            if len(e.candidate_ids) == len(expected[0].candidate_ids)]
    for indices in (same, same[::-1]):
        assert_batch_matches(Batch.from_corpus(corpus, indices), expected, indices)
    assert_batch_matches(Batch.from_examples([expected[i] for i in same]),
                         [expected[i] for i in same], list(range(len(same))))


# ------------------------------------------- generated splits, shared lists


def unshared(examples):
    """The same examples with every list a separate object."""
    return [make_example([list(s) for s in e.context], list(e.question), e.answer,
                         list(e.candidates)) for e in examples]


@pytest.mark.parametrize("cap", [200_000, 40])
@pytest.mark.parametrize("sharing", ["read", "unshared"])
def test_generated_splits_match_a_per_token_reference(generated_splits, cap, sharing):
    splits = generated_splits
    if sharing == "unshared":
        splits = {s: unshared(examples) for s, examples in splits.items()}
    vocab = build_vocab(splits["train"], cap=cap, anon_count=1000)
    assert vocab.words == reference_words(splits["train"], cap)
    for split, examples in splits.items():
        seed = derive_seed(7, split)
        expected = [reference_encode(example, vocab, derive_seed(seed, "anon", index))
                    for index, example in enumerate(examples)]
        corpus = encode_dataset(examples, vocab, seed)
        assert list(corpus) == expected
        for batch in make_batches(corpus, TrainConfig(batch_size=32), derive_seed(seed, "epoch")):
            assert_batch_matches(batch, expected)
        order = np.argsort(corpus.context_lengths(), kind="stable")
        for start in range(0, len(order), 32):  # evaluate's batches
            assert_batch_matches(Batch.from_corpus(corpus, order[start:start + 32]), expected)
    if cap == 40:  # the cap leaves unknown forms in every split
        assert all(any(e.oov_map for e in encode_dataset(examples, vocab, 0))
                   for examples in splits.values())


def test_a_slice_is_a_corpus_that_shares_the_arrays(generated_splits):
    examples = generated_splits["valid"]
    corpus = encode_dataset(examples, build_vocab(examples, cap=40), 3)
    rows = list(corpus)
    part = corpus[5:17]
    assert isinstance(part, EncodedCorpus) and list(part) == rows[5:17]
    assert list(corpus[::-3]) == rows[::-3]
    assert np.shares_memory(part.sentence_rows, corpus.sentence_rows)
    assert part.sentences is corpus.sentences
    assert corpus[-1] == rows[-1] and len(corpus[len(corpus):]) == 0
    with pytest.raises(IndexError):
        corpus[len(corpus)]
    assert as_corpus(corpus) is corpus
    assert list(as_corpus(rows)) == rows


def no_repeated_line(examples):
    """The examples with every context line made distinct: a line whose
    text was seen before gets one of its own tokens appended until it is new."""
    seen, out = set(), []
    for example in examples:
        context = []
        for sentence in example.context:
            sentence = list(sentence)
            while " ".join(sentence) in seen:
                sentence.append(sentence[len(seen) % len(sentence)])
            seen.add(" ".join(sentence))
            context.append(sentence)
        out.append(make_example(context, list(example.question), example.answer,
                                list(example.candidates)))
    return out


def encoded_bytes_per_context_token(examples, vocab):
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        corpus = encode_dataset(examples, vocab, 7)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(corpus) == len(examples)
    return grown / sum(len(s) for e in examples for s in e.context)


def test_encoded_contexts_take_at_most_2_bytes_per_token_when_lines_repeat(generated_splits):
    examples = generated_splits["train"]
    vocab = build_vocab(examples, cap=200_000)
    assert encoded_bytes_per_context_token(examples, vocab) <= 2


def test_encoded_contexts_take_at_most_6_bytes_per_token_when_no_line_repeats(
        generated_splits, tmp_path):
    path = tmp_path / "norepeat.txt"
    write_examples(no_repeated_line(generated_splits["train"]), path)
    examples = read_examples(path)
    lines = [" ".join(s) for e in examples for s in e.context]
    assert len(set(lines)) == len(lines)
    vocab = build_vocab(examples, cap=200_000)
    assert encoded_bytes_per_context_token(examples, vocab) <= 6


def test_generated_splits_share_sentence_lists(generated_splits):
    examples = generated_splits["train"]
    lines = sum(len(e.context) for e in examples)
    assert len({id(s) for e in examples for s in e.context}) < lines / 5


def test_exhausted_slots_message_is_unchanged_on_a_generated_split(generated_splits):
    examples = generated_splits["train"]
    vocab = Vocabulary(words=build_vocab(examples, cap=40).words, cap=40, anon_count=3)

    def unknown(example):
        forms = [*(t for s in example.context for t in s), *example.question,
                 *example.candidates]
        return {t for t in forms if vocab.token_id(t) is None}

    first = next(e for e in examples if len(unknown(e)) > 3)
    message = (f"{len(unknown(first))} unknown forms exceed 3 anonymous slots "
               f"(source {first.source})")
    with pytest.raises(AnonymousSlotsExhausted, match=f"^{re.escape(message)}$"):
        encode_dataset(examples, vocab, 7)


def test_the_anonymous_seed_is_derived_only_for_examples_with_unknown_forms(
        generated_splits, monkeypatch):
    import clozereader.vocab as vocab_module

    examples = generated_splits["valid"]
    vocab = build_vocab(examples, cap=200_000)
    derived = []

    def counting(*args):
        derived.append(args)
        return derive_seed(*args)

    monkeypatch.setattr(vocab_module, "derive_seed", counting)
    encoded = encode_dataset(examples, vocab, 5)
    assert not any(e.oov_map for e in encoded)
    assert derived == []
    small = Vocabulary(words=vocab.words[:40], cap=40, anon_count=1000)
    encoded = encode_dataset(examples, small, 5)
    assert derived == [(5, "anon", i) for i, e in enumerate(encoded) if e.oov_map]
    assert list(encoded) == [reference_encode(e, small, derive_seed(5, "anon", i))
                       for i, e in enumerate(examples)]


def test_a_list_held_twice_is_counted_and_encoded_twice():
    shared = ["ab", "cd", "ab"]
    examples = [
        make_example([shared, shared], ["ab", GAP_TOKEN], "ab", ["ab", "ef"]),
        make_example([["ef"]], ["cd", GAP_TOKEN], "ef", ["ab", "ef"]),
        make_example([shared, ["ef", "cd"]], ["ef", GAP_TOKEN], "cd", ["cd", "ef"]),
    ]
    vocab = build_vocab(examples, cap=2, anon_count=4)
    assert vocab.words == reference_words(examples, 2) == ["ab", "cd"]
    assert list(encode_dataset(examples, vocab, 3)) == [
        reference_encode(e, vocab, derive_seed(3, "anon", i)) for i, e in enumerate(examples)
    ]


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
