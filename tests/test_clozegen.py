"""Question generation, candidate selection, splits, stats."""

import pytest

from clozereader.clozegen import (
    GAP_TOKEN,
    ClozeExample,
    ExampleInvariantError,
    SplitError,
    SplitSpec,
    compute_stats,
    dedup_editions,
    generate_from_book,
    normalize_title,
    select_candidates,
    split_books,
)
from clozereader.corpus import TokenizedBook
from clozereader.tagger import WordType

NE = WordType.NAMED_ENTITY
CN = WordType.COMMON_NOUN
O = WordType.OTHER


def make_example(**overrides):
    fields = dict(
        context=[["tok", str(i), "."] for i in range(2)],
        question=["the", GAP_TOKEN, "fell", "."],
        answer="tok",
        candidates=["tok"] + [f"d{i}" for i in range(9)],
    )
    fields.update(overrides)
    return ClozeExample(**fields)


# ----------------------------------------------------------------- validate


def test_validate_accepts_good_example():
    make_example().validate(window=2)


@pytest.mark.parametrize(
    "overrides,message",
    [
        (dict(context=[["a"]]), "context has 1"),
        (dict(context=[["tok"], []]), "empty context sentence"),
        (dict(question=["no", "gap", "here"]), "gap tag appears 0"),
        (dict(question=[GAP_TOKEN, GAP_TOKEN]), "gap tag appears 2"),
        (dict(candidates=["tok", "d1"]), "2 candidates"),
        (dict(candidates=["tok"] * 2 + [f"d{i}" for i in range(8)]), "duplicate"),
        (dict(candidates=[f"d{i}" for i in range(10)]), "answer not among"),
        (dict(answer="tok", context=[["x"], ["y"]],
              candidates=["tok"] + [f"d{i}" for i in range(9)]),
         "answer not present in context"),
    ],
)
def test_validate_rejects_violations(overrides, message):
    with pytest.raises(ExampleInvariantError, match=message):
        make_example(**overrides).validate(window=2)


# -------------------------------------------------------------- candidates


def big_context():
    nouns = ["crow", "door", "tree", "rock", "bird", "fish", "rope",
             "sand", "moss", "grass"]
    context = [["lamp"] + nouns[:5], nouns[5:] + ["lamp"]]
    labels = [[CN] * len(s) for s in context]
    return context, labels


def test_select_candidates_contains_answer_and_ten_forms():
    context, labels = big_context()
    candidates = select_candidates(context, "lamp", CN, labels, rng_seed=5)
    assert candidates is not None
    assert len(candidates) == 10
    assert len(set(candidates)) == 10
    assert "lamp" in candidates


def test_select_candidates_draws_only_matching_type():
    context, labels = big_context()
    labels[0][1] = NE  # "crow" is no longer a common noun
    seen = set()
    for seed in range(30):
        candidates = select_candidates(context, "lamp", CN, labels, seed)
        assert candidates is not None
        seen.update(candidates)
    assert "crow" not in seen


def test_select_candidates_small_pool_returns_none():
    context = [["lamp", "crow"], ["door", "lamp"]]
    labels = [[CN, CN], [CN, CN]]
    assert select_candidates(context, "lamp", CN, labels, 0) is None


def test_select_candidates_is_seeded():
    context, labels = big_context()
    first = select_candidates(context, "lamp", CN, labels, rng_seed=9)
    second = select_candidates(context, "lamp", CN, labels, rng_seed=9)
    assert first == second


# -------------------------------------------------------------- generation


def pointing_book():
    nouns = ["crow", "door", "tree", "rock", "bird", "fish", "rope",
             "sand", "moss", "grass"]
    sentences = [
        ["lamp"] + nouns[:5],
        nouns[5:] + ["lamp"],
        ["the", "lamp", "fell", "."],
    ]
    labels = [
        [CN] * 6,
        [CN] * 5,
        [O, CN, O, O],
    ]
    return TokenizedBook(book_id="b", title="T", sentences=sentences), labels


def test_generate_emits_valid_example():
    book, labels = pointing_book()
    examples, report = generate_from_book(book, labels, CN, window=2)
    assert report.examined == 1
    assert report.emitted == 1
    (example,) = examples
    example.validate(window=2)
    assert example.answer == "lamp"
    assert example.question == ["the", GAP_TOKEN, "fell", "."]
    assert example.source == ("b", 2)
    assert example.word_type is CN


def test_generate_prefers_least_recent_context_occurrence():
    # "door" was last seen before "lamp", so "door" becomes the gap.
    sentences = [
        ["door", "crow", "tree", "rock", "bird", "fish"],
        ["rope", "sand", "moss", "grass", "lamp"],
        ["the", "lamp", "hit", "the", "door", "."],
    ]
    labels = [[CN] * 6, [CN] * 5, [O, CN, O, O, CN, O]]
    book = TokenizedBook(book_id="b", title="T", sentences=sentences)
    examples, _ = generate_from_book(book, labels, CN, window=2)
    assert examples[0].answer == "door"


def test_generate_skips_when_no_question_token_qualifies():
    book, labels = pointing_book()
    labels = [row[:] for row in labels]
    labels[2] = [O, O, O, O]  # nothing in the question sentence is a noun
    _, report = generate_from_book(book, labels, CN, window=2)
    assert report.emitted == 0
    assert report.skipped_no_qualifying == 1


def test_generate_skips_small_candidate_pool():
    sentences = [
        ["lamp", "crow"],
        ["door", "lamp"],
        ["the", "lamp", "fell", "."],
    ]
    labels = [[CN, CN], [CN, CN], [O, CN, O, O]]
    book = TokenizedBook(book_id="b", title="T", sentences=sentences)
    _, report = generate_from_book(book, labels, CN, window=2)
    assert report.skipped_small_pool == 1
    assert report.emitted == 0


def test_generate_short_book_yields_nothing():
    book = TokenizedBook(book_id="b", title="T", sentences=[["one"], ["two"]])
    examples, report = generate_from_book(book, [[O], [O]], CN, window=2)
    assert examples == []
    assert report.examined == 0


def test_generate_respects_stride():
    base, base_labels = pointing_book()
    sentences = base.sentences + [["the", "lamp", "rose", "."]] * 2
    labels = base_labels + [[O, CN, O, O]] * 2
    book = TokenizedBook(book_id="b", title="T", sentences=sentences)
    _, report = generate_from_book(book, labels, CN, window=2, stride=2)
    assert report.examined == 2  # question indices 2 and 4


@pytest.mark.parametrize("stride", [0, -1])
def test_generate_rejects_stride_below_1(stride):
    book, labels = pointing_book()
    with pytest.raises(ValueError, match=f"stride must be positive, got {stride}"):
        generate_from_book(book, labels, CN, window=2, stride=stride)


def test_generate_is_deterministic():
    book, labels = pointing_book()
    first, _ = generate_from_book(book, labels, CN, window=2, rng_seed=3)
    second, _ = generate_from_book(book, labels, CN, window=2, rng_seed=3)
    assert [e.candidates for e in first] == [e.candidates for e in second]


def test_generate_rejects_misaligned_labels():
    book, labels = pointing_book()
    with pytest.raises(ValueError, match="label rows"):
        generate_from_book(book, labels[:-1], CN, window=2)


def test_fixture_books_generate_clean_examples(fixture_books):
    from clozereader.tagger import default_config, tag_book

    config = default_config()
    total = 0
    for book in fixture_books:
        labels = tag_book(book, config)
        examples, report = generate_from_book(book, labels, NE, rng_seed=1)
        assert report.examined == report.emitted + \
            report.skipped_no_qualifying + report.skipped_small_pool
        for example in examples:
            example.validate()
        total += len(examples)
    assert total > 0


# ------------------------------------------------------------------ splits


def test_normalize_title():
    assert normalize_title("The Amber Mill!") == "amber mill"
    assert normalize_title("A  Quiet   Shore") == "quiet shore"
    assert normalize_title("an ANCIENT gate") == "ancient gate"
    assert normalize_title("Orchard") == "orchard"


def test_dedup_editions_removes_blocklisted():
    books = [
        TokenizedBook(book_id="a", title="The Amber Mill", sentences=[["x"]]),
        TokenizedBook(book_id="b", title="Quiet Shore", sentences=[["x"]]),
    ]
    kept, removed = dedup_editions(books, ["amber mill?"])
    assert [b.book_id for b in kept] == ["b"]
    assert removed == [("a", "The Amber Mill")]


def test_split_books_partitions_without_overlap():
    books = [
        TokenizedBook(book_id=f"b{i}", title=f"T{i}", sentences=[["x"]])
        for i in range(10)
    ]
    splits = split_books(books, SplitSpec(rng_seed=4))
    ids = [b.book_id for name in ("train", "valid", "test") for b in splits[name]]
    assert sorted(ids) == sorted(b.book_id for b in books)
    assert len(splits["train"]) == 8
    assert len(splits["valid"]) == 1
    assert len(splits["test"]) == 1


def test_split_books_fills_every_nonzero_split():
    books = [
        TokenizedBook(book_id=f"b{i}", title=f"T{i}", sentences=[["x"]])
        for i in range(5)
    ]
    splits = split_books(books, SplitSpec(rng_seed=0))
    assert all(splits[name] for name in ("train", "valid", "test"))


def test_split_books_is_seeded():
    books = [
        TokenizedBook(book_id=f"b{i}", title=f"T{i}", sentences=[["x"]])
        for i in range(8)
    ]
    one = split_books(books, SplitSpec(rng_seed=2))
    two = split_books(books, SplitSpec(rng_seed=2))
    assert {k: [b.book_id for b in v] for k, v in one.items()} == \
        {k: [b.book_id for b in v] for k, v in two.items()}


def test_split_books_rejects_bad_fractions():
    books = [TokenizedBook(book_id="b", title="T", sentences=[["x"]])]
    with pytest.raises(SplitError, match="sum to 1"):
        split_books(books, SplitSpec(train=0.5, valid=0.2, test=0.2))
    with pytest.raises(SplitError, match="negative"):
        split_books(books, SplitSpec(train=1.2, valid=-0.2, test=0.0))


def test_split_books_needs_enough_books():
    books = [
        TokenizedBook(book_id=f"b{i}", title=f"T{i}", sentences=[["x"]])
        for i in range(2)
    ]
    with pytest.raises(SplitError, match="cannot fill"):
        split_books(books, SplitSpec())


# ------------------------------------------------------------------- stats


def test_compute_stats_hand_values():
    examples = [
        make_example(),
        make_example(context=[["a", "b", "c"], ["d"]]),
    ]
    stats = compute_stats(examples)
    assert stats.n_queries == 2
    assert stats.max_options == 10
    assert stats.avg_options == 10.0
    # 6 context + 4 question tokens, then 4 context + 4 question tokens.
    assert stats.avg_tokens == (10 + 8) / 2
    assert stats.vocab_size == len(
        {"tok", "0", "1", ".", "the", "fell", "a", "b", "c", "d"}
    )


def test_compute_stats_empty():
    stats = compute_stats([])
    assert stats.n_queries == 0
    assert stats.vocab_size == 0
