"""Question generation, candidate selection, splits, stats."""

import math
import random
from collections import Counter

import pytest

from clozereader.clozegen import (
    DEFAULT_WINDOW,
    GAP_TOKEN,
    N_CANDIDATES,
    ClozeExample,
    ExampleInvariantError,
    GenerationReport,
    SplitError,
    SplitSpec,
    compute_stats,
    count_forms,
    dedup_editions,
    generate_from_book,
    normalize_title,
    select_candidates,
    split_books,
)
from clozereader.corpus import TokenizedBook
from clozereader.seeding import derive_seed
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


POOL = {"lamp", "crow", "door", "tree", "rock", "bird", "fish", "rope",
        "sand", "moss", "grass"}


def test_select_candidates_contains_answer_and_ten_forms():
    candidates = select_candidates("lamp", POOL, rng_seed=5)
    assert candidates is not None
    assert len(candidates) == 10
    assert len(set(candidates)) == 10
    assert "lamp" in candidates
    assert set(candidates) <= POOL


def test_select_candidates_small_pool_returns_none():
    # The answer itself is no distractor: this pool offers only eight.
    pool = {"lamp", "crow", "door", "tree", "rock", "bird", "fish", "rope", "sand"}
    assert select_candidates("lamp", pool, 0) is None
    assert select_candidates("lamp", pool | {"moss"}, 0) is not None


def test_select_candidates_is_seeded():
    first = select_candidates("lamp", POOL, rng_seed=9)
    # The pool's order does not matter, only its forms.
    second = select_candidates("lamp", sorted(POOL, reverse=True), rng_seed=9)
    assert first == second
    assert any(select_candidates("lamp", POOL, seed) != first for seed in range(5))


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


def test_generate_draws_only_matching_type():
    book, labels = pointing_book()
    seen = {True: set(), False: set()}
    for crow_is_noun in (True, False):
        relabeled = [row[:] for row in labels]
        relabeled[0][1] = CN if crow_is_noun else NE
        for seed in range(30):
            (example,), _ = generate_from_book(book, relabeled, CN, window=2,
                                               rng_seed=seed)
            seen[crow_is_noun].update(example.candidates)
    assert "crow" in seen[True]
    assert "crow" not in seen[False]


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


def test_generate_shares_context_sentences_and_owns_question():
    # Contexts are slices of the book's sentence list, not copies: every
    # example whose window overlaps holds the same sentence lists.
    base, base_labels = pointing_book()
    sentences = base.sentences[:2] + [list(base.sentences[0]), base.sentences[2]]
    labels = base_labels[:2] + [[CN] * 6, base_labels[2]]
    book = TokenizedBook(book_id="b", title="T", sentences=sentences)
    first, second = generate_from_book(book, labels, CN, window=2)[0]
    assert first.context[1] is book.sentences[1]
    assert second.context[0] is first.context[1]
    assert first.question is not book.sentences[2]
    assert GAP_TOKEN not in book.sentences[2]


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


# ------------------------------------------------------ reference generator


def reference_generate(book, labels, target_type, window=DEFAULT_WINDOW,
                       rng_seed=0, stride=1):
    """The brute-force generator that walks every window twice per
    question, kept as the oracle for the indexed one."""
    examples = []
    report = GenerationReport()
    for i in range(window, len(book.sentences), stride):
        report.examined += 1
        context = book.sentences[i - window:i]
        context_labels = labels[i - window:i]
        question_sentence = book.sentences[i]
        question_labels = labels[i]

        last_seen = {}
        flat_pos = 0
        for sentence in context:
            for token in sentence:
                last_seen[token] = flat_pos
                flat_pos += 1

        best = None
        for j, (token, label) in enumerate(zip(question_sentence, question_labels)):
            if label is not target_type or token not in last_seen:
                continue
            key = (last_seen[token], j)
            if best is None or key < best:
                best = key
        if best is None:
            report.skipped_no_qualifying += 1
            continue

        _, gap_index = best
        answer = question_sentence[gap_index]
        question = list(question_sentence)
        question[gap_index] = GAP_TOKEN

        pool = set()
        for sentence, sentence_labels in zip(context, context_labels):
            for token, label in zip(sentence, sentence_labels):
                if label is target_type and token != answer:
                    pool.add(token)
        if len(pool) < N_CANDIDATES - 1:
            report.skipped_small_pool += 1
            continue
        rng = random.Random(derive_seed(rng_seed, "candidates", book.book_id, i))
        candidates = [answer] + rng.sample(sorted(pool), N_CANDIDATES - 1)
        rng.shuffle(candidates)

        examples.append(ClozeExample(
            context=[list(s) for s in context],
            question=question,
            answer=answer,
            candidates=candidates,
            source=(book.book_id, i),
        ))
        report.emitted += 1
    return examples, report


def assert_matches_reference(book, labels, target_type, window, stride, rng_seed=4):
    got = generate_from_book(book, labels, target_type, window=window,
                             rng_seed=rng_seed, stride=stride)
    want = reference_generate(book, labels, target_type, window=window,
                              rng_seed=rng_seed, stride=stride)
    assert got == want
    return want


@pytest.mark.parametrize("stride_of", [lambda w: 1, lambda w: 3, lambda w: w,
                                       lambda w: w + 5],
                         ids=["1", "3", "window", "window+5"])
@pytest.mark.parametrize("window", [2, DEFAULT_WINDOW])
@pytest.mark.parametrize("target_type", [NE, CN], ids=["NE", "CN"])
def test_generate_matches_reference_on_fixture_books(fixture_books, target_type,
                                                     window, stride_of):
    from clozereader.tagger import default_config, tag_book

    config = default_config()
    emitted = 0
    for book in fixture_books:
        labels = tag_book(book, config)
        _, report = assert_matches_reference(book, labels, target_type, window,
                                             stride_of(window))
        emitted += report.emitted
    if window == DEFAULT_WINDOW:
        assert emitted > 0


@pytest.mark.parametrize("n_sentences", [0, 1, DEFAULT_WINDOW, DEFAULT_WINDOW + 1])
def test_generate_matches_reference_on_short_books(fixture_books, n_sentences):
    from clozereader.tagger import default_config, tag_book

    book = fixture_books[0]
    short = TokenizedBook(book_id=book.book_id, title=book.title,
                          sentences=book.sentences[:n_sentences])
    labels = tag_book(short, default_config())
    for stride in (1, 3):
        _, report = assert_matches_reference(short, labels, NE, DEFAULT_WINDOW, stride)
        assert report.examined == max(0, n_sentences - DEFAULT_WINDOW)


@pytest.mark.parametrize("seed", range(6))
def test_generate_matches_reference_on_mixed_labels(seed):
    # Pre-tagged labels may give one form different labels at different
    # occurrences, so the pool must take a form only from a window
    # occurrence that carries the target type.
    rng = random.Random(seed)
    forms = [f"w{k}" for k in range(24)]
    sentences = [rng.choices(forms, k=rng.randint(1, 7)) for _ in range(60)]
    labels = [rng.choices([NE, CN, O], weights=[3, 1, 1], k=len(s)) for s in sentences]
    book = TokenizedBook(book_id=f"mixed{seed}", title="T", sentences=sentences)
    emitted = 0
    for window in (2, 5, 9):
        for stride in (1, 2, 3, window - 1, window, window + 5):
            _, report = assert_matches_reference(book, labels, NE, window, stride)
            emitted += report.emitted
    assert emitted > 0


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
    for fraction in (math.nan, math.inf, -math.inf):
        with pytest.raises(SplitError, match="non-finite"):
            split_books(books, SplitSpec(train=fraction, valid=0.5, test=0.5))


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


def test_count_forms_counts_a_shared_sentence_at_each_place_that_holds_it(generated_splits):
    examples = generated_splits["train"]
    places = [id(sentence) for ex in examples for sentence in ex.context]
    assert len(set(places)) < len(places)  # read sentences are shared
    naive = Counter()
    for ex in examples:
        for sentence in ex.context:
            naive.update(sentence)
        naive.update(ex.question)
    assert count_forms(examples) == naive
    stats = compute_stats(examples)
    assert stats.avg_tokens == sum(naive.values()) / len(examples)
    assert stats.vocab_size == len(naive.keys() - {GAP_TOKEN})

def test_compute_stats_empty():
    stats = compute_stats([])
    assert stats.n_queries == 0
    assert stats.vocab_size == 0
