"""Cloze question generation from tokenized, word-type-labeled books.

Every question is built the same way: take a window of consecutive
sentences as the context, take the next sentence, pick one of its tokens
of the target word type that also occurs in the context, and replace that
occurrence with the gap tag.  The answer plus nine same-type distractor
forms drawn from the context make up the candidate set.

All sampling is seeded per (seed, book, sentence), so regeneration is
reproducible file-for-file.

Each book is indexed once: the offset of each sentence in the book's flat
token stream, the ascending flat positions of every form, and each
sentence's target-type forms.  A question token's most recent context
occurrence is then one bisection, and the distractor pool is the set of
the window's target-type forms, taken from those per-sentence lists.  An
example's context is a slice of the book's sentence list, so its sentence
lists are shared with the book and with overlapping examples, and nothing
may mutate them.
"""

from __future__ import annotations

import math
import random
import re
from bisect import bisect_left
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, fields
from itertools import accumulate, chain

from . import ClozereaderError
from .corpus import TokenizedBook
from .seeding import derive_seed
from .tagger import WordType

GAP_TOKEN = "XXXXX"
DEFAULT_WINDOW = 20
N_CANDIDATES = 10
SPLITS = ("train", "valid", "test")


class ExampleInvariantError(ClozereaderError):
    """A generated or loaded example violates the format contract."""


class SplitError(ClozereaderError):
    """Book-level splitting cannot satisfy the requested fractions."""


@dataclass
class ClozeExample:
    """One cloze question: context sentences, gapped question, answer,
    and a candidate list that contains the answer.

    A generated example's context sentence lists are its book's own and
    are shared with every example whose window overlaps; examples read
    from one question file share equal context sentences the same way.
    So copy a sentence before changing it.  The question is the
    example's own."""

    context: list[list[str]]
    question: list[str]
    answer: str
    candidates: list[str]
    source: tuple[str, int] | None = None

    def validate(self, window: int = DEFAULT_WINDOW) -> None:
        where = f" (source {self.source})" if self.source else ""
        if len(self.context) != window:
            raise ExampleInvariantError(
                f"context has {len(self.context)} sentences, expected {window}{where}"
            )
        if any(len(s) == 0 for s in self.context):
            raise ExampleInvariantError(f"empty context sentence{where}")
        if self.question.count(GAP_TOKEN) != 1:
            raise ExampleInvariantError(
                f"gap tag appears {self.question.count(GAP_TOKEN)} times in question{where}"
            )
        if len(self.candidates) != N_CANDIDATES:
            raise ExampleInvariantError(
                f"{len(self.candidates)} candidates, expected {N_CANDIDATES}{where}"
            )
        if len(set(self.candidates)) != len(self.candidates):
            raise ExampleInvariantError(f"duplicate candidates{where}")
        if self.answer not in self.candidates:
            raise ExampleInvariantError(f"answer not among candidates{where}")
        if not any(self.answer in sentence for sentence in self.context):
            raise ExampleInvariantError(f"answer not present in context{where}")


@dataclass
class GenerationReport:
    """Per-reason accounting of examined question sentences."""

    examined: int = 0
    emitted: int = 0
    skipped_no_qualifying: int = 0
    skipped_small_pool: int = 0

    def merge(self, other: "GenerationReport") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


def select_candidates(
    answer: str,
    pool: Iterable[str],
    rng_seed: int,
) -> list[str] | None:
    """Answer plus nine distinct distractor forms drawn from the pool (the
    same-type forms the context offers; the answer itself is left out), in
    a seeded shuffled order.  Returns None when the pool offers fewer than
    nine distractor forms."""
    distractors = sorted(form for form in pool if form != answer)
    if len(distractors) < N_CANDIDATES - 1:
        return None
    rng = random.Random(rng_seed)
    candidates = [answer] + rng.sample(distractors, N_CANDIDATES - 1)
    rng.shuffle(candidates)
    return candidates


def generate_from_book(
    book: TokenizedBook,
    labels: list[list[WordType]],
    target_type: WordType,
    window: int = DEFAULT_WINDOW,
    rng_seed: int = 0,
    stride: int = 1,
) -> tuple[list[ClozeExample], GenerationReport]:
    """Emit at most one example per question sentence, walking the book
    with the given stride.  A book shorter than window + 1 sentences
    yields no examples."""
    if stride < 1:
        raise ValueError(f"stride must be positive, got {stride}")
    if len(labels) != len(book.sentences):
        raise ValueError(
            f"book {book.book_id!r}: {len(labels)} label rows for "
            f"{len(book.sentences)} sentences"
        )
    sentences = book.sentences
    examples: list[ClozeExample] = []
    report = GenerationReport()

    # The book's index: where each sentence starts in the flat token
    # stream, every form's flat positions in ascending order, and each
    # sentence's target-type forms.
    starts = list(accumulate(map(len, sentences), initial=0))
    positions: dict[str, list[int]] = {}
    for offset, token in enumerate(chain.from_iterable(sentences)):
        positions.setdefault(token, []).append(offset)
    typed = [
        [token for token, label in zip(sentence, sentence_labels) if label is target_type]
        for sentence, sentence_labels in zip(sentences, labels)
    ]

    for i in range(window, len(sentences), stride):
        report.examined += 1
        first = i - window

        # The gap goes where the answer's most recent context occurrence is
        # farthest back; ties go to the earlier question token.
        window_start, question_start = starts[first], starts[i]
        question_sentence = sentences[i]
        best: tuple[int, int] | None = None
        for j, (token, label) in enumerate(zip(question_sentence, labels[i])):
            if label is not target_type:
                continue
            seen = positions[token]
            k = bisect_left(seen, question_start) - 1
            if k < 0 or seen[k] < window_start:
                continue
            key = (seen[k], j)
            if best is None or key < best:
                best = key
        if best is None:
            report.skipped_no_qualifying += 1
            continue

        _, gap_index = best
        answer = question_sentence[gap_index]
        question = list(question_sentence)
        question[gap_index] = GAP_TOKEN

        candidates = select_candidates(
            answer,
            set(chain.from_iterable(typed[first:i])),
            derive_seed(rng_seed, "candidates", book.book_id, i),
        )
        if candidates is None:
            report.skipped_small_pool += 1
            continue

        examples.append(ClozeExample(
            context=sentences[first:i],
            question=question,
            answer=answer,
            candidates=candidates,
            source=(book.book_id, i),
        ))
        report.emitted += 1

    return examples, report


_ARTICLES = ("the", "a", "an")


def normalize_title(title: str) -> str:
    """Casefold, keep only alphanumeric words, drop a leading article."""
    words = re.findall(r"[a-z0-9]+", title.casefold())
    if words and words[0] in _ARTICLES:
        words = words[1:]
    return " ".join(words)


def dedup_editions(
    books: list[TokenizedBook],
    blocklist_titles: list[str] | frozenset[str],
) -> tuple[list[TokenizedBook], list[tuple[str, str]]]:
    """Remove books whose normalized title matches a blocklisted title.

    Returns the kept books and a removal report of (book_id, title).
    """
    blocked = {normalize_title(t) for t in blocklist_titles}
    blocked.discard("")
    kept = []
    removed = []
    for book in books:
        if normalize_title(book.title) in blocked:
            removed.append((book.book_id, book.title))
        else:
            kept.append(book)
    return kept, removed


@dataclass(frozen=True)
class SplitSpec:
    """Book-level split configuration: fractions and seed.  The fractions
    must be finite and non-negative and sum to 1."""

    train: float = 0.8
    valid: float = 0.1
    test: float = 0.1
    rng_seed: int = 0

    def __post_init__(self) -> None:
        fractions = self.fractions()
        if not all(map(math.isfinite, fractions)):
            raise SplitError(f"non-finite split fraction in {fractions}")
        if any(f < 0 for f in fractions):
            raise SplitError(f"negative split fraction in {fractions}")
        if abs(sum(fractions) - 1.0) > 1e-9:
            raise SplitError(f"split fractions {fractions} do not sum to 1")

    def fractions(self) -> tuple[float, float, float]:
        return (self.train, self.valid, self.test)


def split_books(
    books: list[TokenizedBook],
    spec: SplitSpec,
) -> dict[str, list[TokenizedBook]]:
    """Shuffle books by seed and partition them by the configured fractions.

    Splitting is by whole books, so no book contributes examples to more
    than one split.  Every split with a nonzero fraction receives at
    least one book; too few books is an error.
    """
    fractions = spec.fractions()
    nonzero = [i for i, f in enumerate(fractions) if f > 0]
    if len(books) < len(nonzero):
        raise SplitError(
            f"{len(books)} books cannot fill {len(nonzero)} nonzero splits"
        )

    ordered = sorted(books, key=lambda b: b.book_id)
    random.Random(derive_seed(spec.rng_seed, "split")).shuffle(ordered)

    n = len(books)
    counts = [int(f * n) for f in fractions]
    remainders = [f * n - c for f, c in zip(fractions, counts)]
    while sum(counts) < n:
        i = max(range(3), key=lambda k: (remainders[k], -k))
        counts[i] += 1
        remainders[i] = -1.0
    # Guarantee every nonzero fraction at least one book.
    for i in nonzero:
        while counts[i] == 0:
            donor = max(range(3), key=lambda k: counts[k])
            counts[donor] -= 1
            counts[i] += 1

    result: dict[str, list[TokenizedBook]] = {}
    start = 0
    for name, count in zip(SPLITS, counts):
        result[name] = ordered[start:start + count]
        start += count
    return result


@dataclass
class DatasetStats:
    """Corpus-style summary of a generated or loaded dataset."""

    n_queries: int
    max_options: int
    avg_options: float
    avg_tokens: float
    vocab_size: int


def count_forms(examples: list[ClozeExample]) -> Counter[str]:
    """How often each form occurs in the examples' contexts and questions,
    the gap tag included.  A sentence list shared by several examples is
    walked once, weighted by the number of places that hold it."""
    sentences = list(chain.from_iterable(ex.context for ex in examples))
    keys = list(map(id, sentences))  # unique: ``sentences`` keeps every list alive
    distinct = dict(zip(keys, sentences))
    counts: Counter[str] = Counter()
    for key, weight in Counter(keys).items():
        for form in distinct[key]:
            counts[form] += weight
    counts.update(chain.from_iterable(ex.question for ex in examples))
    return counts


def compute_stats(examples: list[ClozeExample]) -> DatasetStats:
    if not examples:
        return DatasetStats(0, 0, 0.0, 0.0, 0)
    counts = count_forms(examples)
    options = [len(ex.candidates) for ex in examples]
    n = len(examples)
    return DatasetStats(
        n_queries=n,
        max_options=max(options),
        avg_options=sum(options) / n,
        avg_tokens=sum(counts.values()) / n,
        vocab_size=len(counts) - (GAP_TOKEN in counts),
    )
