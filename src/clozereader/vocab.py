"""Frequency-capped vocabulary with reserved ids and anonymous OOV slots.

Id layout: padding is 0, the gap tag is 1, the next ``anon_count`` ids
(2..1001 by default) are anonymous slots for out-of-vocabulary forms, and
real words start right after.  Anonymous assignment happens per example:
each distinct unknown surface form is mapped to a seeded random anonymous
slot, without replacement, fixed at encoding time.  The embedding rows
behind the anonymous block are randomly initialized and never trained,
so these ids carry no cross-example meaning on purpose.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Sequence

from . import ClozereaderError
from .cbtio import read_examples
from .clozegen import GAP_TOKEN, ClozeExample
from .seeding import derive_seed

PAD_ID = 0
GAP_ID = 1
ANON_START = 2
DEFAULT_ANON_COUNT = 1000
DEFAULT_CAP = 200_000


class VocabularyError(ClozereaderError):
    pass


class AnonymousSlotsExhausted(VocabularyError):
    """An example holds more distinct unknown forms than anonymous slots."""


@dataclass
class Vocabulary:
    """Immutable word list; position in ``words`` determines the id."""

    words: list[str]
    cap: int = DEFAULT_CAP
    anon_count: int = DEFAULT_ANON_COUNT
    _lookup: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for name, value in (("cap", self.cap), ("anon_count", self.anon_count)):
            if value < 0:
                raise VocabularyError(f"vocabulary {name} must be at least 0, got {value}")
        self._lookup = dict(zip(self.words, range(self.word_start, self.size)))
        if len(self._lookup) != len(self.words):
            raise VocabularyError("duplicate words in vocabulary")
        self._lookup[GAP_TOKEN] = GAP_ID  # the gap tag wins over a word

    @property
    def word_start(self) -> int:
        return ANON_START + self.anon_count

    @property
    def size(self) -> int:
        """Total id count including all reserved ids."""
        return self.word_start + len(self.words)

    def token_id(self, token: str) -> int | None:
        """Id for a token, or None when out of vocabulary."""
        return self._lookup.get(token)

    def is_anonymous(self, token_id: int) -> bool:
        return ANON_START <= token_id < self.word_start

    def id_token(self, token_id: int) -> str:
        """Inverse lookup for word ids and the gap tag; anonymous and
        padding ids have no surface form and raise."""
        if token_id == GAP_ID:
            return GAP_TOKEN
        if self.word_start <= token_id < self.size:
            return self.words[token_id - self.word_start]
        raise VocabularyError(f"id {token_id} has no surface form")


def build_vocab(
    sources: Sequence[str | Path] | Iterable[ClozeExample],
    cap: int = DEFAULT_CAP,
    anon_count: int = DEFAULT_ANON_COUNT,
) -> Vocabulary:
    """Count tokens over training examples (file paths or example objects)
    and keep the ``cap`` most frequent, ties broken lexicographically."""
    counts: Counter[str] = Counter()
    examples: list[ClozeExample] = []
    for source in sources:
        if isinstance(source, (str, Path)):
            _count_tokens(read_examples(source), counts)
        else:
            examples.append(source)
    _count_tokens(examples, counts)
    counts.pop(GAP_TOKEN, None)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    words = [w for w, _ in ranked[:cap]]
    return Vocabulary(words=words, cap=cap, anon_count=anon_count)


def _count_tokens(examples: list[ClozeExample], counts: Counter[str]) -> None:
    """Add every context and question token of ``examples`` to ``counts``.
    A sentence list shared by several examples is counted once, weighted
    by the number of places that hold it."""
    sentences = list(chain.from_iterable(ex.context for ex in examples))
    keys = list(map(id, sentences))  # unique: ``sentences`` keeps every list alive
    distinct = dict(zip(keys, sentences))
    for key, weight in Counter(keys).items():
        for form in distinct[key]:
            counts[form] += weight
    counts.update(chain.from_iterable(ex.question for ex in examples))


@dataclass
class EncodedExample:
    """A cloze example as id sequences; the context is flattened."""

    context_ids: list[int]
    question_ids: list[int]
    answer_id: int
    candidate_ids: list[int]
    oov_map: dict[str, int]
    source: tuple[str, int] | None = None


def encode_example(
    example: ClozeExample,
    vocabulary: Vocabulary,
    rng_seed: int,
) -> EncodedExample:
    """Encode one example; every distinct out-of-vocabulary form gets its
    own seeded anonymous slot, consistent within the example."""
    context_ids = map(vocabulary._lookup.get, chain.from_iterable(example.context))
    return _encode(example, context_ids, vocabulary, lambda: rng_seed)


def _encode(
    example: ClozeExample,
    context_ids: Iterable[int | None],
    vocabulary: Vocabulary,
    rng_seed: Callable[[], int],
) -> EncodedExample:
    """``context_ids`` are the flattened context's ids, None where a form
    is unknown; ``rng_seed`` is called only when some form is unknown."""
    lookup = vocabulary._lookup.get
    ids = list(chain(context_ids, map(lookup, example.question),
                     map(lookup, example.candidates), (lookup(example.answer),)))
    oov_map: dict[str, int] = {}
    if not all(ids):  # known ids are at least GAP_ID, so only None is false
        forms = list(chain(chain.from_iterable(example.context), example.question,
                           example.candidates, (example.answer,)))
        unknown = [p for p, i in enumerate(ids) if i is None]
        oov_forms = list(dict.fromkeys([forms[p] for p in unknown]))
        if len(oov_forms) > vocabulary.anon_count:
            raise AnonymousSlotsExhausted(
                f"{len(oov_forms)} unknown forms exceed {vocabulary.anon_count} "
                f"anonymous slots (source {example.source})"
            )
        slots = random.Random(rng_seed()).sample(range(vocabulary.anon_count), len(oov_forms))
        oov_map = {form: ANON_START + slot for form, slot in zip(oov_forms, slots)}
        for p in unknown:
            ids[p] = oov_map[forms[p]]

    question_start = len(ids) - len(example.question) - len(example.candidates) - 1
    candidate_start = question_start + len(example.question)
    return EncodedExample(
        context_ids=ids[:question_start],
        question_ids=ids[question_start:candidate_start],
        answer_id=ids[-1],
        candidate_ids=ids[candidate_start:-1],
        oov_map=oov_map,
        source=example.source,
    )


def encode_dataset(
    examples: list[ClozeExample],
    vocabulary: Vocabulary,
    rng_seed: int,
) -> list[EncodedExample]:
    """Encode a whole dataset, deriving one anonymous-slot seed per
    example from its position.  Overlapping examples share sentence lists,
    so each list is looked up once while it stays in a small cache."""
    lookup = vocabulary._lookup.get
    encoded = []
    # id(sentence) -> its ids; unique, as ``examples`` keeps every sentence alive
    cache: dict[int, list[int | None]] = {}
    for index, example in enumerate(examples):
        rows = []
        for sentence in example.context:
            row = cache.get(id(sentence))
            if row is None:
                row = cache[id(sentence)] = list(map(lookup, sentence))
            rows.append(row)
        if len(cache) > 2 * len(rows):
            cache = dict(zip(map(id, example.context), rows))
        encoded.append(_encode(example, chain.from_iterable(rows), vocabulary,
                               partial(derive_seed, rng_seed, "anon", index)))
    return encoded


def decode_example(
    encoded: EncodedExample,
    vocabulary: Vocabulary,
) -> tuple[list[str], list[str]]:
    """Recover the flattened context and question token sequences."""
    inverse = {i: form for form, i in encoded.oov_map.items()}

    def decode(token_id: int) -> str:
        if token_id in inverse:
            return inverse[token_id]
        return vocabulary.id_token(token_id)

    return (
        [decode(i) for i in encoded.context_ids],
        [decode(i) for i in encoded.question_ids],
    )


def save_vocab(vocabulary: Vocabulary, path: str | Path) -> None:
    """One word per line in id order, after a 3-line reserved-block header."""
    lines = [
        f"# vocabulary: pad={PAD_ID} gap={GAP_ID} gap_token={GAP_TOKEN}",
        f"# anonymous: start={ANON_START} count={vocabulary.anon_count}",
        f"# words: start={vocabulary.word_start} count={len(vocabulary.words)} "
        f"cap={vocabulary.cap}",
    ]
    lines.extend(vocabulary.words)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_vocab(path: str | Path) -> Vocabulary:
    lines = Path(path).read_text("utf-8").splitlines()
    if len(lines) < 3 or not all(lines[i].startswith("#") for i in range(3)):
        raise VocabularyError(f"{path}: missing 3-line reserved-block header")

    def header_fields(line: str) -> dict[str, str]:
        _, _, rest = line.partition(":")
        return dict(part.split("=", 1) for part in rest.split())

    try:
        anon = header_fields(lines[1])
        words_info = header_fields(lines[2])
        anon_count = int(anon["count"])
        expected = int(words_info["count"])
        cap = int(words_info["cap"])
    except (KeyError, ValueError) as exc:
        raise VocabularyError(f"{path}: malformed header: {exc}") from None

    words = lines[3:]
    while words and not words[-1]:
        words.pop()
    if len(words) != expected:
        raise VocabularyError(
            f"{path}: header declares {expected} words, file has {len(words)}"
        )
    return Vocabulary(words=words, cap=cap, anon_count=anon_count)
