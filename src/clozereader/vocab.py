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
from pathlib import Path
from typing import Iterable, Sequence

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
    _word_to_id: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for name, value in (("cap", self.cap), ("anon_count", self.anon_count)):
            if value < 0:
                raise VocabularyError(f"vocabulary {name} must be at least 0, got {value}")
        start = self.word_start
        self._word_to_id = {w: start + i for i, w in enumerate(self.words)}
        if len(self._word_to_id) != len(self.words):
            raise VocabularyError("duplicate words in vocabulary")

    @property
    def word_start(self) -> int:
        return ANON_START + self.anon_count

    @property
    def size(self) -> int:
        """Total id count including all reserved ids."""
        return self.word_start + len(self.words)

    def token_id(self, token: str) -> int | None:
        """Id for a token, or None when out of vocabulary."""
        if token == GAP_TOKEN:
            return GAP_ID
        return self._word_to_id.get(token)

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
    for source in sources:
        if isinstance(source, (str, Path)):
            examples: Iterable[ClozeExample] = read_examples(source)
        else:
            examples = [source]
        for ex in examples:
            for sentence in ex.context:
                counts.update(sentence)
            counts.update(ex.question)
    counts.pop(GAP_TOKEN, None)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    words = [w for w, _ in ranked[:cap]]
    return Vocabulary(words=words, cap=cap, anon_count=anon_count)


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
    oov_forms: list[str] = []
    seen: set[str] = set()

    def collect(token: str) -> None:
        if vocabulary.token_id(token) is None and token not in seen:
            seen.add(token)
            oov_forms.append(token)

    for sentence in example.context:
        for token in sentence:
            collect(token)
    for token in example.question:
        collect(token)
    for token in example.candidates:
        collect(token)

    if len(oov_forms) > vocabulary.anon_count:
        raise AnonymousSlotsExhausted(
            f"{len(oov_forms)} unknown forms exceed {vocabulary.anon_count} "
            f"anonymous slots (source {example.source})"
        )
    rng = random.Random(rng_seed)
    slots = rng.sample(range(vocabulary.anon_count), len(oov_forms))
    oov_map = {form: ANON_START + slot for form, slot in zip(oov_forms, slots)}

    def encode(token: str) -> int:
        known = vocabulary.token_id(token)
        return known if known is not None else oov_map[token]

    context_ids = [encode(t) for s in example.context for t in s]
    return EncodedExample(
        context_ids=context_ids,
        question_ids=[encode(t) for t in example.question],
        answer_id=encode(example.answer),
        candidate_ids=[encode(t) for t in example.candidates],
        oov_map=oov_map,
        source=example.source,
    )


def encode_dataset(
    examples: list[ClozeExample],
    vocabulary: Vocabulary,
    rng_seed: int,
) -> list[EncodedExample]:
    """Encode a whole dataset, deriving one anonymous-slot seed per
    example from its position."""
    return [
        encode_example(example, vocabulary, derive_seed(rng_seed, "anon", index))
        for index, example in enumerate(examples)
    ]


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
