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
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import chain, repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

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
    """A cloze example as id sequences; the context is flattened.  This
    is one row of an ``EncodedCorpus``."""

    context_ids: list[int]
    question_ids: list[int]
    answer_id: int
    candidate_ids: list[int]
    oov_map: dict[str, int]
    source: tuple[str, int] | None = None


def _int32(values: list[int]) -> np.ndarray:
    return np.fromiter(values, dtype=np.int32, count=len(values))


class _Ragged(NamedTuple):
    """Rows of varying length: row i is ``values[starts[i]:starts[i] + lengths[i]]``."""

    values: np.ndarray   # int32, (M,) or (M, k)
    starts: np.ndarray   # int32, or int64 past 2**31 values
    lengths: np.ndarray  # int32

    @classmethod
    def pack(cls, values: np.ndarray, lengths: list[int]) -> "_Ragged":
        counts = _int32(lengths)
        starts = np.cumsum(counts, dtype=np.int64) - counts
        if len(values) <= np.iinfo(np.int32).max:
            starts = starts.astype(np.int32)
        return cls(values, starts, counts)

    def take(self, index) -> "_Ragged":
        return _Ragged(self.values, self.starts[index], self.lengths[index])

    def row(self, i: int) -> np.ndarray:
        start = self.starts[i]
        return self.values[start:start + self.lengths[i]]

    def positions(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Where in ``values`` the rows named by each line of ``rows``
        (B, W) lie, line after line, and the total length of each line."""
        pieces = self.lengths[rows]
        lengths = pieces.sum(axis=1)
        pieces = pieces.ravel()
        first = np.cumsum(pieces) - pieces  # each piece's offset in the output
        at = np.arange(int(lengths.sum())) + np.repeat(self.starts[rows].ravel() - first, pieces)
        return at, lengths

    def padded(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each line's rows joined, as a (B, T) int64 matrix right-padded
        with PAD_ID, and each line's length."""
        at, lengths = self.positions(rows)
        matrix = np.full((len(lengths), int(lengths.max(initial=0))), PAD_ID, dtype=np.int64)
        matrix[np.arange(matrix.shape[1]) < lengths[:, None]] = self.values[at]
        return matrix, lengths


@dataclass(frozen=True, eq=False)
class EncodedCorpus:
    """Encoded examples in a few arrays.

    Overlapping examples share context sentences, so each distinct
    sentence's ids are stored once and an example's context is the row
    of sentence numbers in ``sentence_rows``.  A form that the
    vocabulary lacks is stored as ``~k``, where ``unknown_forms[k]`` is
    the form; an example's ``anon`` row pairs each k it holds with the
    anonymous id it drew.  Questions, candidates and answers hold final
    ids.  ``corpus[i]`` is example i as an ``EncodedExample``, and a
    slice is a corpus that shares these arrays.
    """

    sentences: _Ragged         # sentence 0 is empty: it pads shorter contexts
    sentence_rows: np.ndarray  # (N, W) int32 sentence numbers
    questions: _Ragged
    candidates: _Ragged
    answers: np.ndarray        # (N,) int32
    anon: _Ragged              # rows of (k, anonymous id) pairs
    unknown_forms: list[str]
    sources: list

    @classmethod
    def from_examples(cls, examples: list[EncodedExample]) -> "EncodedCorpus":
        """A corpus of examples built by hand; each context is one sentence."""
        forms: dict[str, int] = {}
        anon = [[v for form, i in ex.oov_map.items() for v in (forms.setdefault(form, len(forms)), i)]
                for ex in examples]

        def pack(rows: list[list[int]], columns: int = 1) -> _Ragged:
            values = _int32(list(chain.from_iterable(rows)))
            return _Ragged.pack(values.reshape(-1, columns) if columns > 1 else values,
                                [len(row) // columns for row in rows])

        return cls(
            sentences=pack([ex.context_ids for ex in examples]),
            sentence_rows=np.arange(len(examples), dtype=np.int32)[:, None],
            questions=pack([ex.question_ids for ex in examples]),
            candidates=pack([ex.candidate_ids for ex in examples]),
            answers=_int32([ex.answer_id for ex in examples]),
            anon=pack(anon, columns=2),
            unknown_forms=list(forms),
            sources=[ex.source for ex in examples],
        )

    def __len__(self) -> int:
        return len(self.answers)

    def __iter__(self) -> Iterator[EncodedExample]:
        return map(self.__getitem__, range(len(self)))

    def __getitem__(self, key: int | slice) -> EncodedExample | EncodedCorpus:
        if isinstance(key, slice):
            return replace(self, sentence_rows=self.sentence_rows[key],
                           questions=self.questions.take(key),
                           candidates=self.candidates.take(key), answers=self.answers[key],
                           anon=self.anon.take(key), sources=self.sources[key])
        i = range(len(self))[key]
        context, _ = self.contexts(np.array([i]))
        return EncodedExample(
            context_ids=context[0].tolist(),
            question_ids=self.questions.row(i).tolist(),
            answer_id=int(self.answers[i]),
            candidate_ids=self.candidates.row(i).tolist(),
            oov_map={self.unknown_forms[k]: slot for k, slot in self.anon.row(i).tolist()},
            source=self.sources[i],
        )

    def context_lengths(self) -> np.ndarray:
        """(N,) int64 token count of each example's context."""
        return self.sentences.lengths[self.sentence_rows].sum(axis=1)

    def contexts(self, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The contexts of the examples at ``index`` as a (B, T) int64
        matrix right-padded with PAD_ID, and their lengths."""
        context, lengths = self.sentences.padded(self.sentence_rows[index])
        flat = context.reshape(-1)
        unknown = np.flatnonzero(flat < 0)
        if unknown.size:
            # Find each unknown position's (line, k) among the lines' anon pairs.
            at, counts = self.anon.positions(np.asarray(index)[:, None])
            pairs = self.anon.values[at]
            n = len(self.unknown_forms)
            keys = np.repeat(np.arange(len(counts)), counts) * n + pairs[:, 0]
            order = np.argsort(keys)
            wanted = unknown // context.shape[1] * n + ~flat[unknown]
            flat[unknown] = pairs[order[np.searchsorted(keys, wanted, sorter=order)], 1]
        return context, lengths


def as_corpus(examples: EncodedCorpus | list[EncodedExample]) -> EncodedCorpus:
    """A corpus as is, or a list of encoded examples packed into one."""
    return examples if isinstance(examples, EncodedCorpus) else EncodedCorpus.from_examples(examples)


def encode_example(
    example: ClozeExample,
    vocabulary: Vocabulary,
    rng_seed: int,
) -> EncodedExample:
    """Encode one example; every distinct out-of-vocabulary form gets its
    own seeded anonymous slot, consistent within the example."""
    return _encode([example], vocabulary, lambda index: rng_seed)[0]


def encode_dataset(
    examples: list[ClozeExample],
    vocabulary: Vocabulary,
    rng_seed: int,
) -> EncodedCorpus:
    """Encode a whole dataset, deriving one anonymous-slot seed per
    example from its position."""
    return _encode(examples, vocabulary, partial(derive_seed, rng_seed, "anon"))


def _encode(
    examples: list[ClozeExample],
    vocabulary: Vocabulary,
    seed_of: Callable[[int], int],
) -> EncodedCorpus:
    """The one encoder.  Overlapping examples share sentence lists, so
    each list is stored once while it stays in a small cache, and then
    every stored form is looked up in one pass.  ``seed_of(index)`` is
    called only for an example that holds an unknown form."""
    width = max(map(len, (ex.context for ex in examples)), default=0)
    forms, sentence_lengths, rows = [], [0], []
    # id(sentence) -> its number; unique, as ``examples`` keeps every sentence alive
    cache: dict[int, int] = {}
    for example in examples:
        row = []
        for sentence in example.context:
            number = cache.get(id(sentence))
            if number is None:
                number = cache[id(sentence)] = len(sentence_lengths)
                forms += sentence
                sentence_lengths.append(len(sentence))
            row.append(number)
        if len(cache) > 2 * len(row):
            cache = dict(zip(map(id, example.context), row))
        rows += row
        if len(row) < width:
            rows += [0] * (width - len(row))

    # Known ids are at least GAP_ID, so -1 marks an unknown form.
    tokens = np.fromiter(map(vocabulary._lookup.get, forms, repeat(-1)),
                         dtype=np.int32, count=len(forms))
    codes: dict[str, int] = {}  # unknown form -> k, stored as ~k
    unknown_in: dict[int, dict[int, None]] = {}  # sentence -> its distinct ~k, in order
    unknown = np.flatnonzero(tokens < 0)
    if unknown.size:
        stored = [~codes.setdefault(forms[p], len(codes)) for p in unknown.tolist()]
        tokens[unknown] = stored
        sentence_of = np.searchsorted(np.cumsum(sentence_lengths), unknown, side="right")
        for number, code in zip(sentence_of.tolist(), stored):
            unknown_in.setdefault(number, {})[code] = None

    lookup = vocabulary._lookup.get
    questions, candidates, answers, anon = [], [], [], []
    question_lengths, candidate_lengths, anon_lengths = [], [], []
    for index, example in enumerate(examples):
        question = list(map(lookup, example.question))
        options = list(map(lookup, example.candidates))
        answer = lookup(example.answer)
        in_context = [unknown_in[n] for n in rows[index * width:(index + 1) * width]
                      if n in unknown_in] if unknown_in else []
        pairs: list[int] = []
        if in_context or not all(question) or not all(options) or answer is None:
            forms_of = (example.question, example.candidates, [example.answer])
            ids = (question, options, [answer])
            later = [~codes.setdefault(form, len(codes))
                     for part, part_ids in zip(forms_of, ids)
                     for i, form in zip(part_ids, part) if i is None]
            order = list(dict.fromkeys(chain(chain.from_iterable(in_context), later)))
            if len(order) > vocabulary.anon_count:
                raise AnonymousSlotsExhausted(
                    f"{len(order)} unknown forms exceed {vocabulary.anon_count} "
                    f"anonymous slots (source {example.source})"
                )
            slots = random.Random(seed_of(index)).sample(range(vocabulary.anon_count), len(order))
            id_of = {code: ANON_START + slot for code, slot in zip(order, slots)}
            question, options, (answer,) = (
                [id_of[~codes[form]] if i is None else i for i, form in zip(part_ids, part)]
                for part, part_ids in zip(forms_of, ids))
            for code, anon_id in id_of.items():
                pairs += (~code, anon_id)
        questions += question
        question_lengths.append(len(question))
        candidates += options
        candidate_lengths.append(len(options))
        answers.append(answer)
        anon += pairs
        anon_lengths.append(len(pairs) // 2)

    return EncodedCorpus(
        sentences=_Ragged.pack(tokens, sentence_lengths),
        sentence_rows=_int32(rows).reshape(len(examples), width),
        questions=_Ragged.pack(_int32(questions), question_lengths),
        candidates=_Ragged.pack(_int32(candidates), candidate_lengths),
        answers=_int32(answers),
        anon=_Ragged.pack(_int32(anon).reshape(-1, 2), anon_lengths),
        unknown_forms=list(codes),
        sources=[example.source for example in examples],
    )


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
