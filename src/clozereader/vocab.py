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
from typing import Callable, Iterator, NamedTuple

import numpy as np

from . import ClozereaderError, read_lines, write_lines
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
            if not isinstance(value, int) or isinstance(value, bool):
                raise VocabularyError(f"vocabulary {name} must be an integer, got {value!r}")
            if value < 0:
                raise VocabularyError(f"vocabulary {name} must be at least 0, got {value}")
        for word in self.words:
            if not isinstance(word, str):
                raise VocabularyError(f"vocabulary word must be a string, got {word!r}")
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
    examples: list[ClozeExample],
    cap: int = DEFAULT_CAP,
    anon_count: int = DEFAULT_ANON_COUNT,
) -> Vocabulary:
    """Count every context and question token of the training examples
    and keep the ``cap`` most frequent, ties broken lexicographically.
    A sentence list shared by several examples is counted once, weighted
    by the number of places that hold it."""
    sentences = list(chain.from_iterable(ex.context for ex in examples))
    keys = list(map(id, sentences))  # unique: ``sentences`` keeps every list alive
    distinct = dict(zip(keys, sentences))
    counts: Counter[str] = Counter()
    for key, weight in Counter(keys).items():
        for form in distinct[key]:
            counts[form] += weight
    counts.update(chain.from_iterable(ex.question for ex in examples))
    counts.pop(GAP_TOKEN, None)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    words = [w for w, _ in ranked[:cap]]
    return Vocabulary(words=words, cap=cap, anon_count=anon_count)


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

    values: np.ndarray   # int32
    starts: np.ndarray   # int32, or int64 past 2**31 values
    lengths: np.ndarray  # int32

    @classmethod
    def pack(cls, values: np.ndarray, lengths: list[int]) -> "_Ragged":
        counts = _int32(lengths)
        starts = np.cumsum(counts, dtype=np.int64) - counts
        if len(values) <= np.iinfo(np.int32).max:
            starts = starts.astype(np.int32)
        return cls(values, starts, counts)

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


# The columns of a row of ``EncodedCorpus.sentence_rows``: the context's
# W pieces, then one piece each for the question, the candidates, the
# answer and the anonymous pairs.
CONTEXT, QUESTION, CANDIDATES, ANSWER, PAIRS = (
    slice(-4), slice(-4, -3), slice(-3, -2), slice(-2, -1), slice(-1, None))


@dataclass(frozen=True, eq=False)
class EncodedCorpus:
    """Encoded examples in a few arrays.

    Every id sequence of an example is a piece of ``sentences``: each
    context sentence, the question, the candidates, the answer, and the
    (k, anonymous id) pairs it drew, flattened in ascending k.  Row i of
    ``sentence_rows`` holds example i's piece numbers in that order.
    Overlapping examples share context sentences, so each distinct
    sentence is stored once.  Piece 0 is empty: it pads a shorter
    context and stands for "no pairs".  A form that the vocabulary lacks
    is stored as ``~k``, where ``unknown_forms[k]`` is the form, and
    ``ids`` resolves it through the row's pairs.  ``corpus[i]`` is
    example i as an ``EncodedExample``, and a slice is a corpus that
    shares these arrays.
    """

    sentences: _Ragged
    sentence_rows: np.ndarray  # (N, W + 4) int32 piece numbers
    unknown_forms: list[str]
    sources: list

    @classmethod
    def from_examples(cls, examples: list[EncodedExample]) -> "EncodedCorpus":
        """A corpus of examples built by hand; each context is one piece."""
        forms: dict[str, int] = {}
        pieces: list[list[int]] = [[]]
        for ex in examples:
            pairs = sorted((forms.setdefault(form, len(forms)), i)
                           for form, i in ex.oov_map.items())
            pieces += (ex.context_ids, ex.question_ids, ex.candidate_ids, [ex.answer_id],
                       list(chain.from_iterable(pairs)))
        return cls(
            sentences=_Ragged.pack(_int32(list(chain.from_iterable(pieces))),
                                   list(map(len, pieces))),
            sentence_rows=np.arange(1, len(pieces), dtype=np.int32).reshape(len(examples), 5),
            unknown_forms=list(forms),
            sources=[ex.source for ex in examples],
        )

    def __len__(self) -> int:
        return len(self.sentence_rows)

    def __iter__(self) -> Iterator[EncodedExample]:
        return map(self.__getitem__, range(len(self)))

    def __getitem__(self, key: int | slice) -> EncodedExample | EncodedCorpus:
        if isinstance(key, slice):
            return replace(self, sentence_rows=self.sentence_rows[key], sources=self.sources[key])
        i = range(len(self))[key]
        context, question, candidates, answer, pairs = (
            matrix[0].tolist()
            for matrix, _ in self.ids([i], CONTEXT, QUESTION, CANDIDATES, ANSWER, PAIRS))
        return EncodedExample(
            context_ids=context,
            question_ids=question,
            answer_id=answer[0],
            candidate_ids=candidates,
            oov_map={self.unknown_forms[k]: slot for k, slot in zip(pairs[::2], pairs[1::2])},
            source=self.sources[i],
        )

    def context_lengths(self) -> np.ndarray:
        """(N,) int64 token count of each example's context."""
        return self.sentences.lengths[self.sentence_rows[:, CONTEXT]].sum(axis=1)

    def ids(self, index, *columns: slice) -> list[tuple[np.ndarray, np.ndarray]]:
        """For each slice in ``columns``, its pieces of the rows at
        ``index``, joined row by row into a (B, T) int64 matrix
        right-padded with PAD_ID, with each ``~k`` resolved to the
        anonymous id its row drew, and each row's length.  The rows and
        their pairs are read once for all the slices."""
        rows = self.sentence_rows[index]
        read = [self.sentences.padded(rows[:, c]) for c in columns]
        if any(matrix.min(initial=0) < 0 for matrix, _ in read):
            # Find each unknown position's (line, k) among the lines' pairs.
            at, counts = self.sentences.positions(rows[:, PAIRS])
            pairs = self.sentences.values[at].reshape(-1, 2)
            n = len(self.unknown_forms)
            # Each line's pairs are stored in ascending k, so ``keys`` is sorted.
            keys = np.repeat(np.arange(len(counts)), counts // 2) * n + pairs[:, 0]
            for matrix, _ in read:
                flat = matrix.reshape(-1)
                unknown = np.flatnonzero(flat < 0)
                wanted = unknown // matrix.shape[1] * n + ~flat[unknown]
                flat[unknown] = pairs[np.searchsorted(keys, wanted), 1]
        return read


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
    each list is stored once while it stays in a small cache; every
    stored form is looked up in one pass, and then only the examples
    that hold an unknown form draw their anonymous ids.  ``seed_of(index)``
    is called only for such an example."""
    width = max(map(len, (ex.context for ex in examples)), default=0)
    forms, lengths, rows = [], [0], []
    # id(sentence) -> its number; unique, as ``examples`` keeps every sentence alive
    cache: dict[int, int] = {}
    for example in examples:
        row = []
        for sentence in example.context:
            number = cache.get(id(sentence))
            if number is None:
                number = cache[id(sentence)] = len(lengths)
                forms += sentence
                lengths.append(len(sentence))
            row.append(number)
        if len(cache) > 2 * len(row):
            cache = dict(zip(map(id, example.context), row))
        rows += row
        rows += [0] * (width - len(row))
        for piece in (example.question, example.candidates, [example.answer]):
            rows.append(len(lengths))
            forms += piece
            lengths.append(len(piece))
        rows.append(0)  # the pairs, set below for an example with an unknown form

    # Known ids are at least GAP_ID, so -1 marks an unknown form.
    tokens = np.fromiter(map(vocabulary._lookup.get, forms, repeat(-1)),
                         dtype=np.int32, count=len(forms))
    sentence_rows = _int32(rows).reshape(len(examples), width + 4)
    codes: dict[str, int] = {}  # unknown form -> k, stored as ~k
    pairs: list[int] = []
    unknown = np.flatnonzero(tokens < 0)
    if unknown.size:
        stored = [~codes.setdefault(forms[p], len(codes)) for p in unknown.tolist()]
        tokens[unknown] = stored
        unknown_in: dict[int, dict[int, None]] = {}  # piece -> its distinct ~k, in order
        piece_of = np.searchsorted(np.cumsum(lengths), unknown, side="right")
        for number, code in zip(piece_of.tolist(), stored):
            unknown_in.setdefault(number, {})[code] = None
        holders = np.isin(sentence_rows, list(unknown_in)).any(axis=1)
        for index in np.flatnonzero(holders).tolist():
            row = sentence_rows[index].tolist()
            order = list(dict.fromkeys(chain.from_iterable(unknown_in.get(n, ()) for n in row)))
            if len(order) > vocabulary.anon_count:
                raise AnonymousSlotsExhausted(
                    f"{len(order)} unknown forms exceed {vocabulary.anon_count} "
                    f"anonymous slots (source {examples[index].source})"
                )
            slots = random.Random(seed_of(index)).sample(range(vocabulary.anon_count), len(order))
            sentence_rows[index, PAIRS] = len(lengths)
            lengths.append(2 * len(order))
            for k, slot in sorted(zip([~code for code in order], slots)):
                pairs += (k, ANON_START + slot)

    return EncodedCorpus(
        sentences=_Ragged.pack(np.concatenate([tokens, _int32(pairs)]), lengths),
        sentence_rows=sentence_rows,
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
    header = [
        f"# vocabulary: pad={PAD_ID} gap={GAP_ID} gap_token={GAP_TOKEN}",
        f"# anonymous: start={ANON_START} count={vocabulary.anon_count}",
        f"# words: start={vocabulary.word_start} count={len(vocabulary.words)} "
        f"cap={vocabulary.cap}",
    ]
    write_lines(path, chain(header, vocabulary.words))


def load_vocab(path: str | Path) -> Vocabulary:
    lines = read_lines(path)
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
