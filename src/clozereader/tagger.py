"""Word-type labeling: named entities, common nouns, everything else.

No trained tagger is involved.  Labels come from two per-book heuristics:

* NamedEntity: a capitalized token whose surface form is seen capitalized
  mid-sentence somewhere in the same book.  Mid-sentence means the
  preceding token is a real word (or a comma), so capitals that merely
  open a sentence or a quotation do not count as evidence on their own.
  Honorifics (``Mr.``, ``Lady``, ...) are never entities themselves.
* CommonNoun: a lowercase token found in the configured noun lexicon.

Stopwords dominate everything: a stopword is always Other.  Labels are
produced per token occurrence, aligned with the tokenized sentences.
Evidence is collected per exact surface form, so ``Smith`` and ``smith``
are independent forms with independent labels.

A pre-tagged adapter accepts ``token/TAG`` files produced by an external
tagger and validates exact token alignment against the tokenized book.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

from . import ClozereaderError
from .corpus import DATA, TokenizedBook, read_wordlist


class WordType(enum.Enum):
    NAMED_ENTITY = "NE"
    COMMON_NOUN = "CN"
    OTHER = "O"


class TagAlignmentError(ClozereaderError):
    """Pre-tagged input does not line up with the tokenized book."""


@dataclass(frozen=True)
class TaggerConfig:
    noun_lexicon: frozenset[str]
    stopwords: frozenset[str]
    honorifics: frozenset[str]

    def __post_init__(self) -> None:
        if not self.noun_lexicon:
            raise ValueError("noun lexicon must not be empty")


def default_config() -> TaggerConfig:
    return TaggerConfig(
        noun_lexicon=read_wordlist(DATA.joinpath("nouns.txt")),
        stopwords=read_wordlist(DATA.joinpath("stopwords.txt")),
        honorifics=read_wordlist(DATA.joinpath("honorifics.txt")),
    )


_HAS_ALNUM = re.compile(r"\w")


def _capitalized(token: str) -> bool:
    return bool(token) and token[0].isupper()


def _midsentence_evidence(book: TokenizedBook) -> set[str]:
    """Surface forms seen capitalized after a real word (or comma)."""
    evidence: set[str] = set()
    for sentence in book.sentences:
        for i in range(1, len(sentence)):
            token = sentence[i]
            prev = sentence[i - 1]
            if not _capitalized(token):
                continue
            if _HAS_ALNUM.search(prev) or prev == ",":
                evidence.add(token)
    return evidence


def tag_book(book: TokenizedBook, config: TaggerConfig) -> list[list[WordType]]:
    """Label every token occurrence in the book.

    Output is aligned with ``book.sentences``: one label per token.
    """
    evidence = _midsentence_evidence(book)

    def label(token: str) -> WordType:
        if token.lower() in config.stopwords:
            return WordType.OTHER
        if _capitalized(token) and token not in config.honorifics and token in evidence:
            return WordType.NAMED_ENTITY
        if token.islower() and token in config.noun_lexicon:
            return WordType.COMMON_NOUN
        return WordType.OTHER

    # A label depends only on the form and the book's evidence, so each
    # distinct form is labeled once.
    label_of = {token: label(token) for token in set(chain.from_iterable(book.sentences))}
    return [list(map(label_of.__getitem__, sentence)) for sentence in book.sentences]


def read_pretagged(path: str | Path, book: TokenizedBook) -> list[list[WordType]]:
    """Read ``token/TAG`` lines (one line per sentence, TAG in NE/CN/O) and
    return labels aligned with the book.  Misalignment is an error naming
    the book and the offending sentence."""
    path = Path(path)
    lines = [ln for ln in path.read_text("utf-8").splitlines()]
    while lines and not lines[-1].strip():
        lines.pop()
    if len(lines) != len(book.sentences):
        raise TagAlignmentError(
            f"book {book.book_id!r}: pre-tagged file has {len(lines)} sentences, "
            f"book has {len(book.sentences)}"
        )

    labels: list[list[WordType]] = []
    for idx, (line, sentence) in enumerate(zip(lines, book.sentences)):
        row: list[WordType] = []
        tokens: list[str] = []
        for pair in line.split():
            token, sep, tag = pair.rpartition("/")
            if not sep:
                raise TagAlignmentError(
                    f"book {book.book_id!r}, sentence {idx}: malformed pair {pair!r}"
                )
            try:
                row.append(WordType(tag))
            except ValueError:
                raise TagAlignmentError(
                    f"book {book.book_id!r}, sentence {idx}: unknown tag {tag!r}"
                ) from None
            tokens.append(token)
        if tokens != sentence:
            raise TagAlignmentError(
                f"book {book.book_id!r}, sentence {idx}: tokens do not match "
                f"(got {len(tokens)}, book has {len(sentence)})"
            )
        labels.append(row)
    return labels
