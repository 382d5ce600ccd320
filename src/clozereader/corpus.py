"""Plain-text book ingestion: boilerplate stripping, sentence splitting,
tokenization.

The splitting and token rules are deliberately small and fully documented
here, because downstream question generation depends on them being stable:

* Sentences end at a run of ``. ! ?`` (plus any closing quotes or
  brackets) followed by whitespace and a capital letter or opening quote.
  A period does not end a sentence when the word before it is a known
  abbreviation (``Mr.``, ``Dr.``, ...) or a single capital initial.
  Paragraph breaks (blank lines) always end a sentence.
* Tokens are whitespace chunks with punctuation peeled off both ends,
  double-dash, em-dash, en-dash and ``|`` separated (each ``|`` is a token
  of its own, so no token holds the question files' candidate
  separator), and English contractions split
  (``don't`` -> ``do`` + ``n't``, ``John's`` -> ``John`` + ``'s``).
  Abbreviations and initials keep their period, also after an opening
  quote or bracket.  A chunk that is all punctuation is a single token.

Both passes are lossless modulo whitespace: joining the output with single
spaces and re-splitting reproduces the same token stream.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from . import ClozereaderError, read_lines, read_text


class EmptyCorpusError(ClozereaderError):
    """Raised when an input directory yields no usable books."""


@dataclass
class RawBook:
    """One input file after boilerplate stripping."""

    book_id: str
    title: str
    text: str


@dataclass
class TokenizedBook:
    """A book as a list of token lists, one per sentence."""

    book_id: str
    title: str
    sentences: list[list[str]] = field(default_factory=list)


@dataclass
class IngestError:
    """A per-file problem recorded (not raised) during ingestion."""

    path: str
    reason: str


def read_wordlist(path) -> frozenset[str]:
    """The entries of a word or title list, one per line: each line is
    stripped, then blank lines and ``#`` comment lines are skipped.
    ``path`` is a ``Path`` or a package resource."""
    lines = read_lines(path)
    return frozenset(line for line in map(str.strip, lines) if line and not line.startswith("#"))


DATA = resources.files("clozereader.data")
DEFAULT_ABBREVIATIONS = read_wordlist(DATA.joinpath("abbreviations.txt"))

# Project Gutenberg-style section markers, matched per line.
_START_MARKER = re.compile(r"\*\*\*\s*START", re.IGNORECASE)
_END_MARKER = re.compile(r"\*\*\*\s*END", re.IGNORECASE)

_TITLE_LINE = re.compile(r"^Title:\s*(.+?)\s*$", re.MULTILINE)
_PARAGRAPH_BREAK = re.compile(r"\n\s*\n")
_TERMINATOR_RUN = re.compile(r"[.!?]+[)\]\"'”’]*")
_WORD_BEFORE = re.compile(r"[A-Za-z]+$")
_NON_SPACE = re.compile(r"\S")
_DASH_SPLIT = re.compile(r"(--+|—|–|\|)")

_LEAD_PUNCT = "\"'`([{“‘«"  # one character is tested at a time
_TRAIL_PUNCT = set(".,!?;:\"')]}”’»")
_ALL_PUNCT = re.compile(r"[^\w]+$")

# Clitics produced by the contraction rule; kept whole when re-tokenized.
_CONTRACTION_SUFFIXES = ("n't", "'s", "'re", "'ve", "'ll", "'d", "'m")
_CONTRACTION_RE = re.compile(r"(n't|'s|'re|'ve|'ll|'d|'m)$", re.IGNORECASE)


def strip_boilerplate(text: str) -> str:
    """Return the body between the first start-marker line and the last
    end-marker line.  Missing markers leave that side of the text alone."""
    lines = text.splitlines()

    start_idx = None
    for i, line in enumerate(lines):
        if _START_MARKER.search(line):
            start_idx = i
            break
    end_idx = None
    lo = 0 if start_idx is None else start_idx + 1
    for i in range(len(lines) - 1, lo - 1, -1):
        if _END_MARKER.search(lines[i]):
            end_idx = i
            break

    if start_idx is None and end_idx is None:
        return text
    body = lines[(start_idx + 1 if start_idx is not None else 0):
                 (end_idx if end_idx is not None else len(lines))]
    return "\n".join(body).strip("\n")


def extract_title(original_text: str, stripped_text: str, fallback: str) -> str:
    """Book title: a ``Title:`` header line if present, else the first
    non-empty body line, else the fallback id."""
    m = _TITLE_LINE.search(original_text)
    if m:
        return m.group(1)
    for line in stripped_text.splitlines():
        line = line.strip()
        if line:
            return line
    return fallback


def split_sentences(text: str) -> list[str]:
    """Split text into sentences by the documented rule set."""
    sentences: list[str] = []
    for paragraph in _PARAGRAPH_BREAK.split(text):
        if paragraph.strip():
            sentences.extend(_split_paragraph(paragraph))
    return sentences


def _split_paragraph(paragraph: str) -> list[str]:
    bounds = []
    for m in _TERMINATOR_RUN.finditer(paragraph):
        end = m.end()
        if end < len(paragraph):
            if not paragraph[end].isspace():
                continue
            following = _NON_SPACE.search(paragraph, end)
            if following and not (following[0].isupper() or following[0] in _LEAD_PUNCT):
                continue
        run = m.group()
        if run[0] == "." and "." not in run[1:]:
            before = _WORD_BEFORE.search(paragraph, max(0, m.start() - 40), m.start())
            if before is not None:
                if _keeps_period(before.group() + "."):
                    continue
        bounds.append(m.end())

    pieces = []
    prev = 0
    for b in bounds:
        piece = paragraph[prev:b].strip()
        if piece:
            pieces.append(piece)
        prev = b
    tail = paragraph[prev:].strip()
    if tail:
        pieces.append(tail)
    return pieces


def tokenize(sentence: str) -> list[str]:
    """Tokenize one sentence by the documented rule set."""
    tokens: list[str] = []
    for chunk in sentence.split():
        for part in _DASH_SPLIT.split(chunk):
            if part:
                tokens.extend(_split_chunk(part))
    return tokens


def _split_chunk(chunk: str) -> list[str]:
    if chunk in _CONTRACTION_SUFFIXES or chunk in DEFAULT_ABBREVIATIONS:
        return [chunk]
    if _ALL_PUNCT.fullmatch(chunk):
        return [chunk]
    if chunk.endswith("...") and chunk != "...":
        return _split_chunk(chunk[:-3]) + ["..."]
    last = chunk[-1]
    if last == "." and _keeps_period(chunk.lstrip(_LEAD_PUNCT)):
        if chunk[0] in _LEAD_PUNCT:  # '"Mr.' -> '"', 'Mr.'
            return [chunk[0]] + _split_chunk(chunk[1:])
        return [chunk]
    if last in _TRAIL_PUNCT:
        return _split_chunk(chunk[:-1]) + [last]
    if chunk[0] in _LEAD_PUNCT:
        return [chunk[0]] + _split_chunk(chunk[1:])
    m = _CONTRACTION_RE.search(chunk)
    if m is not None and m.start() > 0:
        return [chunk[: m.start()], chunk[m.start():]]
    return [chunk]


def _keeps_period(chunk: str) -> bool:
    """A known abbreviation or a single capital initial, period included."""
    return chunk in DEFAULT_ABBREVIATIONS or (
        len(chunk) == 2 and chunk[0].isupper() and chunk[1] == ".")


def tokenize_book(raw: RawBook) -> TokenizedBook:
    """Sentence-split and tokenize a stripped book.  Sentences that produce
    no tokens are dropped, so every kept sentence has at least one token.

    A book repeats most of its whitespace chunks, so each distinct chunk
    is tokenized once; ``tokenize`` works chunk by chunk, so the result is
    the same as tokenizing every sentence whole."""
    chunk_tokens: dict[str, list[str]] = {}
    sentences = []
    for sentence in split_sentences(raw.text):
        toks: list[str] = []
        for chunk in sentence.split():
            parts = chunk_tokens.get(chunk)
            if parts is None:
                parts = chunk_tokens[chunk] = tokenize(chunk)
            toks.extend(parts)
        if toks:
            sentences.append(toks)
    return TokenizedBook(book_id=raw.book_id, title=raw.title, sentences=sentences)


def ingest_books(directory: str | Path) -> tuple[list[RawBook], list[IngestError]]:
    """Read every ``*.txt`` file under a directory as one book.

    The book id is the file stem.  Per-file failures (an unreadable file, a
    byte that does not decode, nothing left after boilerplate stripping)
    are collected and reported, not raised; a directory with no ``.txt``
    files at all is an error.
    """
    directory = Path(directory)
    paths = sorted(directory.glob("*.txt"))
    if not paths:
        raise EmptyCorpusError(f"no .txt files found in {directory}")

    books: list[RawBook] = []
    errors: list[IngestError] = []
    for path in paths:
        try:
            original = read_text(path)
        except (ClozereaderError, OSError) as exc:
            errors.append(IngestError(path=str(path), reason=str(exc)))
            continue
        stripped = strip_boilerplate(original)
        if not stripped.strip():
            errors.append(IngestError(path=str(path), reason="empty after boilerplate stripping"))
            continue
        title = extract_title(original, stripped, path.stem)
        books.append(RawBook(book_id=path.stem, title=title, text=stripped))

    if not books:
        raise EmptyCorpusError(
            f"no usable books in {directory}: " + "; ".join(e.reason for e in errors)
        )
    return books, errors
