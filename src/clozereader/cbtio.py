"""Reader and writer for the numbered 21-line question file format.

Each example is 22 lines: lines ``1 ...`` through ``20 ...`` hold one
context sentence each (tokens space-separated), line 21 holds the gapped
question, a tab, the answer, two tabs, and the ``|``-separated candidate
list, and a blank line closes the example.  Files are UTF-8 with LF line
endings.  Reading tolerates trailing whitespace on a line; writing never
produces any.

Generated files repeat each context sentence in many consecutive
examples, so the reader splits a context line only when the previous
example did not hold the same text.  Examples read from one file
therefore share equal context sentences (one list object), as generated
examples do; copy a sentence before changing it.
"""

from __future__ import annotations

from collections.abc import Iterator
from pathlib import Path

from . import ClozereaderError, read_lines, write_lines
from .clozegen import DEFAULT_WINDOW as N_CONTEXT_LINES, N_CANDIDATES, ClozeExample

CANDIDATE_SEP = "|"


class CbtFormatError(ClozereaderError):
    """A structural violation in a question file, with its line number."""


def example_lines(example: ClozeExample) -> list[str]:
    """The 22 lines (last one blank) encoding one example."""
    lines = []
    for i, sentence in enumerate(example.context, start=1):
        lines.append(f"{i} {' '.join(sentence)}")
    question = " ".join(example.question)
    candidates = CANDIDATE_SEP.join(example.candidates)
    lines.append(f"{N_CONTEXT_LINES + 1} {question}\t{example.answer}\t\t{candidates}")
    lines.append("")
    return lines


def write_examples(examples: list[ClozeExample], path: str | Path) -> None:
    """Write a question file.  Every context must be N_CONTEXT_LINES
    non-empty sentences, or no file is written: the reader splits examples
    by that layout."""
    for index, example in enumerate(examples):
        empty = sum(not sentence for sentence in example.context)
        if len(example.context) != N_CONTEXT_LINES or empty:
            raise CbtFormatError(
                f"example {index} (source {example.source}): context has "
                f"{len(example.context)} sentences ({empty} empty), expected "
                f"{N_CONTEXT_LINES} non-empty"
            )
    write_lines(path, ("\n".join(example_lines(example)) for example in examples))


def read_examples(path: str | Path) -> list[ClozeExample]:
    """Parse a question file, raising on the first violation.  Equal
    tokens within the file share one string object, and a context line
    equal to one of the previous example's shares its token list."""
    examples = []
    for parsed in _parse(Path(path)):
        if isinstance(parsed, CbtFormatError):
            raise parsed
        examples.append(parsed)
    return examples


def validate_file(path: str | Path) -> list[str]:
    """Collect every violation in the file instead of stopping at the
    first.  An empty list means the file is clean."""
    return [str(parsed) for parsed in _parse(Path(path)) if isinstance(parsed, CbtFormatError)]


def _parse(path: Path) -> Iterator[ClozeExample | CbtFormatError]:
    """Each block's example, or the CbtFormatError of its first violation.
    A block that fails does not replace the previous example's sentence map."""
    forms: dict[str, str] = {}
    sentences: dict[str, list[str]] = {}
    for ordinal, block in enumerate(_blocks(path)):
        try:
            example, sentences = _parse_block(block, path, ordinal, forms, sentences)
        except CbtFormatError as exc:
            example = exc
        yield example


def _blocks(path: Path):
    """Yield each run of non-blank lines as (number of its first line,
    lines), trailing whitespace removed."""
    lines = [line.rstrip() for line in read_lines(path)]
    lines.append("")
    start = 0
    while start < len(lines):
        end = lines.index("", start)  # the blank line that closes this run
        if end > start:
            yield start + 1, lines[start:end]
        start = end + 1


def _error(path: Path, lineno: int, message: str) -> CbtFormatError:
    return CbtFormatError(f"{path}:{lineno}: {message}")


_LINE_NUMBERS = [str(n) for n in range(1, N_CONTEXT_LINES + 2)]


def _parse_block(
    block: tuple[int, list[str]], path: Path, ordinal: int, forms: dict[str, str],
    sentences: dict[str, list[str]],
) -> tuple[ClozeExample, dict[str, list[str]]]:
    """One example from one block, or CbtFormatError at its first violation.
    Each token passes through ``forms``, so equal tokens share one string.
    ``sentences`` maps the previous example's context line texts to their
    token lists, and a repeated text reuses that list; the example is
    returned with the same map of its own lines."""
    first, lines = block
    if len(lines) != N_CONTEXT_LINES + 1:
        raise _error(
            path, first,
            f"example has {len(lines)} lines, expected {N_CONTEXT_LINES + 1}",
        )
    share = forms.setdefault
    previous = sentences.get

    own: dict[str, list[str]] = {}
    context: list[list[str]] = []
    for lineno, expected, line in zip(range(first, first + N_CONTEXT_LINES),
                                      _LINE_NUMBERS, lines):
        number, _, rest = line.partition(" ")
        if number != expected:
            raise _error(path, lineno, f"expected line number {expected}, got {number!r}")
        tokens = previous(rest)
        if tokens is None:
            tokens = rest.split()
            if not tokens:
                raise _error(path, lineno, "empty context sentence")
            tokens = list(map(share, tokens, tokens))
        own[rest] = tokens
        context.append(tokens)

    lineno, line = first + N_CONTEXT_LINES, lines[N_CONTEXT_LINES]
    number, _, rest = line.partition(" ")
    if number != _LINE_NUMBERS[N_CONTEXT_LINES]:
        raise _error(path, lineno,
                     f"expected line number {N_CONTEXT_LINES + 1}, got {number!r}")
    fields = rest.split("\t")
    if len(fields) != 4 or fields[2] != "":
        raise _error(
            path, lineno,
            "question line must be question<TAB>answer<TAB><TAB>candidates",
        )
    question_text, answer, _, candidate_text = fields
    question = question_text.split()
    if not question:
        raise _error(path, lineno, "empty question")
    if not answer or len(answer.split()) != 1:
        raise _error(path, lineno, f"answer must be a single token, got {answer!r}")
    candidates = candidate_text.split(CANDIDATE_SEP)
    if len(candidates) != N_CANDIDATES or any(not c for c in candidates):
        raise _error(
            path, lineno,
            f"expected {N_CANDIDATES} non-empty candidates, got {candidate_text!r}",
        )
    if answer not in candidates:
        raise _error(path, lineno, f"answer {answer!r} not among candidates")

    return ClozeExample(
        context=context,
        question=list(map(share, question, question)),
        answer=share(answer, answer),
        candidates=list(map(share, candidates, candidates)),
        source=(path.stem, ordinal),
    ), own
