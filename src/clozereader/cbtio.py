"""Reader and writer for the numbered 21-line question file format.

Each example is 22 lines: lines ``1 ...`` through ``20 ...`` hold one
context sentence each (tokens space-separated), line 21 holds the gapped
question, a tab, the answer, two tabs, and the ``|``-separated candidate
list, and a blank line closes the example.  Files are UTF-8 with LF line
endings.  Reading tolerates trailing whitespace on a line; writing never
produces any.
"""

from __future__ import annotations

from pathlib import Path

from . import ClozereaderError
from .clozegen import DEFAULT_WINDOW as N_CONTEXT_LINES, N_CANDIDATES, ClozeExample
from .tagger import WordType

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
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for example in examples:
            fh.write("\n".join(example_lines(example)))
            fh.write("\n")


def read_examples(path: str | Path, word_type: WordType | None = None) -> list[ClozeExample]:
    """Parse a question file, raising on the first violation."""
    path = Path(path)
    examples = []
    for ordinal, block in enumerate(_blocks(path)):
        example = _parse_block(block, path, ordinal)
        example.word_type = word_type
        examples.append(example)
    return examples


def validate_file(path: str | Path) -> list[str]:
    """Collect every violation in the file instead of stopping at the
    first.  An empty list means the file is clean."""
    path = Path(path)
    violations: list[str] = []
    for ordinal, block in enumerate(_blocks(path)):
        try:
            _parse_block(block, path, ordinal)
        except CbtFormatError as exc:
            violations.append(str(exc))
    return violations


def _blocks(path: Path):
    """Yield each run of non-blank lines as (line number, line) pairs,
    trailing whitespace removed."""
    block: list[tuple[int, str]] = []
    for lineno, raw in enumerate(path.read_text("utf-8").splitlines(), start=1):
        line = raw.rstrip()
        if line:
            block.append((lineno, line))
        elif block:
            yield block
            block = []
    if block:
        yield block


def _error(path: Path, lineno: int, message: str) -> CbtFormatError:
    return CbtFormatError(f"{path.name}:{lineno}: {message}")


def _parse_block(block: list[tuple[int, str]], path: Path, ordinal: int) -> ClozeExample:
    """One example from one block, or CbtFormatError at its first violation."""
    if len(block) != N_CONTEXT_LINES + 1:
        raise _error(
            path, block[0][0],
            f"example has {len(block)} lines, expected {N_CONTEXT_LINES + 1}",
        )

    context: list[list[str]] = []
    for expected, (lineno, line) in zip(range(1, N_CONTEXT_LINES + 1), block):
        number, _, rest = line.partition(" ")
        if number != str(expected):
            raise _error(path, lineno, f"expected line number {expected}, got {number!r}")
        tokens = rest.split()
        if not tokens:
            raise _error(path, lineno, "empty context sentence")
        context.append(tokens)

    lineno, line = block[N_CONTEXT_LINES]
    number, _, rest = line.partition(" ")
    if number != str(N_CONTEXT_LINES + 1):
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
        question=question,
        answer=answer,
        candidates=candidates,
        word_type=None,
        source=(path.stem, ordinal),
    )
