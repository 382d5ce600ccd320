"""Cloze question-answering toolkit.

Two halves, usable separately:

* dataset construction: turn plain-text books into cloze questions in the
  numbered 21-line interchange format (20 context sentences, one gapped
  question sentence with an answer and ten candidates), and
* a pointer-style recurrent reader: bidirectional GRU encoders whose
  attention weights are summed per surface form to score candidates,
  trained with hand-written backpropagation on a small dense-tensor core.

Everything is seeded and deterministic; see the README for the CLI surface.
"""

from pathlib import Path

__version__ = "0.1.0"


class ClozereaderError(Exception):
    """Base class for all errors raised by this package."""


def read_lines(path) -> list[str]:
    """The lines of a UTF-8 file or package resource, split as ``str.splitlines``
    splits them; a byte that does not decode names the file and its line."""
    data = (Path(path) if isinstance(path, str) else path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ClozereaderError(f"{path}:{line}: not valid UTF-8 ({exc.reason})") from exc
    del data  # one copy of the file at a time
    return text.splitlines()


def write_lines(path, lines) -> None:
    """Write each line and an LF after it, as UTF-8."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")
