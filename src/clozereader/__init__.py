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

import os
import stat
from contextlib import contextmanager, suppress
from pathlib import Path

__version__ = "0.1.0"

# The thread counts that BLAS reads once, when numpy loads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS")


class ClozereaderError(Exception):
    """Base class for all errors raised by this package."""


def read_text(path) -> str:
    """The text of a UTF-8 file or package resource, newlines translated as
    ``open`` translates them; a byte that does not decode names the file and
    its line."""
    data = (Path(path) if isinstance(path, str) else path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ClozereaderError(f"{path}:{line}: not valid UTF-8 ({exc.reason})") from exc
    del data  # one copy of the file at a time
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def read_lines(path) -> list[str]:
    """The lines of ``read_text(path)``, split as ``str.splitlines`` splits them."""
    return read_text(path).splitlines()


@contextmanager
def write_whole(path, mode: str = "w"):
    """A file to write ``path`` through, as UTF-8 text with LF newlines or,
    with mode ``"wb"``, as bytes.  The file is a sibling temporary file that
    is fsynced, given the permission bits of the file it replaces, and
    renamed over ``path`` (over its target, if ``path`` is a symlink) only
    when the block ends without an exception, so an interrupted write leaves
    the previous file, or none, and no temporary file; a process killed
    outright runs no cleanup, and leaves its temporary file beside the
    previous one.  A rename makes a new file: another hard link to the old
    one keeps the old bytes."""
    path = os.path.realpath(path)
    tmp_path = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp_path, mode) if "b" in mode else open(tmp_path, mode, encoding="utf-8",
                                                     newline="\n")
    try:
        with fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        with suppress(FileNotFoundError):
            os.chmod(tmp_path, stat.S_IMODE(os.stat(path).st_mode))
        os.replace(tmp_path, path)
    except BaseException:
        os.unlink(tmp_path)
        raise


def write_lines(path, lines) -> None:
    """Write each line and an LF after it, as UTF-8, through ``write_whole``."""
    with write_whole(path) as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")
