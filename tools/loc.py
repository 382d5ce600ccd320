"""Line counts of ``src/``: raw and code-only, per file and in total.

    python tools/loc.py

prints one JSON object: for each ``.py`` file under ``src/`` its raw line
count and its code-only line count, and the totals of both.  Code-only
leaves out blank lines, lines that hold only a comment, and the lines of
docstrings, which are found by ``tools/reach.py``'s rule.  A line that a
multi-line string or bracket spans counts as code.
"""

from __future__ import annotations

import ast
import io
import json
import tokenize
from pathlib import Path

from reach import ROOT, docstrings

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> set[int]:
    """The lines of ``source`` that hold code outside a docstring."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in docstrings(ast.parse(source)):
        lines -= set(range(node.lineno, node.end_lineno + 1))
    return lines


def count(root: Path) -> dict:
    """Raw and code-only line counts of each file under ``root/src``, and their totals."""
    files, total = {}, {"raw": 0, "code": 0}
    for path in sorted((root / "src").rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        files[str(path.relative_to(root))] = counts = {
            "raw": len(source.splitlines()), "code": len(code_lines(source))}
        for key in total:
            total[key] += counts[key]
    return {"files": files, "total": total}


if __name__ == "__main__":
    print(json.dumps(count(ROOT), indent=1))
