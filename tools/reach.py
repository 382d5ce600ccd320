"""Line reach: the statements under ``src/`` that a pytest run never executes.

    python tools/reach.py [PYTEST ARGS...]

runs pytest in this process under ``sys.settrace`` and
``threading.settrace``, on tier-1 (``tests/`` and ``perfbench/``) when no
arguments are given.  It prints pytest's own report, then one JSON line:
pytest's exit status, the number of statements and of unreached ones, and
for each file under ``src/`` the first line of every statement that never
ran.  It exits with pytest's status, and uses only the standard library.

Statements are found with ``ast``.  Docstrings, bare annotations and
``def``, ``class``, ``import``, ``global`` and ``nonlocal`` lines are left
out: they run when a module loads or a function is defined, or not at all.
A simple statement counts as reached when any of its lines runs, a compound
one (``if``, ``for``, ``with``, ``try`` ...) when a line of its header does.
A forked child inherits the trace: while pytest runs, ``os._exit`` is
wrapped so that a child writes the lines it ran to a temporary directory
before it exits, under a temporary name that it then renames, so a child
that a test kills mid-write leaves no half-written record.  The package's
own children always leave through ``os._exit``.  Those records are merged
once pytest returns.  Code that runs only in a subprocess is not traced,
so a statement that only a subprocess reaches is listed.  Only frames of
``src/`` files trace lines, so tier-1 runs up to about 1.5 times as long
as untraced; a test with a tight time budget could still fail under it,
and the lists stand either way.
"""

from __future__ import annotations

import ast
import json
import os
import sys
import tempfile
import threading
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TIER1 = ["-q", "--continue-on-collection-errors", str(ROOT / "tests"), str(ROOT / "perfbench")]

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
_DECLARATIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
                 ast.ImportFrom, ast.Global, ast.Nonlocal)


def docstrings(tree: ast.AST) -> list[ast.Expr]:
    """The docstring statements of the module, classes and functions of ``tree``."""
    return [node.body[0] for node in ast.walk(tree) if isinstance(node, _SCOPES)
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
            and isinstance(node.body[0].value.value, str)]


def statements(source: str) -> dict[int, range]:
    """Each statement's first line, mapped to the lines whose execution
    reaches it."""
    tree = ast.parse(source)
    skipped = {id(node) for node in docstrings(tree)}
    spans = {}
    for node in ast.walk(tree):
        if (not isinstance(node, ast.stmt) or isinstance(node, _DECLARATIONS)
                or id(node) in skipped
                or isinstance(node, ast.AnnAssign) and node.value is None):
            continue
        body = getattr(node, "body", None)
        end = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        spans[node.lineno] = range(node.lineno, end + 1)
    return spans


def unreached(source: str, ran: set[int]) -> list[int]:
    """First lines of the statements of ``source`` none of whose lines ran."""
    return sorted(first for first, span in statements(source).items() if ran.isdisjoint(span))


def trace_lines(run):
    """``run()``'s result, and the lines that ran in each file under
    ``src/`` meanwhile, by resolved path, in this process and in every
    child forked meanwhile that left through ``os._exit``.  The trace
    functions that ran before are restored after, so a traced test may
    call it."""
    ran: dict[str, set[int]] = defaultdict(set)
    inside: dict[str, bool] = {}

    def on_line(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in inside:
            inside[filename] = Path(filename).resolve().is_relative_to(SRC)
        return on_line if inside[filename] else None

    def exit_in_child(status):
        try:
            with tempfile.NamedTemporaryFile("w", dir=children, suffix=".tmp",
                                             delete=False) as out:
                json.dump({filename: sorted(lines) for filename, lines in ran.items()}, out)
            os.rename(out.name, out.name.removesuffix(".tmp") + ".json")
        finally:  # a failed write must not return into the caller's frames
            real_exit(status)

    outer, real_exit = (sys.gettrace(), threading.gettrace()), os._exit
    with tempfile.TemporaryDirectory() as children:
        os._exit = exit_in_child
        threading.settrace(on_call)
        sys.settrace(on_call)
        try:
            result = run()
        finally:
            sys.settrace(outer[0])
            threading.settrace(outer[1])
            os._exit = real_exit
        for record in Path(children).glob("*.json"):
            for filename, lines in json.loads(record.read_text(encoding="utf-8")).items():
                ran[filename].update(lines)
    by_path: dict[Path, set[int]] = defaultdict(set)
    for filename, lines in ran.items():
        by_path[Path(filename).resolve()] |= lines
    return result, by_path


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    status, ran = trace_lines(lambda: pytest.main(args or TIER1))
    files, total = {}, 0
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        total += len(statements(source))
        files[str(path.relative_to(ROOT))] = unreached(source, ran[path.resolve()])
    print(json.dumps({"pytest_exit": int(status), "statements": total,
                      "unreached": sum(map(len, files.values())), "files": files}))
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
