"""The statement listing of the line-reach tool in ``tools/reach.py``, on a
code string; the tool's own pytest run is not started here."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "reach", Path(__file__).resolve().parents[1] / "tools" / "reach.py")
reach = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reach)

SOURCE = '''\
"""Module docstring."""
import os

LIMIT: int
X = 1


def f(a):
    """Docstring."""
    global X
    if a:
        return (a +
                1)
    try:
        pass
    except ValueError:
        raise
    with open(os.devnull) as fh: fh.read()
    return 0
'''


def test_statements_leave_out_docstrings_declarations_and_bare_annotations():
    # A compound statement spans its header only; a simple one all its lines.
    assert reach.statements(SOURCE) == {
        5: range(5, 6), 11: range(11, 12), 12: range(12, 14), 14: range(14, 15),
        15: range(15, 16), 17: range(17, 18), 18: range(18, 19), 19: range(19, 20),
    }


def test_a_statement_is_reached_by_any_line_it_spans():
    assert reach.unreached(SOURCE, {1, 2, 4, 5, 8, 11, 13, 14, 15, 18, 19}) == [17]
    assert reach.unreached(SOURCE, set()) == [5, 11, 12, 14, 15, 17, 18, 19]
