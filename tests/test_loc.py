"""The code-only line count of ``tools/loc.py``, on a code string, and its
totals on a small tree."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))  # loc imports reach

import loc  # noqa: E402

SOURCE = '''\
"""Module docstring
on two lines."""
import os

# A comment line.
X = """a string
that is code"""  # and a comment


def f(a):
    """Docstring."""

    return (a +
            1)
'''


def test_code_lines_leave_out_blanks_comments_and_docstrings():
    assert loc.code_lines(SOURCE) == {3, 6, 7, 10, 13, 14}


def test_count_gives_raw_and_code_lines_per_file_and_in_total(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "a.py").write_text(SOURCE, encoding="utf-8")
    (package / "b.py").write_text("# only a comment\n\ny = 2\n", encoding="utf-8")
    assert loc.count(tmp_path) == {
        "files": {"src/pkg/a.py": {"raw": 14, "code": 6}, "src/pkg/b.py": {"raw": 3, "code": 1}},
        "total": {"raw": 17, "code": 7},
    }
