"""tools/src_lines.py: total and code lines of every hmchaos module."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import src_lines  # noqa: E402

SRC = ROOT / "src" / "hmchaos"


def test_every_module_is_listed_with_its_wc_line_count(capsys):
    assert src_lines.main([str(ROOT)]) == 0
    *rows, last = capsys.readouterr().out.splitlines()
    listed = {name: (int(total), int(code)) for total, code, name in map(str.split, rows)}
    modules = sorted(SRC.glob("*.py"))
    assert sorted(listed) == [path.name for path in modules]
    for path in modules:
        total, code = listed[path.name]
        assert total == path.read_bytes().count(b"\n")  # what wc -l counts
        assert 0 < code < total
    assert last.split() == [str(sum(t for t, _ in listed.values())),
                            str(sum(c for _, c in listed.values())), "total"]


def test_code_lines_leave_out_docstrings_comments_and_blank_lines():
    source = '''"""Module
docstring."""

import math  # a comment
# a comment line


class A:
    """One line."""

    def f(self):
        """Two
        lines."""
        text = """a multi-line
string value"""
        return (math.pi,
                text)
'''
    # import, class, def, the string's two lines, and the return's two
    assert src_lines.counts(source) == (source.count("\n"), 7)
