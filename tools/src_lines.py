"""Line counts of the hmchaos source, with and without its prose.

Usage (from the root of a checkout, or with the checkout as argument):

    python3 tools/src_lines.py [CHECKOUT]

Prints one line per module of src/hmchaos: its total lines (as `wc -l`
counts them), then its code lines, the lines that hold a token outside
docstrings, comments and blank lines. The last line gives both totals.
Docstrings are the string statements that open a module, class or
function (found with ast); every other token is read with tokenize, and a
token that spans lines (a multi-line string) counts on each of them.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree) -> set[int]:
    """Line numbers covered by the docstrings of the module and its defs."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(source: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source."""
    docstrings = _docstring_lines(ast.parse(source))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NON_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return source.count("\n"), len(code - docstrings)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else ROOT
    total = code = 0
    for path in sorted((root / "src" / "hmchaos").glob("*.py")):
        lines, kept = counts(path.read_text())
        total += lines
        code += kept
        print(f"{lines:6d} {kept:6d}  {path.name}")
    print(f"{total:6d} {code:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
