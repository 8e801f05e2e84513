"""Print the total and code line counts of the package source.

Usage: python tools/src_lines.py

Total lines are every line of every ``*.py`` file, as ``wc -l`` counts
them.  Code lines are the lines that hold a token other than a comment or a
docstring: blank lines, comment lines and the lines of a module, class or
function docstring do not count, and a string literal that is not a
docstring counts on every line it spans.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """(line, column) of the first token of every docstring."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                starts.add((body[0].lineno, body[0].col_offset))
    return starts


def count(source: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source."""
    docstrings = _docstring_starts(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            continue
        if tok.type == tokenize.STRING and tok.start in docstrings:
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code)


SRC = Path(__file__).resolve().parent.parent / "src" / "neardelaunay"


def main() -> int:
    total = lines = 0
    for path in sorted(SRC.glob("*.py")):
        t, c = count(path.read_text())
        total, lines = total + t, lines + c
        print(f"{path.name:20} {t:6} {c:6}")
    print(f"{'total':20} {total:6} {lines:6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
