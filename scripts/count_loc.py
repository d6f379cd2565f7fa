#!/usr/bin/env python
"""Count the code lines of Python sources: lines holding a token.

A line counts when a token other than a comment, a newline or an
indentation marker sits on it; a token spanning lines (a multi-line string)
counts every line it spans.  Docstrings — the leading string of a module,
class or function, found with :mod:`ast` — do not count, nor do comments and
blank lines.  Raw lines are every line of the file.  This is the count the
ROADMAP's ``src/repro`` figures use.  Stdlib only.

Usage::

    python scripts/count_loc.py [FILE_OR_DIRECTORY ...]   # default: src/repro

prints one line per argument (``<path>: <code> code lines, <raw> raw, in
<files> files``), a directory counting every ``*.py`` file below it.
``--help`` prints the usage line; a path that does not exist is an error.
Both exit 2.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

#: Tokens that put no code on a line.
_BLANK = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers every docstring in ``tree`` spans."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, _SCOPES) or not node.body:
            continue
        first = node.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """How many lines of ``source`` hold a token outside every docstring."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _BLANK:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def count(path: Path) -> tuple[int, int, int]:
    """``(code lines, raw lines, files)`` of a file or a directory's ``*.py``."""
    files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
    code = raw = 0
    for file in files:
        source = file.read_text(encoding="utf-8")
        code += code_lines(source)
        raw += len(source.splitlines())
    return code, raw, len(files)


USAGE = "usage: count_loc.py [FILE_OR_DIRECTORY ...]   (default: src/repro)"


def main(argv: list[str]) -> int:
    names = argv or ["src/repro"]
    if any(name in ("-h", "--help") for name in names):
        print(USAGE)
        return 2
    missing = [name for name in names if not Path(name).exists()]
    if missing:
        print(f"count_loc.py: no such file or directory: {missing[0]}", file=sys.stderr)
        return 2
    for name in names:
        code, raw, files = count(Path(name))
        print(f"{name}: {code:,} code lines, {raw:,} raw, in {files} files")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
