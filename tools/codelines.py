"""Count the code lines of Python modules: the lines that are not blank, not
comments and not docstrings.

    python tools/codelines.py src/ucpscatter/*.py

prints one line per module, its count and its path, as wc -l does, and a
total when it is given more than one.  Standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize

# tokens that a blank or comment-only line holds
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of the docstring of the module and of each class and function."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of source that hold a token other than a comment
    and are not part of a docstring."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(paths: list[str]) -> int:
    total = 0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            count = code_lines(fh.read())
        total += count
        print(f"{count:>6} {path}")
    if len(paths) > 1:
        print(f"{total:>6} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
