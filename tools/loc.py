"""Count the code lines of Python files: docstrings, comments and blank lines excluded.

Run ``python3 tools/loc.py src`` (or any files and directories) from the
repository root. It prints one line per file, ``<code lines> <path>``, then
the total. A line counts when it holds a token other than a comment or a
docstring; a statement spread over several lines counts each of them. It
uses the standard library only.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every module, class and function docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(getattr(first.value, "value", None), str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    docs = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT and tok.start[0] not in docs:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(paths: list[str]) -> None:
    files = []
    for p in map(Path, paths or ["src"]):
        files += sorted(p.rglob("*.py")) if p.is_dir() else [p]
    total = 0
    for f in files:
        n = code_lines(f.read_text())
        total += n
        print(f"{n:6d} {f}")
    print(f"{total:6d} total")


if __name__ == "__main__":
    main(sys.argv[1:])
