"""Print the two sizes of the package source that the ROADMAP tracks.

Run from the root of a checkout, or name the package directory:

    python3 tools/src_size.py [src/qbmg]

``lines`` counts every line of the ``*.py`` files, as
``cat src/qbmg/*.py | wc -l`` does. ``code`` counts the lines that hold a
token other than a comment or a docstring; a line with code and a comment is
code. The docstring, comment-only and blank lines make up the rest.
Standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring."""
    rows: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                rows.update(range(body[0].lineno, body[0].end_lineno + 1))
    return rows


def sizes(text: str) -> dict[str, int]:
    """Line counts of one module: lines, code, docstrings, comments, blank."""
    docs = _docstring_lines(ast.parse(text))
    code: set[int] = set()
    comments: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in _LAYOUT and tok.start[0] not in docs:
            code.update(range(tok.start[0], tok.end[0] + 1))
    lines = text.splitlines()
    blank = {i for i, line in enumerate(lines, 1) if not line.strip()}
    return {
        "lines": text.count("\n"),
        "code": len(code),
        "docstrings": len(docs),
        "comments": len(comments - code - docs),
        "blank": len(blank - docs - code),
    }


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path("src/qbmg")
    files = sorted(root.glob("*.py"))
    if not files:
        print(f"no Python files under {root}", file=sys.stderr)
        return 2
    total = dict.fromkeys(("lines", "code", "docstrings", "comments", "blank"), 0)
    for path in files:
        for key, n in sizes(path.read_text()).items():
            total[key] += n
    print(f"{root}: {len(files)} modules")
    for key, n in total.items():
        print(f"{key:>10} {n:6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
