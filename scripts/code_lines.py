"""Count the code lines of each module of a package directory and their total.

    python scripts/code_lines.py [DIR]

DIR defaults to src/cpfsim of this checkout.  A code line holds at least
part of a token that is not a comment: blank lines, comment-only lines and
the lines of module, class and function docstrings are not counted, and a
statement or string that spans several lines counts each of them.  It prints
one "count  module" line per *.py file of DIR, in name order, then
"count  total".
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """Number of code lines in the Python source text."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dir", type=Path, nargs="?",
                    default=Path(__file__).resolve().parents[1] / "src" / "cpfsim",
                    help="package directory (default: src/cpfsim of this checkout)")
    args = ap.parse_args(argv)
    total = 0
    for path in sorted(args.dir.glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
