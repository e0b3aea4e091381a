"""Size of the casemix package: physical and code lines per module.

Code lines leave out blank lines, comments, and module, class and function
docstrings. Run from anywhere:

    python3 tools/src_lines.py
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "casemix")
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.Module) -> set:
    """Line numbers of the module's, its classes' and its functions' docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple:
    """(physical lines, code lines) of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docstring_lines(ast.parse(text)))


def main() -> int:
    rows = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                rows.append((name, *count(fh.read())))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}} {'physical':>9} {'code':>6}")
    for name, physical, code in rows:
        print(f"{name:<{width}} {physical:>9} {code:>6}")
    print(f"{'total':<{width}} {sum(r[1] for r in rows):>9} {sum(r[2] for r in rows):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
