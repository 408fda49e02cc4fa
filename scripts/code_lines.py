#!/usr/bin/env python3
"""Count the code lines of each module under src/parmatch, and their total.

A code line is a physical line that holds some token other than a
comment: blank lines, comment lines and the lines of a module's, class's
or function's docstring are left out.  A line that a multi-line token
(a string, say) spans counts once.  Prints

    module code_lines physical_lines

one line per module, sorted by name, then a `total` line.  Run from the
repo root:

    python scripts/code_lines.py [DIR]

DIR defaults to src/parmatch; any directory of .py files works, so the
same count can be taken in a checkout of another commit.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "parmatch"

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
_DOC_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(text: str) -> int:
    """The number of code lines in the Python source `text`."""
    doc = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _DOC_OWNERS) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                doc.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - doc)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else SRC
    total_code = total_physical = 0
    for path in sorted(root.glob("*.py")):
        text = path.read_text()
        code = code_lines(text)
        physical = len(text.splitlines())
        print(f"{path.stem} {code} {physical}")
        total_code += code
        total_physical += physical
    print(f"total {total_code} {total_physical}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
