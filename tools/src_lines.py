"""Count the lines of the package's sources by kind.

Usage: python tools/src_lines.py [SRC_DIR]   (default: src/ next to tools/)

Prints the total line count of every .py file under SRC_DIR and splits it
into code, docstring, comment and blank lines.  A docstring is the string
that ``ast`` finds first in a module, class or function body; every line it
spans, blank ones included, counts as docstring.  Of the other lines, an
empty one is blank, one whose first character is ``#`` is a comment, and the
rest are code.  The total is what ``wc -l`` reports.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

KINDS = ("total", "code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.AST) -> set:
    """Line numbers (1-based) spanned by the docstrings in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def count(path: Path) -> dict:
    text = path.read_text()
    docs = docstring_lines(ast.parse(text))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        kind = ("docstring" if number in docs else "blank" if not stripped
                else "comment" if stripped.startswith("#") else "code")
        counts[kind] += 1
    counts["total"] = text.count("\n")
    return counts


def main(argv: list) -> int:
    src = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src"
    if not src.is_dir():
        print(f"not a directory: {src}", file=sys.stderr)
        return 2
    totals = dict.fromkeys(KINDS, 0)
    for path in sorted(src.rglob("*.py")):
        for kind, n in count(path).items():
            totals[kind] += n
    print("  ".join(f"{kind} {totals[kind]:,}" for kind in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
