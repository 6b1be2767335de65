"""Print the code lines of each module of src/dolrep and their total.

A code line is a physical line that is not blank, not a comment and not
part of a docstring (the string that opens a module, class or function).
Lines are counted from the ``ast`` of each file, so a statement split over
several lines counts each of them.

    python tools/code_lines.py [DIRECTORY]

DIRECTORY defaults to src/dolrep next to this script's directory.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def code_lines(source: str) -> int:
    lines = source.splitlines()
    skip: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                skip.update(range(first.lineno, first.end_lineno + 1))
    return sum(1 for n, line in enumerate(lines, 1) if n not in skip and line.strip() and not line.strip().startswith("#"))


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "dolrep"
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
