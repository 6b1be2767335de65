"""Print the code lines of each module of src/dolrep, their total and the
modules' total size in UTF-8 bytes.

A code line is a physical line that is not blank, not a comment and not
part of a docstring (the string that opens a module, class or function).
Lines are counted from the ``ast`` of each file, so a statement split over
several lines counts each of them.  The bytes count everything an import
compiles, docstrings and comments included.

    python tools/code_lines.py [DIRECTORY [BEFORE]]

DIRECTORY defaults to src/dolrep next to this script's directory.  With a
second directory BEFORE, say the same package in a checkout of the parent
commit, each module and the two totals are printed as before, after and
delta, where after is DIRECTORY; a module missing from one side counts 0
there.
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


def tree_lines(root: Path) -> dict[str, int]:
    """Each module of the directory by name, to its code lines."""
    return {path.name: code_lines(path.read_text(encoding="utf-8")) for path in sorted(root.glob("*.py"))}


def tree_bytes(root: Path) -> int:
    """The summed size of the directory's modules, in bytes."""
    return sum(len(path.read_bytes()) for path in root.glob("*.py"))


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "dolrep"
    after = tree_lines(root)
    if len(argv) < 3:
        for name, count in after.items():
            print(f"{count:6d}  {name}")
        print(f"{sum(after.values()):6d}  total")
        print(f"{tree_bytes(root):6d}  bytes")
        return 0
    before = tree_lines(Path(argv[2]))
    print(f"{'before':>6}  {'after':>6}  {'delta':>6}")
    for name in sorted(before.keys() | after.keys()) + ["total"]:
        old, new = (sum(side.values()) if name == "total" else side.get(name, 0) for side in (before, after))
        print(f"{old:6d}  {new:6d}  {new - old:+6d}  {name}")
    old, new = tree_bytes(Path(argv[2])), tree_bytes(root)
    print(f"{old:6d}  {new:6d}  {new - old:+6d}  bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
