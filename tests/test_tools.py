"""The source-size tool that CI's "Code lines" step and CHANGES.md rely on.

``tools/code_lines.py`` is loaded with ``runpy.run_path``, which compiles
it without importing it as a module or writing a bytecode cache.
"""

import runpy
from pathlib import Path

TOOL = runpy.run_path(str(Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"))

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a statement with a trailing comment


class Box:
    """Class docstring."""

    # a comment line
    def size(self):
        """Function docstring."""
        return (os.sep +
                "x")
'''


def test_code_lines_skips_docstrings_comments_and_blanks():
    # import, class, def and the two lines of the return statement
    assert TOOL["code_lines"](SOURCE) == 5
    assert TOOL["code_lines"]("x = 1\n\n# only a comment\n") == 1


def test_main_prints_before_after_and_delta(tmp_path, capsys):
    before, after = tmp_path / "before", tmp_path / "after"
    before.mkdir()
    after.mkdir()
    files = {
        before / "a.py": "x = 1\ny = 2\n",
        before / "b.py": '"""Docstring, caf\u00e9."""\nz = 3\n',
        after / "a.py": "x = 1\ny = 2\nw = 4\n",
        after / "c.py": SOURCE,
    }
    for path, text in files.items():
        path.write_text(text, encoding="utf-8")
    # UTF-8 bytes, not characters: the e acute takes two
    old, new = (sum(len(text.encode()) for path, text in files.items() if path.parent == side) for side in (before, after))
    assert (old, new) == (42, 18 + len(SOURCE))
    assert TOOL["main"](["code_lines.py", str(after), str(before)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "before   after   delta",
        "     2       3      +1  a.py",
        "     1       0      -1  b.py",
        "     0       5      +5  c.py",
        "     3       8      +5  total",
        f"{old:6d}  {new:6d}  {new - old:+6d}  bytes",
    ]
    assert TOOL["main"](["code_lines.py", str(after)]) == 0
    assert capsys.readouterr().out.splitlines() == ["     3  a.py", "     5  c.py", "     8  total", f"{new:6d}  bytes"]
