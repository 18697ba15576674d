"""The code-line counter in tools/code_lines.py."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# Counted by hand: the import (its trailing comment does not matter), the
# two lines of the string that is no docstring, `class Box:`, `def
# size(self):` and the two lines of the return expression.
SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment

NOTE = """an assigned string,
not a docstring"""


# a comment line
class Box:
    """Class docstring."""

    def size(self):
        """Function
        docstring."""
        return (1 +
                2)
'''


def test_code_lines_counts_a_source_by_hand():
    assert code_lines.code_lines(SOURCE) == 7


def test_main_lists_every_module_and_their_sum(capsys):
    code_lines.main()
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    *modules, (label, total) = rows
    package = ROOT / "src" / "pathscat"
    assert [name for name, _ in modules] == sorted(p.stem for p in package.glob("*.py"))
    for name, count in modules:
        assert int(count) == code_lines.code_lines((package / f"{name}.py").read_text())
    assert label == "total"
    assert int(total) == sum(int(count) for _, count in modules)
