"""``tools/src_lines.py``: the ``src/`` line count and its split by kind of line."""

import importlib.util
import os

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "src_lines.py")
spec = importlib.util.spec_from_file_location("src_lines", TOOL)
src_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_lines)

MODULE = '''"""Module docstring.

With a blank line inside it."""

import math  # a comment after code is code

# a comment

CONSTANT = """not a docstring:
a string assigned"""


class Box:
    """Class docstring."""

    def area(self):
        """Method docstring,

        on three lines."""
        return math.pi
'''


def test_splits_a_module_into_code_docstrings_comments_and_blanks(tmp_path):
    package = tmp_path / "src" / "opscale"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(MODULE)
    (package / "empty.py").write_text("")
    (tmp_path / "src" / "other.py").write_text("x = 1\n")  # outside the package
    counts = src_lines.line_counts(tmp_path)
    assert counts == {"total": 20, "code": 6, "docstring": 7, "comment": 1, "blank": 6}
    assert counts["total"] == sum(v for name, v in counts.items() if name != "total")


def test_prints_each_count_on_its_own_line(tmp_path, capsys):
    package = tmp_path / "src" / "opscale"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(MODULE)
    assert src_lines.main([str(tmp_path)]) == 0
    printed = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert printed == [["total", "20"], ["code", "6"], ["docstring", "7"], ["comment", "1"],
                       ["blank", "6"]]
