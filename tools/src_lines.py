"""Count the lines of ``src/opscale/*.py``: the ``wc -l`` total and its split.

    python3 tools/src_lines.py [CHECKOUT]

Prints the total that ``wc -l`` sums over the package's modules, then its
split into code, docstring, comment and blank lines, by the modules'
syntax trees: every line of a docstring counts as docstring, blank lines
inside it too; a line that holds only a comment counts as comment, and
any other line that is not blank as code.  CHECKOUT defaults to the
checkout that holds this tool.
"""

from __future__ import annotations

import argparse
import ast
from pathlib import Path


def line_counts(checkout: Path) -> dict:
    """``wc -l`` of ``src/opscale/*.py``, and its split into code, docstring, comment and blank."""
    counts = {"total": 0, "code": 0, "docstring": 0, "comment": 0, "blank": 0}
    for path in sorted((checkout / "src" / "opscale").glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        docstring = set()
        for node in ast.walk(ast.parse(text)):
            body = getattr(node, "body", None)
            if (isinstance(body, list) and body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                docstring.update(range(body[0].lineno, body[0].end_lineno + 1))
        counts["total"] += text.count("\n")
        for number, line in enumerate(lines, start=1):
            stripped = line.strip()
            kind = ("docstring" if number in docstring else "blank" if not stripped
                    else "comment" if stripped.startswith("#") else "code")
            counts[kind] += 1
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)
    for name, value in line_counts(args.checkout).items():
        print(f"{name:<10}{value:>6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
