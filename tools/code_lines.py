"""Print the code lines of each module of the library, and their total.

Usage, from the root of a checkout:

    python3 tools/code_lines.py [CHECKOUT]

Reads every ``CHECKOUT/src/varproj/*.py`` (by default the checkout that
holds this script) and prints one ``<code lines>  <total lines>  <file>``
line per module, sorted by name, then the same for all of them. A code line
is a line that is not blank, not a full-line comment and not part of a
docstring (the string that opens a module, class or function). With
``tools/output_digests.py``, a refactor's two checks, the same output
bytes and fewer code lines, take one command each per checkout.
"""

from __future__ import annotations

import argparse
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that the docstrings of ``tree`` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(code lines, total lines) of one module's source."""
    docstrings = _docstring_lines(ast.parse(source))
    lines = source.splitlines()
    code = sum(1 for number, line in enumerate(lines, start=1)
               if line.strip() and not line.lstrip().startswith("#")
               and number not in docstrings)
    return code, len(lines)


def code_lines(checkout: Path) -> list[tuple[str, int, int]]:
    """(file name, code lines, total lines) of every module, sorted by name."""
    return [(path.name, *count(path.read_text(encoding="utf-8")))
            for path in sorted((checkout / "src" / "varproj").glob("*.py"))]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", type=Path, default=ROOT,
                        help="root of the checkout whose src/varproj is counted "
                             "(default: this one)")
    args = parser.parse_args()
    modules = code_lines(args.checkout.resolve())
    for name, code, total in modules:
        print(f"{code:6d}  {total:6d}  {name}")
    print(f"{sum(m[1] for m in modules):6d}  {sum(m[2] for m in modules):6d}  total")


if __name__ == "__main__":
    main()
