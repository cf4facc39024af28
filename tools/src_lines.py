"""Count the lines of volstab's source by kind: code, docstring, comment and blank.

Usage: python tools/src_lines.py [DIR]   (default: the repository's src/volstab)

Every line of every ``*.py`` file under DIR falls in one kind.  A blank
line holds only whitespace, inside a docstring too; a docstring line is
any other line inside a module, class or function docstring, its quotes
included; a comment line starts with ``#`` after its indentation.  Every
other line is code, so a trailing comment leaves its line in code.
Standard library only.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set[int]:
    """The 1-based numbers of the lines inside a module, class or function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def count(root: Path) -> dict[str, int]:
    """Total lines of the ``*.py`` files under ``root`` and the lines of each kind."""
    counts = dict.fromkeys(("total", *KINDS), 0)
    for path in sorted(root.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        docs = docstring_lines(ast.parse(text, str(path)))
        for number, line in enumerate(text.splitlines(), start=1):
            stripped = line.strip()
            if not stripped:
                kind = "blank"
            elif number in docs:
                kind = "docstring"
            elif stripped.startswith("#"):
                kind = "comment"
            else:
                kind = "code"
            counts["total"] += 1
            counts[kind] += 1
    return counts


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "volstab"
    counts = count(root)
    print(" ".join(f"{name} {value}" for name, value in counts.items()) + f"  ({root})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
