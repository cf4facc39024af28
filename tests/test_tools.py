"""Repository tooling: tools/src_lines.py, and a check that no module of src/volstab imports a name it never uses."""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
_spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

SAMPLE = '''"""Module docstring,

over three lines."""
# a comment
import math  # a trailing comment leaves the line in code


class Point:
    """One line."""

    def norm(self):
        """Two lines:
        the length."""
        text = """not a docstring:
        code"""
        return math.hypot(self.x, self.y)
'''


def test_each_line_falls_in_one_kind(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(SAMPLE)
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    assert src_lines.count(tmp_path) == {
        "total": 16, "code": 6, "docstring": 5, "comment": 1, "blank": 4,
    }


def test_the_counts_of_the_package_add_up():
    counts = src_lines.count(ROOT / "src" / "volstab")
    assert counts["total"] == sum(counts[kind] for kind in src_lines.KINDS) > 0


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads; ``__future__`` imports and names in ``__all__`` count as read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update({(a.asname or a.name.split(".")[0]): node.lineno for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({(a.asname or a.name): node.lineno for a in node.names})
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)


def test_unused_import_is_found():
    assert _unused_imports("import re\nimport os.path\nfrom x import a as b, c\n__all__ = ['c']\nos.sep\n") == [
        "line 1: re", "line 3: b",
    ]


@pytest.mark.parametrize(
    "path", sorted(p for p in (ROOT / "src" / "volstab").glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_no_module_imports_a_name_it_never_uses(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


_spec = importlib.util.spec_from_file_location("peak_rss", ROOT / "tools" / "peak_rss.py")
peak_rss = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(peak_rss)


def test_peak_rss_reports_the_child_peak_and_its_exit_code(capsys):
    code, large = peak_rss.peak_rss([sys.executable, "-c", "b = bytearray(40_000_000); b[::4096] = b'x' * len(b[::4096]); raise SystemExit(3)"])
    assert code == 3
    assert large > 40  # MB of 10^6 bytes: the 40 MB the child touched, and its interpreter
    assert peak_rss.main([sys.executable, "-c", "pass"]) == 0
    out = capsys.readouterr().out.split()
    assert out[0] == "peak_rss_mb" and float(out[1]) > 0
