"""tools/src_lines.py: every source line counted once, in one kind."""

import importlib.util
from pathlib import Path

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
