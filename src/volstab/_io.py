"""The one float formatter and the one JSON writer behind every output file.

Floats are written with ``repr``, the shortest text that parses back to the
same double, so every CSV round-trips exactly; JSON files are indented,
key-sorted and newline-terminated so that equal payloads give equal bytes.
"""

from __future__ import annotations

import json
from pathlib import Path


def fmt(x: float) -> str:
    """Shortest round-tripping text of ``x`` (also for numpy scalars)."""
    return repr(float(x))


def write_json(payload, path: str | Path) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
