"""The float formatters and the one JSON writer behind every output file.

Floats are written with ``repr``, the shortest text that parses back to the
same double, so every CSV round-trips exactly.  ``fmt`` formats a scalar
cell (a window's thetas, a curve's bins, ``sigma_bar``); ``write_rows``
writes whole columns, the rows of a returns series, a trajectory or an
episode table, with the same text.  JSON files are indented, key-sorted
and newline-terminated so that equal payloads give equal bytes.  The
readers of these files name a cell that does not parse with ``cell_error``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TextIO

import numpy as np


def fmt(x: float) -> str:
    """Shortest round-tripping text of ``x`` (also for numpy scalars)."""
    return repr(float(x))


def write_rows(fh: TextIO, *cells) -> None:
    """Write one newline-terminated line per row, built column by column.

    A ``str`` cell is the same text in every row.  Any other cell is a
    column with one entry per row: a list of strings, or a numpy array
    whose floats are written as ``fmt`` writes them and whose integers as
    ``str`` does.  The rows are joined once and written once, so the text
    held is that of this call's rows only.
    """
    columns = [
        cell if isinstance(cell, str) else _column_text(cell) for cell in (*cells, "\n")
    ]
    n_rows = next(len(col) for col in columns if not isinstance(col, str))
    k = len(columns)
    parts = [col if isinstance(col, str) else None for col in columns] * n_rows
    for j, col in enumerate(columns):
        if not isinstance(col, str):
            parts[j::k] = col
    fh.write("".join(parts))


def _column_text(column) -> list[str]:
    if isinstance(column, np.ndarray):
        return list(map(repr if column.dtype.kind == "f" else str, column.tolist()))
    return column


def cell_error(where: str, cells) -> ValueError:
    """The error naming the first of ``(name, text, parse)`` cells that ``parse`` refuses."""
    for name, text, parse in cells:
        try:
            parse(text)
        except ValueError:
            kind = "an integer" if parse is int else "a number"
            return ValueError(f"{where}: {name} is not {kind}: {text!r}")
    raise AssertionError(f"{where}: every cell parses")


def write_json(payload, path: str | Path) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
