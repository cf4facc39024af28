"""The text format of every file volstab writes and reads back.

Floats are written with ``repr``, the shortest text that parses back to the
same double, so every CSV round-trips exactly.  ``write_csv`` is the one
CSV writer: it opens the file, writes the header and hands each group of
rows (a returns series, a trajectory, a whole curve) to ``write_rows``,
which writes whole columns; it can split the groups among forked
processes.  The episodes writer calls ``write_rows`` itself, once per
block of series and window, with texts that ``distinct_texts`` formats
once per distinct value of all the block's windows, with the same bytes.
``fmt`` formats a scalar cell (a window's thetas, a curve's bins,
``sigma_bar``) with the same text.  JSON files are indented, key-sorted
and newline-terminated so that equal payloads give equal bytes.

``read_table`` reads a CSV back a chunk of ``_CHUNK_LINES`` lines at a
time: each chunk's lines are read from the open file as latin-1, one
character per byte, and handed to numpy's parser as a list, so what a read
holds at once is one chunk's text and rows, and each caller keeps only
what it reduces a chunk to.  A text cell comes back whole, as the ``str``
of its bytes.  A chunk numpy refuses (a whitespace-only line, a malformed
row) is parsed again from its nonblank lines; when that fails too, its
nonblank lines are put to numpy one at a time, so a refused line is named
by its file line.  numpy's parser is the only judge of a cell.  Files are
UTF-8 in both directions.
"""

from __future__ import annotations

import itertools
import json
import shutil
import tempfile
import warnings
from contextlib import ExitStack, nullcontext
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TextIO

import numpy as np

from ._fork import part_bounds, run_parts


def fmt(x: float) -> str:
    """Shortest round-tripping text of ``x`` (also for numpy scalars)."""
    return repr(float(x))


def write_csv(path: str | Path, header: str, groups: Iterable[tuple], threads: int = 1) -> None:
    """Write a UTF-8 CSV: the ``header`` line, then ``write_rows(fh, *cells)`` per ``cells`` in ``groups``.

    With ``threads`` above 1, ``groups`` is a sequence, split as the
    integrator splits its series (``_fork.part_bounds``).  A forked process
    formats each slice but the first into an unlinked temporary file next
    to ``path``, while this one writes the first slice; their files are
    then appended in order, so no process holds another's text.
    """
    bounds = part_bounds(len(groups), threads) if threads > 1 else [0, None]
    with open(path, "w", newline="", encoding="utf-8") as fh, ExitStack() as stack:
        fh.write(header + "\n")
        parts = {lo: stack.enter_context(tempfile.TemporaryFile(dir=Path(path).parent)) for lo in bounds[1:-1]}

        def work(lo: int, hi: int | None) -> None:
            own = open(parts[lo].fileno(), "w", newline="", encoding="utf-8", closefd=False) if lo else None
            with own or nullcontext(fh) as out:
                for cells in itertools.islice(groups, lo, hi):
                    write_rows(out, *cells)

        run_parts(bounds, work, "formats row groups")
        fh.flush()
        for part in parts.values():
            part.seek(0)
            shutil.copyfileobj(part, fh.buffer, 1 << 20)


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
    if not isinstance(column, np.ndarray):
        return column
    if column.dtype.kind == "f":
        return list(map(repr, column.tolist()))
    if column.dtype.kind in "iu" and column.size:
        lo, hi = int(column.min()), int(column.max())
        if hi - lo < column.size:  # the span has no more texts than the column has cells
            texts = np.array([str(i) for i in range(lo, hi + 1)], dtype=object)
            return texts[column - lo].tolist()
    return list(map(str, column.tolist()))


def distinct_texts(columns: Sequence[np.ndarray]) -> list[list[str]]:
    """Each column's cell texts as ``write_rows`` writes them, from one pass over the columns joined.

    The columns are all float64 or all of one integer type.  Floats take
    ``repr`` once per distinct bit pattern, so ``0.0``, ``-0.0`` and NaN
    each keep their own text; integers are formatted as ``write_rows``
    formats one column.  The texts are cut back into one list per column.
    """
    if not columns:
        return []
    joined = np.concatenate(columns)
    if joined.dtype.kind == "f":
        bits, inverse = np.unique(joined.view(np.int64), return_inverse=True)
        texts = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)[inverse].tolist()
    else:
        texts = _column_text(joined)
    bounds = np.cumsum([column.size for column in columns]).tolist()
    return [texts[a:b] for a, b in zip([0, *bounds], bounds)]


def write_json(payload, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# The lines read_table reads and numpy parses at once.
_CHUNK_LINES = 2**12


def read_table(
    path: str | Path, dtype: np.dtype, header: str | None = None
) -> tuple[Iterator[np.ndarray], Callable[[int], int]]:
    """The nonblank data rows of a CSV whose header names ``dtype``'s fields, a chunk at a time.

    ``dtype`` has one field per column.  A text column is an ``object``
    field: each cell comes back whole, every byte of it, blanks and NULs
    too, as a ``str`` of its bytes read as latin-1.  A caller that has read
    and checked the header line itself passes it, stripped and read as
    latin-1, as ``header``.  Returns the chunks, the rows of each next
    ``_CHUNK_LINES`` lines of the file that hold any, and ``line_of``, the
    file line of a data row counted over the whole file.  A wrong header
    or a line that numpy's parser refuses raises ValueError naming the file
    and the line when its chunk is reached, so a caller that reports its
    own faults only after the last chunk reports none that numpy would
    have refused.
    """
    header = ",".join(dtype.names) if header is None else header

    def chunks() -> Iterator[np.ndarray]:
        with open(path, encoding="latin-1") as fh:
            got = fh.readline().strip()
            if got != header:
                shown = show_bytes(got.encode("latin-1"))
                raise ValueError(f"{path}: expected header {header!r}, got {shown!r}")
            first = 2  # the file line of the chunk's first line
            while lines := list(itertools.islice(fh, _CHUNK_LINES)):
                rows = _parse(path, lines, first, dtype)
                if rows.size:
                    yield rows
                first += len(lines)

    def line_of(row: int) -> int:
        with open(path, encoding="latin-1") as fh:
            numbers = (n for n, line in enumerate(fh, start=1) if n > 1 and line.strip())
            return next(itertools.islice(numbers, int(row), None))

    return chunks(), line_of


def read_rows(path: str | Path, dtype: np.dtype, header: str | None = None) -> tuple[np.ndarray, Callable[[int], int]]:
    """``read_table``'s chunks as one array, for a file whose rows are all kept."""
    chunks, line_of = read_table(path, dtype, header)
    return np.concatenate([np.empty(0, dtype), *chunks]), line_of


def _parse(path, lines: list[str], first: int, dtype: np.dtype) -> np.ndarray:
    """The rows of ``lines``, the file's lines from line ``first`` on."""
    try:
        return _loadtxt(lines, dtype)
    except ValueError:
        # numpy refuses a whitespace-only line, which the line filter
        # skips, and a malformed line, which _raise_malformed names.
        try:
            return _loadtxt(filter(str.strip, lines), dtype)
        except ValueError as exc:
            _raise_malformed(path, lines, dtype, first)
            raise ValueError(f"{path}: {exc}") from None  # a row numpy refuses whole


class TextRuns:
    """Runs of equal cells in a text column that a file gives chunk by chunk.

    The cells are ``read_table``'s: the file's bytes read as latin-1.
    ``starts`` holds each run's first row, counted over the whole file, and
    ``texts`` its cell's bytes decoded as UTF-8.  A run at the end of a
    chunk goes on into the next chunk when that chunk's first cell is the
    same.  The first run whose cell is not UTF-8 is kept as ``fault``, its
    row and bytes, for the caller to report once the whole file has been
    parsed; no run is added after it.
    """

    def __init__(self) -> None:
        self.starts: list[int] = []
        self.texts: list[str] = []
        self.fault: tuple[int, bytes] | None = None
        self._rows = 0  # rows of the chunks before
        self._last = None  # the last cell of the chunk before

    def add(self, column: np.ndarray) -> tuple[np.ndarray, list[str]] | None:
        """The runs that cover the next chunk's cells: each one's first row in the chunk and its text.

        None once a cell has not been UTF-8.
        """
        starts = np.concatenate(([0], np.flatnonzero(column[1:] != column[:-1]) + 1))
        raws = column[starts].tolist()
        before, self._rows = self._rows, self._rows + column.size
        go_on, self._last = raws[0] == self._last, raws[-1]
        if self.fault:
            return None
        texts = self.texts[-1:] if go_on else []
        for row, raw in zip(starts.tolist()[len(texts):], raws[len(texts):]):
            try:
                texts.append(raw.encode("latin-1").decode("utf-8"))
            except UnicodeDecodeError:
                self.fault = (before + row, raw.encode("latin-1"))
                return None
            self.starts.append(before + row)
            self.texts.append(texts[-1])
        return starts, texts

    def raise_fault(self, path, name: str, line_of: Callable[[int], int]) -> None:
        """Raise ValueError naming the line and bytes of the cell that was not UTF-8, if one was not."""
        if self.fault:
            row, raw = self.fault
            raise ValueError(f"{path}: line {line_of(row)}: {name} {show_bytes(raw)!r} is not UTF-8")


def _loadtxt(source: Iterable[str], dtype) -> np.ndarray:
    with warnings.catch_warnings():
        # A header-only file is reported by the caller, not by numpy.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        # numpy releases that read "1.5" as the integer 1 only warn, and
        # Python hides that warning; as an error it makes numpy refuse the row.
        warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)
        return np.loadtxt(source, dtype=dtype, delimiter=",", comments=None, ndmin=1, encoding="latin-1")


def _numpy_accepts(lines: list[str], dtype: np.dtype) -> bool:
    try:
        _loadtxt(lines, dtype)
    except ValueError:
        return False
    return True


def _raise_malformed(path, lines: list[str], dtype: np.dtype, first: int) -> None:
    """Raise naming the first nonblank line of a refused chunk that numpy's parser rejects.

    ``lines`` are the file's lines from line ``first`` on.  Each nonblank
    line is put to numpy alone, and then each cell of a refused line, so
    the verdict is numpy's own.  A line refused whole whose cells all pass
    alone is passed over.
    """
    for line_no, line in enumerate(lines, start=first):
        if not line.strip() or _numpy_accepts([line], dtype):
            continue
        cells = line.rstrip("\n").split(",")
        if len(cells) != len(dtype.names):
            raise ValueError(f"{path}: line {line_no}: expected {len(dtype.names)} columns, got {len(cells)}")
        for j, name in enumerate(dtype.names):
            row = ["0"] * len(cells)
            row[j] = cells[j]
            if not _numpy_accepts([",".join(row)], dtype):
                kind = "an integer" if dtype[name].kind == "i" else "a number"
                shown = show_bytes(cells[j].encode("latin-1"))
                raise ValueError(f"{path}: line {line_no}: {name} is not {kind}: {shown!r}")


def show_bytes(raw: bytes) -> str:
    """File bytes for an error line, decoded as UTF-8; a byte that is not UTF-8 shows as ``\\xNN``."""
    return raw.decode("utf-8", "backslashreplace")
