"""Price ingestion, daily simple returns, and per-series volatility stats.

Empirical and simulated series flow through the same types here, so the
market-average volatility that anchors threshold windows is computed the
same way for both.  Many series travel together as one ``Ensemble``: a
flat array of returns cut into series by offsets.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from ._io import TextRuns, read_rows, read_table, show_bytes, write_csv, write_json

__all__ = [
    "ReturnSeries",
    "Ensemble",
    "MarketStats",
    "load_prices",
    "to_returns",
    "market_stats",
    "write_returns_csv",
    "read_returns_csv",
    "write_stats_json",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class ReturnSeries:
    """One series of an Ensemble, as its iteration and indexing yield it.

    ``returns`` is a view of the ensemble's values, and ``sigma`` its
    population standard deviation (divide by the number of returns).
    """

    ticker: str
    returns: np.ndarray
    sigma: float


# The most values one numpy call of Ensemble's per-series reductions takes,
# which bounds the temporaries of that call.
_BLOCK_VALUES = 2**16


@dataclass(eq=False)
class Ensemble:
    """Return series stored end to end: series ``i`` is ``values[offsets[i]:offsets[i + 1]]``.

    ``sigmas`` holds each series' population standard deviation, computed
    from ``values``.  ``len`` counts the series, and iterating or indexing
    yields one ``ReturnSeries`` (a view) per series.
    The arrays are not to be changed once built: ``prefix_sums`` are kept.

    ``prefix_sums`` are two float64 arrays of the ensemble's size, so a
    scan that needs them, such as ``extract_table``, holds less when run on
    each of ``series_blocks`` in turn: each block's sums and threshold
    masks are of the block's size and go with the block.
    """

    tickers: list[str]
    values: np.ndarray
    offsets: np.ndarray
    sigmas: np.ndarray = field(init=False)
    _sums: tuple[np.ndarray, np.ndarray] | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self.tickers = list(self.tickers)
        self.values = np.asarray(self.values, dtype=float)
        self.offsets = np.asarray(self.offsets, dtype=np.int64)
        n = len(self.tickers)
        if n == 0:
            raise ValueError("no return series")
        if len(set(self.tickers)) != n:
            dup = next(t for t, count in Counter(self.tickers).items() if count > 1)
            raise ValueError(f"duplicate ticker {dup!r}")
        if (
            self.values.ndim != 1
            or self.offsets.shape != (n + 1,)
            or self.offsets[0] != 0
            or self.offsets[-1] != self.values.size
            or np.any(np.diff(self.offsets) < 1)
        ):
            raise ValueError("offsets must cut values into one nonempty series per ticker")
        bad = np.flatnonzero(~np.isfinite(self.values))
        if bad.size:  # checked before np.std, which warns on non-finite input
            i = int(np.searchsorted(self.offsets, bad[0], side="right")) - 1
            raise ValueError(f"{self.tickers[i]}: returns contain non-finite values")
        self.sigmas = np.empty(n)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
            for i, m, length in self._blocks():
                a = int(self.offsets[i])
                self.sigmas[i : i + m] = np.std(self.values[a : a + m * length].reshape(m, length), axis=1)
        bad = np.flatnonzero(~np.isfinite(self.sigmas))
        if bad.size:
            raise ValueError(f"{self.tickers[bad[0]]}: returns too large, their standard deviation overflows")

    def __len__(self) -> int:
        return len(self.tickers)

    def __getitem__(self, i: int) -> ReturnSeries:
        i = range(len(self))[i]
        a, b = self.offsets[i], self.offsets[i + 1]
        return ReturnSeries(self.tickers[i], self.values[a:b], float(self.sigmas[i]))

    def __iter__(self) -> Iterator[ReturnSeries]:
        return (self[i] for i in range(len(self)))

    def _bounds(self) -> Iterator[tuple[int, int]]:
        return zip(self.offsets[:-1].tolist(), self.offsets[1:].tolist())

    def _blocks(self) -> Iterator[tuple[int, int, int]]:
        """``(i, m, length)``: series ``i`` to ``i + m`` all hold ``length`` values.

        The blocks cover the series in order; each is a run of consecutive
        equal-length series, cut so that a block holds at most
        ``_BLOCK_VALUES`` values unless one series alone holds more.  Per
        row, numpy's axis-1 ``std`` and ``cumsum`` of a block give the bits
        of the same call on one series.
        """
        lengths = np.diff(self.offsets)
        cuts = (np.flatnonzero(lengths[1:] != lengths[:-1]) + 1).tolist()
        for i, j in zip([0, *cuts], [*cuts, len(self)]):
            length = int(lengths[i])
            step = max(1, _BLOCK_VALUES // length)
            for k in range(i, j, step):
                yield k, min(step, j - k), length

    def series_blocks(self) -> Iterator[Ensemble]:
        """Sub-ensembles of consecutive whole series that cover the series in order.

        Each holds at most ``_BLOCK_VALUES`` values unless one series alone
        holds more; unlike ``_blocks``, series of unequal length share a
        block.  A block's ``prefix_sums`` are its series' own running sums,
        the bits of the whole ensemble's, so a scan of each block in turn
        gives the rows of the whole scan.
        """
        offsets = self.offsets
        i, n = 0, len(self)
        while i < n:
            a = int(offsets[i])
            j = max(i + 1, int(np.searchsorted(offsets, a + _BLOCK_VALUES, side="right")) - 1)
            # views of this ensemble's arrays and sigmas, checked once already
            block = object.__new__(Ensemble)
            block.__dict__.update(tickers=self.tickers[i:j], values=self.values[a : offsets[j]],
                                  offsets=offsets[i : j + 1] - a, sigmas=self.sigmas[i:j], _sums=None)
            yield block
            i = j

    def prefix_sums(self) -> tuple[np.ndarray, np.ndarray]:
        """Running sums of each series' returns and squared returns, built once.

        Each series' sums are led by a 0.0, so the sums of series ``i``
        start at ``offsets[i] + i``: the sum of ``values[a:b]`` within
        series ``i`` is ``s1[b + i] - s1[a + i]``.
        """
        if self._sums is None:
            s1 = np.zeros(self.values.size + len(self))
            s2 = np.zeros_like(s1)
            for i, m, length in self._blocks():
                a = int(self.offsets[i])
                y = self.values[a : a + m * length].reshape(m, length)
                # a row of the sums is a series' leading 0.0 and its running sums
                rows = slice(a + i, a + i + m * (length + 1))
                np.cumsum(y, axis=1, out=s1[rows].reshape(m, length + 1)[:, 1:])
                np.cumsum(y * y, axis=1, out=s2[rows].reshape(m, length + 1)[:, 1:])
            self._sums = (s1, s2)
        return self._sums


@dataclass(frozen=True)
class MarketStats:
    """Number of series, market-average volatility, and the per-series values."""

    n_series: int
    sigma_bar: float
    per_series_sigma: dict[str, float]


def to_returns(tickers: list[str], prices: np.ndarray, offsets: np.ndarray) -> Ensemble:
    """Returns r(t) = (p(t) - p(t-1)) / p(t-1) of each series of ``load_prices``' result."""
    prices = np.asarray(prices, dtype=float)
    offsets = np.asarray(offsets, dtype=np.int64)
    if not np.all((prices > 0) & (prices < np.inf)):
        raise ValueError("prices must be finite and positive")
    with np.errstate(over="ignore"):  # Ensemble reports an overflowed return as non-finite
        r = np.diff(prices) / prices[:-1]
    # the entry from one series' last price to the next one's first is no return
    return Ensemble(tickers, np.delete(r, offsets[1:-1] - 1), offsets - np.arange(offsets.size))


def market_stats(ensemble: Ensemble) -> MarketStats:
    """Arithmetic mean of per-series sigmas; exact (order-independent) summation."""
    per = dict(zip(ensemble.tickers, ensemble.sigmas.tolist()))
    sigma_bar = math.fsum(per.values()) / len(per)
    return MarketStats(n_series=len(per), sigma_bar=sigma_bar, per_series_sigma=per)


def load_prices(path: str | Path, layout: str = "per-stock") -> tuple[list[str], np.ndarray, np.ndarray]:
    """Closing prices from CSV: ``(tickers, prices, offsets)``, ``to_returns``' input.

    Series ``i`` is ``prices[offsets[i]:offsets[i + 1]]``.  A ``per-stock``
    file's header starts ``date,close`` in any case (a directory is scanned
    for ``*.csv``, ticker = file stem); a ``wide`` file's header is
    ``date,<ticker1>,<ticker2>,...``.  A blank, ``nan``, ``inf`` or
    non-positive price is dropped with a per-ticker warning, and a series
    left with fewer than two prices is skipped.  README lists the accepted
    forms; any other cell, or a date not after the one above it, raises
    ValueError naming the line.
    """
    path = Path(path)
    if not path.exists():
        raise ValueError(f"{path}: no such file or directory")
    if layout not in ("per-stock", "wide"):
        raise ValueError(f"unknown layout {layout!r} (expected 'per-stock' or 'wide')")
    if layout == "wide" and path.is_dir():
        raise ValueError(f"{path}: wide layout expects a single CSV file")
    files = price_files(path)
    if not files:
        raise ValueError(f"{path}: no CSV files found")
    tickers, series = [], []
    for f in files:
        for ticker, prices, dropped in _price_columns(f, layout):
            if dropped:
                logger.warning("%s: dropped %d rows with missing or non-positive prices", ticker, dropped)
            if prices.size < 2:
                logger.warning("%s: skipped, fewer than 2 valid prices", ticker)
                continue
            tickers.append(ticker)
            series.append(prices)
    offsets = np.cumsum([0, *(p.size for p in series)], dtype=np.int64)
    return tickers, np.concatenate([np.empty(0), *series]), offsets


def price_files(path: Path) -> list[Path]:
    """The files ``load_prices`` reads for ``path``: a directory's ``*.csv`` in name order, or the file itself."""
    return sorted(path.glob("*.csv")) if path.is_dir() else [path]


def _price_columns(path: Path, layout: str) -> Iterator[tuple[str, np.ndarray, int]]:
    """Each ticker of one price file, its valid prices, and the number of its rows dropped."""
    with open(path, encoding="latin-1") as fh:  # as read_table reads it: one character per byte
        line = fh.readline().encode("latin-1")
    names = [name.strip() for name in line.split(b",")]
    if names[0].lower() != b"date" or len(names) < 2 or (layout != "wide" and names[1].lower() != b"close"):
        expected = "date,close" if layout == "per-stock" else "date,<ticker>,..."
        raise ValueError(f"{path}: expected header {expected!r}, got {show_bytes(line.strip())!r}")
    try:
        tickers = [path.stem] if layout == "per-stock" else [name.decode().strip() for name in names[1:]]
    except UnicodeDecodeError:
        raise ValueError(f"{path}: line 1: a ticker is not UTF-8: {show_bytes(line.strip())!r}") from None
    if len(set(tickers)) != len(tickers):
        raise ValueError(f"{path}: duplicate ticker columns")
    # Every cell is read as text: the date, the prices and any further column.
    dtype = np.dtype([("date", object), *((f"c{j}", object) for j in range(1, len(names)))])
    rows, line_of = read_rows(path, dtype, header=line.decode("latin-1").strip())
    # Each cell is taken back to its bytes, so that only ASCII blanks are stripped.
    date, *columns = [np.array([s.encode("latin-1") for s in rows[n].tolist()], "S") for n in dtype.names[: len(tickers) + 1]]
    dates = np.char.strip(date)
    cells = np.stack([np.char.strip(column) for column in columns], axis=-1)
    blank = cells == b""
    kept = np.flatnonzero((dates != b"") | ~blank.all(axis=1))  # a line of blank cells is skipped
    prices = np.full(cells.shape, np.nan)  # a blank cell is a missing price
    try:
        prices[~blank] = cells[~blank].astype(np.float64)
    except ValueError:  # numpy's cast is Python's float of each cell's bytes; find the first it refuses
        for k in np.flatnonzero(~blank).tolist():
            try:
                float(cells.flat[k])
            except ValueError:
                row, j = divmod(k, len(tickers))
                column = "close" if layout == "per-stock" else tickers[j]
                raw = show_bytes(columns[j][row])
                raise ValueError(
                    f"{path}: line {line_of(row)}, column {column!r}: not a number: {raw!r}"
                ) from None
        raise
    late = np.flatnonzero(dates[kept[1:]] <= dates[kept[:-1]])
    if late.size:
        before, row = kept[late[0] : late[0] + 2]
        raise ValueError(f"{path}: line {line_of(row)}: dates must be strictly increasing, "
                         f"got {show_bytes(dates[row])!r} after {show_bytes(dates[before])!r}; dates are "
                         "compared as text and must be zero-padded ISO dates (YYYY-MM-DD)")
    valid = (prices > 0) & (prices < np.inf)  # NaN is neither
    for j, ticker in enumerate(tickers):
        yield ticker, prices[valid[:, j], j], kept.size - int(np.count_nonzero(valid[:, j]))


_RETURNS_DTYPE = np.dtype([("ticker", object), ("day_index", np.int64), ("return", np.float64)])


def write_returns_csv(ensemble: Ensemble, path: str | Path, threads: int = 1) -> None:
    """Write ``ticker,day_index,return`` rows, one series at a time; floats round-trip exactly.

    ``threads`` splits the series among processes as ``write_csv`` does.
    """
    heads = [f",{i}," for i in range(int(np.diff(ensemble.offsets).max(initial=0)))]
    series = zip(ensemble.tickers, ensemble._bounds())
    # a series of full length shares ``heads``: only shorter ones hold a copy of its start
    groups = [(ticker, heads if b - a == len(heads) else heads[: b - a], ensemble.values[a:b])
              for ticker, (a, b) in series]
    write_csv(path, ",".join(_RETURNS_DTYPE.names), groups, threads)


def read_returns_csv(path: str | Path) -> Ensemble:
    """Read ``ticker,day_index,return`` rows into an Ensemble.

    A ticker's rows need not be adjacent: tickers keep the order of their
    first rows, and each ticker's day_index must count 0, 1, 2, ... in file
    order.  Blank lines are skipped.  A malformed row, a non-finite return
    or a day_index out of order raises ValueError naming the file line, and
    a standard deviation that overflows one naming the file and ticker.

    The file is read a chunk of lines at a time (``read_table``), and each
    chunk is reduced to its returns, its ticker runs and its day check,
    carried from chunk to chunk, so the read holds 8 bytes a row besides
    one chunk.  A fault is reported only once every line has passed
    numpy's parser, so a malformed line anywhere in the file is the one
    named, and among the other faults the first kind in the list above.
    """
    chunks, line_of = read_table(path, _RETURNS_DTYPE)
    runs = TextRuns()
    groups: dict[str, int] = {}  # ticker -> its series, in order of first rows
    run_group: list[int] = []  # the series of each of runs' runs
    counts: list[int] = []  # rows of each series so far
    returns: list[np.ndarray] = []
    nonfinite = misplaced = None  # the first row of each fault, and its message
    n = 0
    for rows in chunks:
        if chunk := runs.add(rows["ticker"]):  # None after a ticker that is not UTF-8
            starts, texts = chunk
            local = [groups.setdefault(text.lstrip(), len(groups)) for text in texts]  # leading blanks are no part of a ticker
            run_group += local[len(local) - (len(runs.starts) - len(run_group)) :]  # the runs this chunk began
            counts += [0] * (len(groups) - len(counts))
            lengths = np.diff(np.append(starts, rows.size))
            base = []  # the day_index due at each run's first row
            for g, length in zip(local, lengths.tolist()):
                base.append(counts[g])
                counts[g] += length
            due = np.arange(rows.size) + np.repeat(np.array(base) - starts, lengths)

            def ticker(k: int) -> str:
                return texts[int(np.searchsorted(starts, k, side="right")) - 1].lstrip()

            r, day = rows["return"], rows["day_index"]
            bad = np.flatnonzero(~np.isfinite(r))
            if bad.size and nonfinite is None:
                k = int(bad[0])
                nonfinite = n + k, f"non-finite return {float(r[k])!r} for {ticker(k)!r}"
            bad = np.flatnonzero(day != due)
            if bad.size and misplaced is None:
                k = int(bad[0])
                misplaced = n + k, f"day_index {int(day[k])} out of order for {ticker(k)!r} (expected {int(due[k])})"
            returns.append(r.copy())
        n += rows.size
    if n == 0:
        raise ValueError(f"{path}: no return rows")
    runs.raise_fault(path, "ticker", line_of)
    for fault in (nonfinite, misplaced):
        if fault:
            raise ValueError(f"{path}: line {line_of(fault[0])}: {fault[1]}")

    values = np.concatenate(returns)
    del returns
    if len(groups) < len(run_group):  # some ticker's rows are not adjacent: put each series' rows together
        row_group = np.repeat(run_group, np.diff(np.append(runs.starts, n)))
        values = values[np.argsort(row_group, kind="stable")]
    try:
        return Ensemble(list(groups), values, np.concatenate(([0], np.cumsum(counts))))
    except ValueError as exc:  # a standard deviation that overflows
        raise ValueError(f"{path}: {exc}") from None


def write_stats_json(stats: MarketStats, path: str | Path) -> None:
    write_json(asdict(stats), path)
