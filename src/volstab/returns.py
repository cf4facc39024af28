"""Price ingestion, daily simple returns, and per-series volatility stats.

Empirical and simulated series flow through the same types here, so the
market-average volatility that anchors threshold windows is computed the
same way for both.  Many series travel together as one ``Ensemble``: a
flat array of returns cut into series by offsets.
"""

from __future__ import annotations

import csv
import itertools
import logging
import math
import re
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from ._io import write_json, write_rows

__all__ = [
    "PriceSeries",
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
class PriceSeries:
    """Daily closing prices for one ticker; strictly positive, dates ascending."""

    ticker: str
    dates: tuple[str, ...]
    prices: np.ndarray

    def __post_init__(self) -> None:
        if len(self.dates) != self.prices.size or self.prices.size < 2:
            raise ValueError(f"{self.ticker}: need >= 2 aligned dates and prices")
        if not np.all(np.isfinite(self.prices)) or np.any(self.prices <= 0):
            raise ValueError(f"{self.ticker}: prices must be finite and positive")
        if any(a >= b for a, b in zip(self.dates, self.dates[1:])):
            raise ValueError(f"{self.ticker}: dates must be strictly increasing")


@dataclass(frozen=True, eq=False)
class ReturnSeries:
    """Daily simple returns for one ticker with their standard deviation.

    ``sigma`` is the population standard deviation (divide by the number of
    returns) of the full series.
    """

    ticker: str
    returns: np.ndarray
    sigma: float

    def __post_init__(self) -> None:
        _check_returns(self.ticker, self.returns)
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(f"{self.ticker}: sigma must be finite and >= 0")

    @classmethod
    def from_returns(cls, ticker: str, returns: np.ndarray) -> "ReturnSeries":
        r = np.asarray(returns, dtype=float)
        _check_returns(ticker, r)  # before np.std, which warns on non-finite input
        return cls(ticker=ticker, returns=r, sigma=float(np.std(r)))


def _check_returns(ticker: str, r: np.ndarray) -> None:
    if r.ndim != 1 or r.size < 1:
        raise ValueError(f"{ticker}: returns must be a nonempty 1-d array")
    if not np.all(np.isfinite(r)):
        raise ValueError(f"{ticker}: returns contain non-finite values")


@dataclass(eq=False)
class Ensemble:
    """Return series stored end to end: series ``i`` is ``values[offsets[i]:offsets[i + 1]]``.

    ``sigmas`` holds each series' population standard deviation, computed
    from ``values`` when not given.  ``len`` counts the series, and
    iterating or indexing yields one ``ReturnSeries`` (a view) per series.
    The arrays are not to be changed once built: ``prefix_sums`` are kept.
    """

    tickers: list[str]
    values: np.ndarray
    offsets: np.ndarray
    sigmas: np.ndarray | None = None
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
        if self.sigmas is None:
            self.sigmas = np.array([np.std(self.values[a:b]) for a, b in self._bounds()])
        self.sigmas = np.asarray(self.sigmas, dtype=float)
        if self.sigmas.shape != (n,) or not np.all(np.isfinite(self.sigmas) & (self.sigmas >= 0)):
            raise ValueError("sigmas must be finite and >= 0, one per series")

    @classmethod
    def from_series(cls, series: Iterable[ReturnSeries]) -> "Ensemble":
        series = list(series)
        lengths = [rs.returns.size for rs in series]
        return cls(
            tickers=[rs.ticker for rs in series],
            values=np.concatenate([rs.returns for rs in series]) if series else np.empty(0),
            offsets=np.concatenate(([0], np.cumsum(lengths, dtype=np.int64))),
            sigmas=np.array([rs.sigma for rs in series]),
        )

    def __len__(self) -> int:
        return len(self.tickers)

    def __getitem__(self, i: int) -> ReturnSeries:
        i = range(len(self))[i]
        a, b = self.offsets[i], self.offsets[i + 1]
        return ReturnSeries(self.tickers[i], self.values[a:b], float(self.sigmas[i]))

    def __iter__(self) -> Iterator[ReturnSeries]:
        return (self[i] for i in range(len(self)))

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    def _bounds(self) -> Iterator[tuple[int, int]]:
        return zip(self.offsets[:-1].tolist(), self.offsets[1:].tolist())

    def prefix_sums(self) -> tuple[np.ndarray, np.ndarray]:
        """Running sums of each series' returns and squared returns, built once.

        Each series' sums are led by a 0.0, so the sums of series ``i``
        start at ``offsets[i] + i``: the sum of ``values[a:b]`` within
        series ``i`` is ``s1[b + i] - s1[a + i]``.
        """
        if self._sums is None:
            s1 = np.zeros(self.values.size + len(self))
            s2 = np.zeros_like(s1)
            for i, (a, b) in enumerate(self._bounds()):
                y = self.values[a:b]
                np.cumsum(y, out=s1[a + i + 1 : b + i + 1])
                np.cumsum(y * y, out=s2[a + i + 1 : b + i + 1])
            self._sums = (s1, s2)
        return self._sums


@dataclass(frozen=True)
class MarketStats:
    """Number of series, market-average volatility, and the per-series values."""

    n_series: int
    sigma_bar: float
    per_series_sigma: dict[str, float]


def to_returns(p: PriceSeries) -> ReturnSeries:
    """r(t) = (p(t) - p(t-1)) / p(t-1) for consecutive valid prices."""
    if p.prices.size < 2:
        raise ValueError(f"{p.ticker}: need at least two prices")
    r = np.diff(p.prices) / p.prices[:-1]
    return ReturnSeries.from_returns(p.ticker, r)


def market_stats(ensemble: Ensemble) -> MarketStats:
    """Arithmetic mean of per-series sigmas; exact (order-independent) summation."""
    per = dict(zip(ensemble.tickers, ensemble.sigmas.tolist()))
    sigma_bar = math.fsum(per.values()) / len(per)
    return MarketStats(n_series=len(per), sigma_bar=sigma_bar, per_series_sigma=per)


def _parse_price(raw: str, path: str, line_no: int, column: str) -> float | None:
    """None for a missing value; raises for garbage that is not a number."""
    text = raw.strip()
    if not text:
        return None
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{path}: line {line_no}, column {column!r}: not a number: {raw!r}") from None
    if not math.isfinite(value):
        return None
    return value


def _series_from_pairs(ticker: str, pairs: list[tuple[str, float]], dropped: int) -> PriceSeries | None:
    if dropped:
        logger.warning("%s: dropped %d rows with missing or non-positive prices", ticker, dropped)
    if len(pairs) < 2:
        logger.warning("%s: skipped, fewer than 2 valid prices", ticker)
        return None
    dates = tuple(d for d, _ in pairs)
    prices = np.array([p for _, p in pairs], dtype=float)
    return PriceSeries(ticker=ticker, dates=dates, prices=prices)


def _load_per_stock_file(path: Path) -> PriceSeries | None:
    ticker = path.stem
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty file")
    header = [h.strip().lower() for h in rows[0]]
    if header[:2] != ["date", "close"]:
        raise ValueError(f"{path}: expected header 'date,close', got {rows[0]!r}")
    pairs: list[tuple[str, float]] = []
    dropped = 0
    for line_no, row in enumerate(rows[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) < 2:
            raise ValueError(f"{path}: line {line_no}: expected 2 columns, got {len(row)}")
        value = _parse_price(row[1], str(path), line_no, "close")
        if value is None or value <= 0:
            dropped += 1
            continue
        pairs.append((row[0].strip(), value))
    return _series_from_pairs(ticker, pairs, dropped)


def _load_wide_file(path: Path) -> list[PriceSeries]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    if not header or header[0].lower() != "date" or len(header) < 2:
        raise ValueError(f"{path}: expected header 'date,<ticker>,...', got {rows[0]!r}")
    tickers = header[1:]
    if len(set(tickers)) != len(tickers):
        raise ValueError(f"{path}: duplicate ticker columns")
    pairs: dict[str, list[tuple[str, float]]] = {t: [] for t in tickers}
    dropped = dict.fromkeys(tickers, 0)
    for line_no, row in enumerate(rows[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        date = row[0].strip()
        for col, ticker in enumerate(tickers, start=1):
            raw = row[col] if col < len(row) else ""
            value = _parse_price(raw, str(path), line_no, ticker)
            if value is None or value <= 0:
                dropped[ticker] += 1
                continue
            pairs[ticker].append((date, value))
    out = []
    for ticker in tickers:
        series = _series_from_pairs(ticker, pairs[ticker], dropped[ticker])
        if series is not None:
            out.append(series)
    return out


def load_prices(path: str | Path, layout: str = "per-stock") -> list[PriceSeries]:
    """Load closing prices from CSV.

    ``per-stock`` expects files with header ``date,close`` (a directory is
    scanned for ``*.csv``, ticker = file stem); ``wide`` expects one file
    with header ``date,<ticker1>,<ticker2>,...``.  Rows with missing or
    non-positive prices are dropped with a per-ticker warning; a series
    left with fewer than two valid prices is skipped.
    """
    path = Path(path)
    if not path.exists():
        raise ValueError(f"{path}: no such file or directory")
    if layout == "per-stock":
        files = sorted(path.glob("*.csv")) if path.is_dir() else [path]
        if not files:
            raise ValueError(f"{path}: no CSV files found")
        out = []
        for f in files:
            series = _load_per_stock_file(f)
            if series is not None:
                out.append(series)
        return out
    if layout == "wide":
        if path.is_dir():
            raise ValueError(f"{path}: wide layout expects a single CSV file")
        return _load_wide_file(path)
    raise ValueError(f"unknown layout {layout!r} (expected 'per-stock' or 'wide')")


_RETURNS_HEADER = "ticker,day_index,return"


def write_returns_csv(ensemble: Ensemble, path: str | Path) -> None:
    """Write ``ticker,day_index,return`` rows, one series at a time; floats round-trip exactly."""
    heads: list[str] = []  # ",i," for every day_index written so far
    with open(path, "w", newline="") as fh:
        fh.write(_RETURNS_HEADER + "\n")
        for ticker, (a, b) in zip(ensemble.tickers, ensemble._bounds()):
            heads.extend(f",{i}," for i in range(len(heads), b - a))
            write_rows(fh, ticker, heads[: b - a], ensemble.values[a:b])


_TICKER_BYTES = 16  # first guess at the ticker field width, widened when a ticker fills it


def _row_dtype(width: int) -> np.dtype:
    return np.dtype([("ticker", f"S{width}"), ("day", np.int64), ("value", np.float64)])


def _loadtxt(lines: Iterable[str], dtype) -> np.ndarray:
    with warnings.catch_warnings():
        # A header-only file is reported by the caller, not by numpy.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        # numpy releases that read "1.5" as the integer 1 only warn, and
        # Python hides that warning; as an error it makes numpy refuse the row.
        warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)
        return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)


# Rows of the form write_returns_csv writes; numpy's parser accepts every one
# (18 digits always fit an int64).
_PLAIN_ROW = re.compile(r"[^,]*,[0-9]{1,18},-?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?\n?")


def _numpy_accepts(line: str, dtype: np.dtype) -> bool:
    try:
        _loadtxt([line], dtype)
    except ValueError:
        return False
    return True


def _raise_malformed(path, lines: Iterable[str], dtype: np.dtype) -> None:
    """Raise naming the first nonblank line that numpy's parser rejects.

    Lines of the plain form pass at once; any other line, and then each of
    its fields, is put to numpy alone, so the verdict is numpy's own.
    """
    for line_no, line in enumerate(lines, start=2):
        if not line.strip() or _PLAIN_ROW.fullmatch(line) or _numpy_accepts(line, dtype):
            continue
        parts = line.rstrip("\n").split(",")
        if len(parts) != 3:
            raise ValueError(f"{path}: line {line_no}: expected 3 columns, got {len(parts)}")
        for name, text, row in (
            ("day_index", parts[1], f"t,{parts[1]},0"),
            ("return", parts[2], f"t,0,{parts[2]}"),
        ):
            if not _numpy_accepts(row, dtype):
                raise ValueError(f"{path}: line {line_no}: {name} is not a number: {text!r}")


def _data_line(fh, body: int, row: int) -> int:
    """File line number of data row ``row`` (0-based, blank lines not counted)."""
    fh.seek(body)
    numbers = (n for n, line in enumerate(fh, start=2) if line.strip())
    return next(itertools.islice(numbers, row, None))


def _parse_rows(path, fh, body: int) -> np.ndarray:
    """Every nonblank data row as (ticker bytes, day, value), by numpy's C parser.

    The ticker field is widened until no ticker fills it, so no ticker is
    ever cut short.
    """
    width = _TICKER_BYTES
    while True:
        fh.seek(body)
        try:
            rows = _loadtxt(filter(str.strip, fh), _row_dtype(width))
        except ValueError as exc:
            fh.seek(body)
            _raise_malformed(path, fh, _row_dtype(width))
            raise ValueError(f"{path}: {exc}") from None  # a row numpy refuses whole
        if rows.size == 0 or not rows.view(np.uint8).reshape(rows.size, -1)[:, width - 1].any():
            return rows  # no ticker reaches the field's last byte
        width *= 4


def read_returns_csv(path: str | Path) -> Ensemble:
    """Read ``ticker,day_index,return`` rows into an Ensemble.

    A ticker's rows need not be adjacent: tickers keep the order of their
    first rows, and each ticker's day_index must count 0, 1, 2, ... in file
    order.  Blank lines are skipped.  A malformed row, a non-finite return
    or a day_index out of order raises ValueError naming the file line.
    """
    # latin-1 maps every byte to one character, so ticker bytes pass the
    # parser unchanged; they are decoded as UTF-8 once per run of rows.
    with open(path, encoding="latin-1") as fh:
        header = fh.readline().strip()
        if header != _RETURNS_HEADER:
            raise ValueError(f"{path}: expected header {_RETURNS_HEADER!r}, got {header!r}")
        body = fh.tell()
        rows = _parse_rows(path, fh, body)
        if rows.size == 0:
            raise ValueError(f"{path}: no return rows")

        def fail(row: int, what: str) -> ValueError:
            return ValueError(f"{path}: line {_data_line(fh, body, row)}: {what}")

        raw = rows["ticker"]
        run_starts = np.concatenate(([0], np.flatnonzero(raw[1:] != raw[:-1]) + 1))
        run_names = []
        for row, name in zip(run_starts.tolist(), raw[run_starts].tolist()):
            try:  # a line's leading blanks are no part of its ticker
                run_names.append(name.decode("utf-8").lstrip())
            except UnicodeDecodeError:
                raise fail(row, f"ticker {name!r} is not UTF-8") from None
        groups: dict[str, int] = {}
        run_group = np.array([groups.setdefault(t, len(groups)) for t in run_names])
        tickers = list(groups)

        bad = np.flatnonzero(~np.isfinite(rows["value"]))
        if bad.size:
            row = int(bad[0])
            ticker = run_names[int(np.searchsorted(run_starts, row, side="right")) - 1]
            raise fail(row, f"non-finite return {float(rows['value'][row])!r} for {ticker!r}")

        run_ends = np.append(run_starts[1:], rows.size)
        if len(tickers) == run_starts.size:  # each ticker's rows are adjacent
            order = None
            counts = run_ends - run_starts
            day = rows["day"]
        else:
            row_group = np.repeat(run_group, run_ends - run_starts)
            order = np.argsort(row_group, kind="stable")
            counts = np.bincount(row_group)
            day = rows["day"][order]
        offsets = np.concatenate(([0], np.cumsum(counts)))

        # day_index is 0 on a ticker's first row and rises by one after it.
        # The buffer that will hold the values holds the steps first, so
        # the check allocates no array of the file's length.
        values = np.empty(rows.size)
        step = values.view(np.int64)
        np.subtract(day[1:], day[:-1], out=step[1:])
        in_step = step == 1
        in_step[offsets[:-1]] = day[offsets[:-1]] == 0
        bad = np.flatnonzero(~in_step)
        if bad.size:
            rows_in_file = bad if order is None else order[bad]
            k = int(bad[np.argmin(rows_in_file)])
            series = int(np.searchsorted(offsets, k, side="right")) - 1
            raise fail(
                int(rows_in_file.min()),
                f"day_index {int(day[k])} out of order for {tickers[series]!r} "
                f"(expected {k - int(offsets[series])})",
            )
        if order is None:
            values[:] = rows["value"]
        else:
            np.take(rows["value"], order, out=values)
    return Ensemble(tickers, values, offsets)


def write_stats_json(stats: MarketStats, path: str | Path) -> None:
    payload = {
        "n_series": stats.n_series,
        "sigma_bar": stats.sigma_bar,
        "per_series_sigma": stats.per_series_sigma,
    }
    write_json(payload, path)
