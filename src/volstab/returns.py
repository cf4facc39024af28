"""Price ingestion, daily simple returns, and per-series volatility stats.

Empirical and simulated series flow through the same types here, so the
market-average volatility that anchors threshold windows is computed the
same way for both.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._io import fmt, write_json

__all__ = [
    "PriceSeries",
    "ReturnSeries",
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
        if self.returns.ndim != 1 or self.returns.size < 1:
            raise ValueError(f"{self.ticker}: returns must be a nonempty 1-d array")
        if not np.all(np.isfinite(self.returns)):
            raise ValueError(f"{self.ticker}: returns contain non-finite values")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(f"{self.ticker}: sigma must be finite and >= 0")

    @classmethod
    def from_returns(cls, ticker: str, returns: np.ndarray) -> "ReturnSeries":
        r = np.asarray(returns, dtype=float)
        return cls(ticker=ticker, returns=r, sigma=float(np.std(r)))


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


def market_stats(series: list[ReturnSeries]) -> MarketStats:
    """Arithmetic mean of per-series sigmas; exact (order-independent) summation."""
    if not series:
        raise ValueError("no return series given")
    per = {}
    for rs in series:
        if rs.ticker in per:
            raise ValueError(f"duplicate ticker {rs.ticker!r}")
        per[rs.ticker] = rs.sigma
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


def write_returns_csv(series: list[ReturnSeries], path: str | Path) -> None:
    """Write ``ticker,day_index,return`` rows; floats round-trip exactly."""
    with open(path, "w", newline="") as fh:
        fh.write("ticker,day_index,return\n")
        for rs in series:
            ticker = rs.ticker
            fh.writelines(
                f"{ticker},{i},{fmt(r)}\n" for i, r in enumerate(rs.returns.tolist())
            )


def read_returns_csv(path: str | Path) -> list[ReturnSeries]:
    order: list[str] = []
    buckets: dict[str, list[float]] = {}
    with open(path, newline="") as fh:
        header = fh.readline().strip()
        if header != "ticker,day_index,return":
            raise ValueError(f"{path}: expected header 'ticker,day_index,return', got {header!r}")
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ValueError(f"{path}: line {line_no}: expected 3 columns")
            ticker, idx, value = parts
            if ticker not in buckets:
                order.append(ticker)
                buckets[ticker] = []
            if int(idx) != len(buckets[ticker]):
                raise ValueError(f"{path}: line {line_no}: day_index out of order for {ticker!r}")
            buckets[ticker].append(float(value))
    if not order:
        raise ValueError(f"{path}: no return rows")
    return [ReturnSeries.from_returns(t, np.array(buckets[t])) for t in order]


def write_stats_json(stats: MarketStats, path: str | Path) -> None:
    payload = {
        "n_series": stats.n_series,
        "sigma_bar": stats.sigma_bar,
        "per_series_sigma": stats.per_series_sigma,
    }
    write_json(payload, path)
