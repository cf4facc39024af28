"""First-hitting episode extraction from daily return series.

An episode opens when the return reaches the start threshold and closes the
first time it attains the final threshold; the hitting time is counted in
days and the episode's volatility is the standard deviation of the
subseries it spans.  Crash windows look for a drop to a more negative
level, rally windows mirror every inequality.
"""

from __future__ import annotations

import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, TextIO

import numpy as np

from ._io import TextRuns, distinct_texts, fmt, read_table, write_rows
from .returns import Ensemble

__all__ = [
    "ThresholdWindow",
    "EpisodeTable",
    "extract_table",
    "window_family",
]

ENTRY_RULES = ("crossing", "level")
# Which returns feed the episode volatility: the days from the entry day
# plus the first shift to the hit day plus the second, or, for "stretch"
# (None), from the day after the previous hit.  "interior" leaves no day
# when fht == 1, and its volatility is NaN.
_VOL_SHIFTS = {"window": (0, 0), "no-entry": (1, 0), "no-hit": (0, -1), "interior": (1, -1), "stretch": (None, 0)}
VOL_SCOPES = tuple(_VOL_SHIFTS)
DEFAULT_ENTRY_RULE = "crossing"
DEFAULT_VOL_SCOPE = "window"

# (theta_i, theta_f) of each built-in window family, as multiples of sigma_bar;
# the keys, in order, are the --window choices.
_FAMILIES = {
    "fig1a": [(-0.1, -1.5)],
    "fig1b": [(k / 10.0, round(k / 10.0 - 1.4, 10)) for k in range(9, -17, -1)],
    "fig1c": [(-0.1, k / 10.0) for k in range(-5, -31, -1)],
    "fig2a": [(+0.1, +1.5)],
    "fig2b": [(k / 10.0, round(k / 10.0 + 1.4, 10)) for k in range(-9, 17)],
    "fig2c": [(+0.1, k / 10.0) for k in range(5, 31)],
}
WINDOW_FAMILIES = tuple(_FAMILIES)

# An episode variance below this multiple of the prefix sums' magnitude is
# within their rounding noise and is recomputed from the returns themselves.
_NOISE_REL = 64 * np.finfo(float).eps


@dataclass(frozen=True)
class ThresholdWindow:
    """Start/final thresholds as multiples (theta_i, theta_f) of sigma_bar.

    The thetas fix the direction: a crash window when theta_f lies below
    theta_i, a rally window when it lies above.
    """

    theta_i: float
    theta_f: float
    sigma_bar: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma_bar) and self.sigma_bar > 0):
            raise ValueError(f"sigma_bar must be finite and positive, got {self.sigma_bar}")
        if not (self.theta_f < self.theta_i or self.theta_f > self.theta_i):  # equal, or NaN
            raise ValueError(f"theta_f must differ from theta_i, got {self.theta_i}, {self.theta_f}")
        for name in ("theta_i", "theta_f"):  # an infinite theta, or a finite one that overflows
            theta = getattr(self, name)
            if not math.isfinite(theta * self.sigma_bar):
                raise ValueError(f"threshold {name} * sigma_bar must be finite, got {theta} * {self.sigma_bar}")

    @property
    def direction(self) -> str:
        return "crash" if self.theta_f < self.theta_i else "rally"

    @property
    def theta_i_abs(self) -> float:
        return self.theta_i * self.sigma_bar

    @property
    def theta_f_abs(self) -> float:
        return self.theta_f * self.sigma_bar

    @property
    def window_id(self) -> str:
        return f"{self.direction}_ti{self.theta_i:+.2f}_tf{self.theta_f:+.2f}"


@dataclass(eq=False)
class EpisodeTable:
    """Column-oriented episodes for one window, cheap at ensemble scale."""

    window: ThresholdWindow
    tickers: list[str]
    start_index: np.ndarray
    fht: np.ndarray
    volatility: np.ndarray

    def __len__(self) -> int:
        return self.fht.size


def extract_table(
    ensemble: Ensemble,
    window: ThresholdWindow,
    entry_rule: str = DEFAULT_ENTRY_RULE,
    vol_scope: str = DEFAULT_VOL_SCOPE,
) -> EpisodeTable:
    """Episodes of every series of ``ensemble`` for one window, in column form.

    Each series is scanned left to right and its episodes never overlap:
    each hit closes at most one episode whose start is the first qualifying
    entry after the previous hit.  Under the ``crossing`` rule an entry
    requires the return to arrive at the start threshold from the
    non-entered side (a series' first day qualifies by level); under
    ``level`` any day at or beyond the start threshold qualifies.  A day
    that jumps from outside the window straight to the final threshold
    opens no episode, and an episode still open at the end of its series is
    discarded.

    All series are scanned at once on the flat ``ensemble.values``: a span
    between hits never reaches back past its series' first day, so no
    episode crosses from one series into the next.  Rows come out by
    series, then by start.
    """
    if entry_rule not in ENTRY_RULES:
        raise ValueError(f"unknown entry rule {entry_rule!r}")
    if vol_scope not in VOL_SCOPES:
        raise ValueError(f"unknown vol scope {vol_scope!r}")
    y = ensemble.values
    ti, tf = window.theta_i_abs, window.theta_f_abs
    if window.direction == "crash":
        hit_idx = np.flatnonzero(y <= tf)
        entry = y <= ti
        from_outside = y[:-1] > ti
    else:  # the crash scan mirrored, inequality for inequality
        hit_idx = np.flatnonzero(y >= tf)
        entry = y >= ti
        from_outside = y[:-1] < ti
    first_day = ensemble.offsets[:-1]
    if entry_rule == "crossing":
        by_level = entry[first_day]
        entry[1:] &= from_outside
        entry[first_day] = by_level
    entry_idx = np.flatnonzero(entry)

    # First qualifying entry in each inter-hit span; e == hit is the
    # jump-through case and opens no episode.
    series = np.searchsorted(ensemble.offsets, hit_idx, side="right") - 1
    span_start = np.empty_like(hit_idx)
    span_start[:1] = 0
    span_start[1:] = hit_idx[:-1] + 1
    np.maximum(span_start, first_day[series], out=span_start)
    cand = np.searchsorted(entry_idx, span_start, side="left")
    have = cand < entry_idx.size
    starts = entry_idx[cand[have]]
    hits = hit_idx[have]
    keep = starts < hits
    starts, hits = starts[keep], hits[keep]
    spans = span_start[have][keep]
    series = series[have][keep]

    first, last = _VOL_SHIFTS[vol_scope]
    beg = spans if first is None else starts + first
    end = hits + last

    # Negating a series negates its sums exactly, so a rally window reads
    # the same sums as the crash scan of the mirrored series, bit for bit.
    s1, s2 = ensemble.prefix_sums()
    lo, hi = beg + series, end + series + 1
    length = (end - beg + 1).astype(float)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = (s1[hi] - s1[lo]) / length
        var = (s2[hi] - s2[lo]) / length - mean * mean
        vol = np.sqrt(np.maximum(var, 0.0))
        # The sums' rounding scales with their magnitude at the segment ends.
        noise = _NOISE_REL * (s2[hi] + np.abs(mean) * (np.abs(s1[lo]) + np.abs(s1[hi])))
        for k in np.flatnonzero((var < noise) & (length > 1)).tolist():
            vol[k] = np.std(y[beg[k] : end[k] + 1])
    vol[length == 1] = 0.0  # prefix-sum cancellation noise on single points
    vol[length < 1] = np.nan
    names = ensemble.tickers
    return EpisodeTable(
        window=window,
        tickers=[names[i] for i in series.tolist()],
        start_index=(starts - first_day[series]).astype(np.int64),
        fht=(hits - starts).astype(np.int64),
        volatility=vol,
    )


def window_family(name: str, sigma_bar: float) -> list[ThresholdWindow]:
    """The windows of a built-in family, from its ``(theta_i, theta_f)`` pairs in ``_FAMILIES``.

    fig1a / fig2a: single crash / rally window (-0.1, -1.5) / (+0.1, +1.5).
    fig1b / fig2b: fixed width theta_f - theta_i = -/+1.4, start sliding
    from +/-0.9 to -/+1.6 in steps of 0.1.
    fig1c / fig2c: fixed theta_i = -/+0.1, theta_f from -/+0.5 to -/+3.0.
    """
    if name not in _FAMILIES:
        raise ValueError(f"unknown window family {name!r} (expected one of {WINDOW_FAMILIES})")
    return [ThresholdWindow(ti, tf, sigma_bar) for ti, tf in _FAMILIES[name]]


_EPISODE_DTYPE = np.dtype([
    ("ticker", object), ("window_id", object), ("theta_i", np.float64), ("theta_f", np.float64),
    ("start_index", np.int64), ("fht", np.int64), ("volatility", np.float64),
])


def write_episode_rows(files: Sequence[TextIO], tables: Sequence[EpisodeTable]) -> None:
    """Write each table's ``episodes.csv`` rows, without the header, to the file of ``files`` at its place.

    The tables are one block's tables, one per window, so neighbouring
    windows share most volatilities: each column of the block is formatted
    with ``distinct_texts`` over all its tables at once.
    """
    columns = [distinct_texts([np.asarray(getattr(table, name), dtype=dtype) for table in tables])
               for name, dtype in (("start_index", np.int64), ("fht", np.int64), ("volatility", np.float64))]
    for fh, table, start, fht, vol in zip(files, tables, *columns):
        w = table.window
        head = f",{w.window_id},{fmt(w.theta_i)},{fmt(w.theta_f)},"
        write_rows(fh, table.tickers, head, start, ",", fht, ",", vol)


def write_episodes_csv(spools: Sequence[TextIO], path: str | Path) -> None:
    """Write ``ticker,window_id,theta_i,theta_f,start_index,fht,volatility``, then each spool's rows in turn.

    ``spools`` are text files, one per window in window order, that
    ``write_episode_rows`` filled block by block; their text is copied as
    it is, so the rows come by window, then by series, then by start.
    """
    with open(path, "wb") as fh:
        fh.write(",".join(_EPISODE_DTYPE.names).encode() + b"\n")
        for spool in spools:
            spool.seek(0)  # which writes out what the spool still buffers
            shutil.copyfileobj(spool.buffer, fh, 1 << 20)


def read_episodes_csv(path: str | Path) -> list[EpisodeTable]:
    """Read episodes grouped by window id, in order of first appearance.

    The CSV stores theta multipliers, not sigma_bar, so windows are rebuilt
    at ``sigma_bar`` 1.0: absolute thresholds equal the multipliers, and
    curve building does not depend on them.  A malformed row, thetas that
    differ from those of its window's first row, a window whose thetas
    rebuild the window id of an earlier one, a negative ``start_index``, an
    ``fht`` below 1 or a negative volatility raises ValueError naming the
    line.  Blank lines are skipped.

    The file is read a chunk of lines at a time (``read_table``), and each
    chunk is reduced to its columns and its text runs.  A fault is reported
    only once every line has passed numpy's parser.
    """
    chunks, line_of = read_table(path, _EPISODE_DTYPE)
    window_runs, ticker_runs = TextRuns(), TextRuns()
    groups: dict[str, int] = {}  # window id -> its window, in order of first rows
    first: list[int] = []  # each window's first row
    thetas: list[tuple[float, float]] = []  # and the thetas on it
    columns = []  # per chunk: each row's window, start_index, fht and volatility
    bad_row = None  # the first row with a bad cell, and its message
    n = 0
    for rows in chunks:
        ticker_runs.add(rows["ticker"])  # a ticker that is not UTF-8 is reported after the rest
        if chunk := window_runs.add(rows["window_id"]):  # None after a window id that is not UTF-8
            starts, ids = chunk
            local = [groups.setdefault(w, len(groups)) for w in ids]
            ti, tf = rows["theta_i"], rows["theta_f"]
            for row, g in zip(starts.tolist(), local):
                if g == len(first):  # a window first seen here
                    first.append(n + row)
                    thetas.append((float(ti[row]), float(tf[row])))
            lengths = np.diff(np.append(starts, rows.size))
            row_group = np.repeat(local, lengths)
            at_first = np.repeat(np.array([thetas[g] for g in local]), lengths, axis=0)
            moved = (ti != at_first[:, 0]) | (tf != at_first[:, 1])
            start, fht, vol = rows["start_index"], rows["fht"], rows["volatility"]
            bad = np.flatnonzero(moved | (start < 0) | (fht < 1) | (vol < 0))
            if bad.size and bad_row is None:
                k = int(bad[0])
                run = int(np.searchsorted(starts, k, side="right")) - 1
                if moved[k]:
                    g = local[run]
                    what = (f"thetas {fmt(ti[k])}, {fmt(tf[k])} of window {ids[run]!r} differ from "
                            f"{fmt(thetas[g][0])}, {fmt(thetas[g][1])} on line {line_of(first[g])}")
                elif start[k] < 0:
                    what = f"start_index {start[k]} is negative"
                elif fht[k] < 1:
                    what = f"fht {fht[k]} is below 1"
                else:
                    what = f"volatility {fmt(vol[k])} is negative"
                bad_row = n + k, what
            columns.append((row_group, start.copy(), fht.copy(), vol.copy()))
        n += rows.size
    if n == 0:
        return []
    window_runs.raise_fault(path, "window_id", line_of)
    windows, rebuilt = [], {}  # rebuilt window id -> (window id, first row) of the first window with it
    for window_id, row, (theta_i, theta_f) in zip(groups, first, thetas):
        try:
            windows.append(ThresholdWindow(theta_i, theta_f, 1.0))
        except ValueError as exc:
            raise ValueError(f"{path}: line {line_of(row)}: window {window_id!r}: {exc}") from None
        earlier, at = rebuilt.setdefault(windows[-1].window_id, (window_id, row))
        if at != row:
            raise ValueError(f"{path}: line {line_of(row)}: window {window_id!r} and window {earlier!r} on line "
                             f"{line_of(at)} both rebuild to window id {windows[-1].window_id!r}")
    if bad_row:
        raise ValueError(f"{path}: line {line_of(bad_row[0])}: {bad_row[1]}")
    ticker_runs.raise_fault(path, "ticker", line_of)

    row_group, start, fht, vol = (np.concatenate(column) for column in zip(*columns))
    tickers = np.repeat(np.array(ticker_runs.texts, dtype=object), np.diff(np.append(ticker_runs.starts, n)))
    if len(groups) < len(window_runs.starts):  # some window's rows are not adjacent
        order = np.argsort(row_group, kind="stable")
        tickers, start, fht, vol = (column[order] for column in (tickers, start, fht, vol))
    bounds = np.cumsum(np.bincount(row_group)).tolist()
    return [
        EpisodeTable(window, tickers[a:b].tolist(), start[a:b], fht[a:b], vol[a:b])
        for window, a, b in zip(windows, [0] + bounds, bounds)
    ]
