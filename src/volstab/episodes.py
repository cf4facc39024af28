"""First-hitting episode extraction from daily return series.

An episode opens when the return reaches the start threshold and closes the
first time it attains the final threshold; the hitting time is counted in
days and the episode's volatility is the standard deviation of the
subseries it spans.  Crash windows look for a drop to a more negative
level, rally windows mirror every inequality.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._io import cell_error, fmt, write_rows
from .returns import Ensemble

__all__ = [
    "ThresholdWindow",
    "EpisodeTable",
    "extract_table",
    "window_family",
    "WINDOW_FAMILIES",
    "ENTRY_RULES",
    "VOL_SCOPES",
    "DEFAULT_ENTRY_RULE",
    "DEFAULT_VOL_SCOPE",
    "write_episodes_csv",
    "read_episodes_csv",
]

ENTRY_RULES = ("crossing", "level")
# Which returns feed the episode volatility:
#   window    entry day .. hit day
#   no-entry  entry day excluded
#   no-hit    hit day excluded
#   interior  both excluded (volatility is NaN when fht == 1)
#   stretch   day after the previous hit .. hit day
VOL_SCOPES = ("window", "no-entry", "no-hit", "interior", "stretch")
DEFAULT_ENTRY_RULE = "crossing"
DEFAULT_VOL_SCOPE = "window"

WINDOW_FAMILIES = ("fig1a", "fig1b", "fig1c", "fig2a", "fig2b", "fig2c")

# An episode variance below this multiple of the prefix sums' magnitude is
# within their rounding noise and is recomputed from the returns themselves.
_NOISE_REL = 64 * np.finfo(float).eps


@dataclass(frozen=True)
class ThresholdWindow:
    """Start/final thresholds as multiples (theta_i, theta_f) of sigma_bar."""

    theta_i: float
    theta_f: float
    sigma_bar: float
    direction: str

    def __post_init__(self) -> None:
        if self.direction not in ("crash", "rally"):
            raise ValueError(f"direction must be 'crash' or 'rally', got {self.direction!r}")
        if not (math.isfinite(self.sigma_bar) and self.sigma_bar > 0):
            raise ValueError(f"sigma_bar must be finite and positive, got {self.sigma_bar}")
        if self.direction == "crash" and not self.theta_f < self.theta_i:
            raise ValueError(f"crash window needs theta_f < theta_i, got {self.theta_i}, {self.theta_f}")
        if self.direction == "rally" and not self.theta_f > self.theta_i:
            raise ValueError(f"rally window needs theta_f > theta_i, got {self.theta_i}, {self.theta_f}")

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

    if vol_scope == "window":
        beg, end = starts, hits
    elif vol_scope == "no-entry":
        beg, end = starts + 1, hits
    elif vol_scope == "no-hit":
        beg, end = starts, hits - 1
    elif vol_scope == "interior":
        beg, end = starts + 1, hits - 1
    else:  # stretch
        beg, end = spans, hits

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


def _theta_range(start_tenths: int, stop_tenths: int, step_tenths: int) -> list[float]:
    return [k / 10.0 for k in range(start_tenths, stop_tenths + step_tenths, step_tenths)]


def window_family(name: str, sigma_bar: float) -> list[ThresholdWindow]:
    """Built-in window families.

    fig1a / fig2a: single crash / rally window (-0.1, -1.5) / (+0.1, +1.5).
    fig1b / fig2b: fixed width theta_f - theta_i = -/+1.4, start sliding
    from +/-0.9 to -/+1.6 in steps of 0.1.
    fig1c / fig2c: fixed theta_i = -/+0.1, theta_f from -/+0.5 to -/+3.0.
    """
    if name == "fig1a":
        return [ThresholdWindow(-0.1, -1.5, sigma_bar, "crash")]
    if name == "fig2a":
        return [ThresholdWindow(+0.1, +1.5, sigma_bar, "rally")]
    if name == "fig1b":
        return [
            ThresholdWindow(ti, round(ti - 1.4, 10), sigma_bar, "crash")
            for ti in _theta_range(9, -16, -1)
        ]
    if name == "fig2b":
        return [
            ThresholdWindow(ti, round(ti + 1.4, 10), sigma_bar, "rally")
            for ti in _theta_range(-9, 16, 1)
        ]
    if name == "fig1c":
        return [ThresholdWindow(-0.1, tf, sigma_bar, "crash") for tf in _theta_range(-5, -30, -1)]
    if name == "fig2c":
        return [ThresholdWindow(+0.1, tf, sigma_bar, "rally") for tf in _theta_range(5, 30, 1)]
    raise ValueError(f"unknown window family {name!r} (expected one of {WINDOW_FAMILIES})")


_EPISODE_COLUMNS = ["ticker", "window_id", "theta_i", "theta_f", "start_index", "fht", "volatility"]


def write_episodes_csv(tables: list[EpisodeTable], path: str | Path) -> None:
    """Write ``ticker,window_id,theta_i,theta_f,start_index,fht,volatility`` rows, one table at a time."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_EPISODE_COLUMNS) + "\n")
        for table in tables:
            w = table.window
            head = f",{w.window_id},{fmt(w.theta_i)},{fmt(w.theta_f)},"
            write_rows(fh, table.tickers, head, table.start_index, ",", table.fht, ",", table.volatility)


def read_episodes_csv(path: str | Path, sigma_bar: float = 1.0) -> list[EpisodeTable]:
    """Read episodes grouped by window id, in file order.

    The CSV stores theta multipliers, not sigma_bar, so windows are rebuilt
    against the given ``sigma_bar`` (the default leaves absolute thresholds
    equal to the multipliers; curve building does not depend on it).  A row
    with the wrong number of fields or a cell that does not parse, thetas
    that differ from those of its window's first row, a negative
    ``start_index`` or an ``fht`` below 1 raises ValueError naming the line.
    """
    groups: dict[str, dict] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _EPISODE_COLUMNS:
            raise ValueError(f"{path}: unexpected episode CSV header {header!r}")
        for row in reader:
            if not row:
                continue
            if len(row) != 7:
                raise ValueError(f"{path}: line {reader.line_num}: expected 7 fields, got {len(row)}")
            ticker, window_id, ti, tf, start, fht, vol = row
            try:
                s, f, v = int(start), int(fht), float(vol)
                g = groups.get(window_id)
                if g is None:
                    g = groups[window_id] = {
                        "line": reader.line_num, "text": (ti, tf), "thetas": (float(ti), float(tf)),
                        "tickers": [], "start": [], "fht": [], "vol": [],
                    }
                # thetas are parsed again only when their text differs from the first row's
                moved = (ti, tf) != g["text"] and (float(ti), float(tf)) != g["thetas"]
            except ValueError:
                raise cell_error(
                    f"{path}: line {reader.line_num}",
                    [("theta_i", ti, float), ("theta_f", tf, float), ("start_index", start, int),
                     ("fht", fht, int), ("volatility", vol, float)],
                ) from None
            if moved:
                raise ValueError(
                    f"{path}: line {reader.line_num}: thetas {ti}, {tf} of window {window_id!r} "
                    f"differ from {g['text'][0]}, {g['text'][1]} on line {g['line']}"
                )
            if s < 0 or f < 1:
                what = f"start_index {s} is negative" if s < 0 else f"fht {f} is below 1"
                raise ValueError(f"{path}: line {reader.line_num}: {what}")
            g["tickers"].append(ticker)
            g["start"].append(s)
            g["fht"].append(f)
            g["vol"].append(v)
    out = []
    for window_id, g in groups.items():
        theta_i, theta_f = g["thetas"]
        direction = "crash" if theta_f < theta_i else "rally"
        try:
            window = ThresholdWindow(theta_i, theta_f, sigma_bar, direction)
        except ValueError as exc:
            raise ValueError(f"{path}: line {g['line']}: window {window_id!r}: {exc}") from None
        out.append(
            EpisodeTable(
                window=window,
                tickers=g["tickers"],
                start_index=np.array(g["start"], dtype=np.int64),
                fht=np.array(g["fht"], dtype=np.int64),
                volatility=np.array(g["vol"]),
            )
        )
    return out
