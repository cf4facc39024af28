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

from ._io import fmt
from .returns import ReturnSeries

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


_EMPTY = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0))


def scan_returns(
    r: np.ndarray,
    window: ThresholdWindow,
    entry_rule: str = DEFAULT_ENTRY_RULE,
    vol_scope: str = DEFAULT_VOL_SCOPE,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scan one return series; returns (start_index, fht, volatility) arrays.

    The scan is left to right and episodes never overlap: each hit closes
    at most one episode whose start is the first qualifying entry after the
    previous hit.  Under the ``crossing`` rule an entry requires the return
    to arrive at the start threshold from the non-entered side (day 0
    qualifies by level); under ``level`` any day at or beyond the start
    threshold qualifies.  A day that jumps from outside the window straight
    to the final threshold opens no episode, and an episode still open at
    the end of the series is discarded.
    """
    if entry_rule not in ENTRY_RULES:
        raise ValueError(f"unknown entry rule {entry_rule!r}")
    if vol_scope not in VOL_SCOPES:
        raise ValueError(f"unknown vol scope {vol_scope!r}")
    y = np.asarray(r, dtype=float)
    ti, tf = window.theta_i_abs, window.theta_f_abs
    if window.direction == "rally":
        # Mirror onto the crash scan; standard deviations are sign-invariant.
        y = -y
        ti, tf = -ti, -tf
    if y.size == 0:
        return _EMPTY

    hit_idx = np.flatnonzero(y <= tf)
    if hit_idx.size == 0:
        return _EMPTY
    entry = y <= ti
    if entry_rule == "crossing":
        entry[1:] &= y[:-1] > ti
    entry_idx = np.flatnonzero(entry)
    if entry_idx.size == 0:
        return _EMPTY

    # First qualifying entry in each inter-hit span; e == hit is the
    # jump-through case and opens no episode.
    span_start = np.empty_like(hit_idx)
    span_start[0] = 0
    span_start[1:] = hit_idx[:-1] + 1
    cand = np.searchsorted(entry_idx, span_start, side="left")
    have = cand < entry_idx.size
    starts = entry_idx[cand[have]]
    hits = hit_idx[have]
    spans = span_start[have]
    keep = starts < hits
    starts, hits, spans = starts[keep], hits[keep], spans[keep]
    fht = hits - starts
    if starts.size == 0:
        return _EMPTY

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

    s1 = np.concatenate(([0.0], np.cumsum(y)))
    s2 = np.concatenate(([0.0], np.cumsum(y * y)))
    length = (end - beg + 1).astype(float)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = (s1[end + 1] - s1[beg]) / length
        var = (s2[end + 1] - s2[beg]) / length - mean * mean
        vol = np.sqrt(np.maximum(var, 0.0))
    vol[length == 1] = 0.0  # prefix-sum cancellation noise on single points
    vol[length < 1] = np.nan
    return starts.astype(np.int64), fht.astype(np.int64), vol


def extract_table(
    series: list[ReturnSeries],
    window: ThresholdWindow,
    entry_rule: str = DEFAULT_ENTRY_RULE,
    vol_scope: str = DEFAULT_VOL_SCOPE,
) -> EpisodeTable:
    """Episodes of many series for one window, in column form."""
    tickers: list[str] = []
    starts: list[np.ndarray] = []
    fhts: list[np.ndarray] = []
    vols: list[np.ndarray] = []
    for rs in series:
        s, f, v = scan_returns(rs.returns, window, entry_rule, vol_scope)
        tickers.extend([rs.ticker] * s.size)
        starts.append(s)
        fhts.append(f)
        vols.append(v)
    return EpisodeTable(
        window=window,
        tickers=tickers,
        start_index=np.concatenate(starts) if starts else _EMPTY[0],
        fht=np.concatenate(fhts) if fhts else _EMPTY[1],
        volatility=np.concatenate(vols) if vols else _EMPTY[2],
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


def write_episodes_csv(tables: list[EpisodeTable], path: str | Path) -> None:
    """Write ``ticker,window_id,theta_i,theta_f,start_index,fht,volatility`` rows."""
    with open(path, "w", newline="") as fh:
        fh.write("ticker,window_id,theta_i,theta_f,start_index,fht,volatility\n")
        for table in tables:
            w = table.window
            head = f"{w.window_id},{fmt(w.theta_i)},{fmt(w.theta_f)}"
            fh.writelines(
                f"{t},{head},{s},{f},{fmt(v)}\n"
                for t, s, f, v in zip(
                    table.tickers,
                    table.start_index.tolist(),
                    table.fht.tolist(),
                    table.volatility.tolist(),
                )
            )


def read_episodes_csv(path: str | Path, sigma_bar: float = 1.0) -> list[EpisodeTable]:
    """Read episodes grouped by window id, in file order.

    The CSV stores theta multipliers, not sigma_bar, so windows are rebuilt
    against the given ``sigma_bar`` (the default leaves absolute thresholds
    equal to the multipliers; curve building does not depend on it).
    """
    groups: dict[str, dict] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["ticker", "window_id", "theta_i", "theta_f", "start_index", "fht", "volatility"]:
            raise ValueError(f"{path}: unexpected episode CSV header {header!r}")
        for row in reader:
            if not row:
                continue
            ticker, window_id, ti, tf, start, fht, vol = row
            g = groups.setdefault(
                window_id,
                {"theta_i": float(ti), "theta_f": float(tf), "tickers": [], "start": [], "fht": [], "vol": []},
            )
            g["tickers"].append(ticker)
            g["start"].append(int(start))
            g["fht"].append(int(fht))
            g["vol"].append(float(vol))
    out = []
    for _window_id, g in groups.items():
        direction = "crash" if g["theta_f"] < g["theta_i"] else "rally"
        window = ThresholdWindow(g["theta_i"], g["theta_f"], sigma_bar, direction)
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
