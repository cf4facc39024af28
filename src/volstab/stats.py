"""Aggregation of episodes into hitting-time curves and validation statistics.

The central object is the volatility-binned mean first hitting time curve;
the rest are normalized histograms and autocorrelations used to sanity-check
the return ensembles (no linear autocorrelation, clustered absolute returns,
heavy-tailed hitting-time distribution).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from ._io import cell_error, fmt
from .episodes import EpisodeTable, ThresholdWindow
from .returns import Ensemble, ReturnSeries

__all__ = [
    "MfhtCurve",
    "CurvePeak",
    "Histogram",
    "AcfSeries",
    "CurveComparison",
    "mfht_curve",
    "mfht_curve_from_arrays",
    "locate_maximum",
    "nonmonotonicity_verdict",
    "compare_curves",
    "histogram",
    "fht_pdf",
    "return_pdf",
    "vol_pdf",
    "acf",
    "ensemble_acf",
    "write_curve_csv",
    "read_curve_csv",
    "write_comparison_csv",
    "write_histogram_csv",
    "write_acf_csv",
]

DEFAULT_BINS = 30
DEFAULT_MIN_COUNT = 5
DEFAULT_PROMINENCE = 1.5


@dataclass(eq=False)
class MfhtCurve:
    """Mean first hitting time per volatility bin.

    ``mfht`` is NaN for bins with fewer than ``min_count`` episodes; those
    bins still report their raw ``counts``.
    """

    bin_edges: np.ndarray
    mfht: np.ndarray
    counts: np.ndarray
    min_count: int
    window: ThresholdWindow | None = None

    @property
    def populated(self) -> np.ndarray:
        return np.isfinite(self.mfht)

    @property
    def n_bins(self) -> int:
        return self.counts.size


@dataclass(frozen=True)
class CurvePeak:
    bin_index: int
    mfht: float
    interior: bool


@dataclass(eq=False)
class Histogram:
    """Density-normalized histogram: sum(density * width) == 1 over in-range data."""

    bin_edges: np.ndarray
    density: np.ndarray
    counts: np.ndarray


@dataclass(eq=False)
class CurveComparison:
    """Two curves on one volatility grid, their per-bin difference, and a summary.

    The mfht arrays and ``diff`` are NaN where a bin is not populated (in
    both curves, for ``diff``).
    """

    bin_edges: np.ndarray
    mfht_empirical: np.ndarray
    mfht_model: np.ndarray
    diff: np.ndarray
    report: dict


@dataclass(eq=False)
class AcfSeries:
    lags: np.ndarray
    values: np.ndarray


def _log_edges(values: np.ndarray, bins: int) -> np.ndarray:
    """Log-spaced edges spanning the positive values, endpoints exact."""
    vmin = float(values.min())
    vmax = float(values.max())
    if vmin == vmax:
        return np.array([0.5 * vmin, 1.5 * vmin]) if vmin > 0 else np.array([-0.5, 0.5])
    edges = np.exp(np.linspace(math.log(vmin), math.log(vmax), bins + 1))
    edges[0] = vmin
    edges[-1] = vmax
    return edges


def _linear_edges(values: np.ndarray, bins: int) -> np.ndarray:
    vmin = float(values.min())
    vmax = float(values.max())
    if vmin == vmax:
        return np.array([vmin - 0.5, vmax + 0.5])
    edges = np.linspace(vmin, vmax, bins + 1)
    edges[0] = vmin
    edges[-1] = vmax
    return edges


def _bin_index(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Half-open bins [lo, hi), last bin closed; -1 for out-of-range values."""
    idx = np.searchsorted(edges, values, side="right") - 1
    nbins = edges.size - 1
    idx[values == edges[-1]] = nbins - 1
    idx[(values < edges[0]) | (values > edges[-1])] = -1
    idx[~np.isfinite(values)] = -1
    return idx


def mfht_curve_from_arrays(
    fht: np.ndarray,
    volatility: np.ndarray,
    bins: int | np.ndarray = DEFAULT_BINS,
    min_count: int = DEFAULT_MIN_COUNT,
    window: ThresholdWindow | None = None,
) -> MfhtCurve:
    """Bin episodes by volatility and average their hitting times per bin.

    ``bins`` is either a count of log-spaced bins spanning the observed
    positive volatilities or an explicit edge array.  Episodes whose
    volatility is NaN, non-positive (under log spacing), or outside the
    edges do not contribute.
    """
    fht = np.asarray(fht, dtype=float)
    volatility = np.asarray(volatility, dtype=float)
    if fht.size == 0:
        raise ValueError("no episodes to bin")
    if isinstance(bins, (int, np.integer)):
        usable = volatility[np.isfinite(volatility) & (volatility > 0)]
        if usable.size == 0:
            raise ValueError("no episodes with positive volatility to bin")
        edges = _log_edges(usable, int(bins))
    else:
        edges = np.asarray(bins, dtype=float)
        if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
            raise ValueError("explicit bin edges must be 1-d and strictly increasing")
    nbins = edges.size - 1
    idx = _bin_index(volatility, edges)
    inside = idx >= 0
    counts = np.bincount(idx[inside], minlength=nbins)
    sums = np.bincount(idx[inside], weights=fht[inside], minlength=nbins)
    with np.errstate(invalid="ignore", divide="ignore"):
        mfht = sums / counts
    mfht[counts < min_count] = np.nan
    return MfhtCurve(bin_edges=edges, mfht=mfht, counts=counts, min_count=min_count, window=window)


def mfht_curve(
    table: EpisodeTable,
    bins: int | np.ndarray = DEFAULT_BINS,
    min_count: int = DEFAULT_MIN_COUNT,
) -> MfhtCurve:
    """Mean-FHT-versus-volatility curve from the episodes of one window."""
    return mfht_curve_from_arrays(
        table.fht, table.volatility, bins=bins, min_count=min_count, window=table.window
    )


def locate_maximum(curve: MfhtCurve) -> CurvePeak | None:
    """Populated bin with the greatest mean hitting time.

    Requires at least three populated bins, otherwise None.  Ties break
    toward interior bins (neither first nor last populated), then toward
    lower volatility.
    """
    pop = np.flatnonzero(curve.populated)
    if pop.size < 3:
        return None
    values = curve.mfht[pop]
    top = values.max()
    at_top = pop[values == top]
    interior = (at_top != pop[0]) & (at_top != pop[-1])
    pick = at_top[interior][0] if interior.any() else at_top[0]
    return CurvePeak(bin_index=int(pick), mfht=float(top), interior=bool(pick not in (pop[0], pop[-1])))


def nonmonotonicity_verdict(
    curve: MfhtCurve,
    prominence: float = DEFAULT_PROMINENCE,
    window_id: str | None = None,
) -> dict:
    """Pass/fail record for the interior-maximum shape of a curve.

    The verdict is positive when the curve's maximum sits strictly inside
    the populated range and exceeds both the first and last populated bins
    by the prominence factor.
    """
    if window_id is None and curve.window is not None:
        window_id = curve.window.window_id
    peak = locate_maximum(curve)
    out = {
        "window_id": window_id,
        "interior_maximum": False,
        "argmax_bin": None,
        "max_mfht": None,
        "edge_ratio_low": None,
        "edge_ratio_high": None,
        "populated_bins": int(curve.populated.sum()),
        "n_episodes": int(curve.counts.sum()),
    }
    if peak is None:
        return out
    pop = np.flatnonzero(curve.populated)
    first, last = curve.mfht[pop[0]], curve.mfht[pop[-1]]
    ratio_low = peak.mfht / first if first > 0 else math.inf
    ratio_high = peak.mfht / last if last > 0 else math.inf
    out.update(
        {
            "interior_maximum": bool(peak.interior and ratio_low >= prominence and ratio_high >= prominence),
            "argmax_bin": peak.bin_index,
            "max_mfht": peak.mfht,
            "edge_ratio_low": ratio_low,
            "edge_ratio_high": ratio_high,
        }
    )
    return out


def _populated_span(curve: MfhtCurve) -> tuple[float, float]:
    pop = np.flatnonzero(curve.populated)
    if pop.size == 0:
        raise ValueError("curve has no populated bins")
    return float(curve.bin_edges[pop[0]]), float(curve.bin_edges[pop[-1] + 1])


def _rebin(curve: MfhtCurve, edges: np.ndarray) -> np.ndarray:
    """Count-weighted means of populated source bins onto the common grid."""
    mids = np.sqrt(curve.bin_edges[:-1] * curve.bin_edges[1:])
    sums = np.zeros(edges.size - 1)
    counts = np.zeros(edges.size - 1)
    for i in np.flatnonzero(curve.populated):
        j = int(np.searchsorted(edges, mids[i], side="right")) - 1
        if mids[i] == edges[-1]:
            j = edges.size - 2
        if 0 <= j < edges.size - 1:
            sums[j] += curve.mfht[i] * curve.counts[i]
            counts[j] += curve.counts[i]
    with np.errstate(invalid="ignore"):
        return sums / counts


def compare_curves(empirical: MfhtCurve, model: MfhtCurve) -> CurveComparison:
    """Align two curves and summarise how they differ.

    Curves with identical edges are compared bin by bin.  Otherwise both are
    rebinned, count-weighted, onto a common log grid of at least 8 bins over
    the overlap of their populated volatility ranges.  Raises ValueError
    when a curve is empty, the ranges do not overlap, or no bin is populated
    in both.
    """
    lo_e, hi_e = _populated_span(empirical)
    lo_m, hi_m = _populated_span(model)
    lo, hi = max(lo_e, lo_m), min(hi_e, hi_m)
    if not lo < hi:
        raise ValueError("no overlap between the volatility ranges of the two curves")

    if np.array_equal(empirical.bin_edges, model.bin_edges):
        edges = empirical.bin_edges
        mfht_e = empirical.mfht.copy()
        mfht_m = model.mfht.copy()
    else:
        nbins = max(8, min(empirical.n_bins, model.n_bins))
        edges = np.exp(np.linspace(np.log(lo), np.log(hi), nbins + 1))
        edges[0], edges[-1] = lo, hi
        mfht_e = _rebin(empirical, edges)
        mfht_m = _rebin(model, edges)

    both = np.isfinite(mfht_e) & np.isfinite(mfht_m)
    if not both.any():
        raise ValueError("no common populated bins after rebinning")
    diff = np.where(both, mfht_e - mfht_m, np.nan)

    peak_e = int(np.nanargmax(np.where(np.isfinite(mfht_e), mfht_e, -np.inf)))
    peak_m = int(np.nanargmax(np.where(np.isfinite(mfht_m), mfht_m, -np.inf)))
    report = {
        "bins_compared": int(both.sum()),
        "max_abs_diff": float(np.nanmax(np.abs(diff))),
        "mean_abs_diff": float(np.nanmean(np.abs(diff[both]))),
        "peak_bin_empirical": peak_e,
        "peak_bin_model": peak_m,
        "peak_offset_bins": abs(peak_e - peak_m),
        "verdict_empirical": nonmonotonicity_verdict(empirical, window_id="empirical"),
        "verdict_model": nonmonotonicity_verdict(model, window_id="model"),
    }
    return CurveComparison(
        bin_edges=edges, mfht_empirical=mfht_e, mfht_model=mfht_m, diff=diff, report=report
    )


def histogram(values: Iterable[float], bins: int | np.ndarray = DEFAULT_BINS, log: bool = False) -> Histogram:
    """Normalized histogram; density integrates to 1 over the in-range values."""
    values = np.asarray(list(values) if not isinstance(values, np.ndarray) else values, dtype=float)
    values = values[np.isfinite(values)]
    if log:
        values = values[values > 0]
    if values.size == 0:
        raise ValueError("no finite values to bin")
    if isinstance(bins, (int, np.integer)):
        edges = _log_edges(values, int(bins)) if log else _linear_edges(values, int(bins))
    else:
        edges = np.asarray(bins, dtype=float)
    idx = _bin_index(values, edges)
    counts = np.bincount(idx[idx >= 0], minlength=edges.size - 1)
    total = counts.sum()
    if total == 0:
        raise ValueError("no values inside the bin range")
    widths = np.diff(edges)
    density = counts / (total * widths)
    return Histogram(bin_edges=edges, density=density, counts=counts)


def fht_pdf(table: EpisodeTable, bins: int | np.ndarray = DEFAULT_BINS) -> Histogram:
    """Distribution of hitting times, log-spaced bins by default."""
    if len(table) == 0:
        raise ValueError("no episodes")
    return histogram(table.fht, bins=bins, log=True)


def return_pdf(ensemble: Ensemble, bins: int | np.ndarray = DEFAULT_BINS) -> Histogram:
    """Distribution of pooled daily returns, linear bins."""
    return histogram(ensemble.values, bins=bins, log=False)


def vol_pdf(
    volatilities: EpisodeTable | Iterable[float],
    bins: int | np.ndarray = DEFAULT_BINS,
) -> Histogram:
    """Distribution of volatility values (an episode table or raw values), log bins."""
    if isinstance(volatilities, EpisodeTable):
        values = volatilities.volatility
    else:
        values = np.asarray(list(volatilities), dtype=float)
    if values.size == 0:
        raise ValueError("no volatility values")
    return histogram(values, bins=bins, log=True)


def acf(series: ReturnSeries | np.ndarray, max_lag: int, absolute: bool = False) -> AcfSeries:
    """Sample autocorrelation at lags 0..max_lag (of |r| when ``absolute``)."""
    r = series.returns if isinstance(series, ReturnSeries) else np.asarray(series, dtype=float)
    if r.size <= max_lag + 1:
        raise ValueError(f"series of length {r.size} too short for max_lag={max_lag}")
    if absolute:
        r = np.abs(r)
    d = r - r.mean()
    c0 = float(d @ d)
    if c0 == 0.0:
        raise ValueError("zero-variance series has no autocorrelation")
    values = np.empty(max_lag + 1)
    values[0] = 1.0
    for k in range(1, max_lag + 1):
        values[k] = float(d[:-k] @ d[k:]) / c0
    return AcfSeries(lags=np.arange(max_lag + 1), values=values)


def ensemble_acf(ensemble: Ensemble, max_lag: int, absolute: bool = False) -> AcfSeries:
    """Per-lag average of the per-series autocorrelations.

    A series too short for ``max_lag`` or of zero variance raises
    ValueError naming its ticker.
    """
    rows = []
    for rs in ensemble:
        try:
            rows.append(acf(rs, max_lag, absolute=absolute).values)
        except ValueError as exc:
            raise ValueError(f"series {rs.ticker!r}: {exc}") from None
    return AcfSeries(lags=np.arange(max_lag + 1), values=np.stack(rows).mean(axis=0))


def write_curve_csv(curve: MfhtCurve, path: str | Path) -> None:
    """Write ``bin_lo,bin_hi,mfht,count``; unpopulated bins leave mfht empty."""
    with open(path, "w", newline="") as fh:
        fh.write("bin_lo,bin_hi,mfht,count\n")
        for i in range(curve.n_bins):
            m = curve.mfht[i]
            mtxt = fmt(m) if np.isfinite(m) else ""
            fh.write(f"{fmt(curve.bin_edges[i])},{fmt(curve.bin_edges[i + 1])},{mtxt},{int(curve.counts[i])}\n")


def read_curve_csv(path: str | Path, min_count: int = 1) -> MfhtCurve:
    lows: list[float] = []
    highs: list[float] = []
    mfht: list[float] = []
    counts: list[int] = []
    with open(path, newline="") as fh:
        header = fh.readline().strip()
        if header != "bin_lo,bin_hi,mfht,count":
            raise ValueError(f"{path}: expected header 'bin_lo,bin_hi,mfht,count', got {header!r}")
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise ValueError(f"{path}: line {line_no}: expected 4 columns, got {len(parts)}")
            low, high, m, count = parts
            try:
                lows.append(float(low))
                highs.append(float(high))
                mfht.append(float(m) if m else math.nan)
                counts.append(int(count))
            except ValueError:
                raise cell_error(
                    f"{path}: line {line_no}",
                    [("bin_lo", low, float), ("bin_hi", high, float), ("mfht", m or "nan", float),
                     ("count", count, int)],
                ) from None
    if not lows:
        raise ValueError(f"{path}: empty curve")
    if any(h != l for h, l in zip(highs[:-1], lows[1:])):
        raise ValueError(f"{path}: bins are not contiguous")
    edges = np.array(lows + [highs[-1]])
    return MfhtCurve(
        bin_edges=edges,
        mfht=np.array(mfht),
        counts=np.array(counts, dtype=np.int64),
        min_count=min_count,
    )


def write_comparison_csv(comparison: CurveComparison, path: str | Path) -> None:
    """Write ``bin_lo,bin_hi,mfht_empirical,mfht_model,diff``; NaN cells stay empty."""
    edges = comparison.bin_edges
    columns = (comparison.mfht_empirical, comparison.mfht_model, comparison.diff)
    with open(path, "w", newline="") as fh:
        fh.write("bin_lo,bin_hi,mfht_empirical,mfht_model,diff\n")
        for i in range(edges.size - 1):
            cells = [fmt(col[i]) if np.isfinite(col[i]) else "" for col in columns]
            fh.write(f"{fmt(edges[i])},{fmt(edges[i + 1])},{','.join(cells)}\n")


def write_histogram_csv(hist: Histogram, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("bin_lo,bin_hi,density,count\n")
        for i in range(hist.density.size):
            fh.write(
                f"{fmt(hist.bin_edges[i])},{fmt(hist.bin_edges[i + 1])},"
                f"{fmt(hist.density[i])},{int(hist.counts[i])}\n"
            )


def write_acf_csv(series: AcfSeries, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("lag,value\n")
        for lag, value in zip(series.lags.tolist(), series.values.tolist()):
            fh.write(f"{lag},{fmt(value)}\n")
