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
from typing import Sequence

import numpy as np

from ._io import _loadtxt, read_rows, write_csv
from .episodes import EpisodeTable, ThresholdWindow
from .returns import Ensemble

__all__ = [
    "MfhtCurve",
    "Histogram",
    "CurveComparison",
    "mfht_curve",
    "nonmonotonicity_verdict",
    "compare_curves",
    "histogram",
    "fht_pdf",
    "acf",
    "ensemble_acf",
]

DEFAULT_BINS = 30
DEFAULT_MIN_COUNT = 5
PROMINENCE = 1.5


@dataclass(eq=False)
class MfhtCurve:
    """Mean first hitting time per volatility bin.

    ``mfht`` is NaN for bins with too few episodes (fewer than the
    ``min_count`` given to ``mfht_curve``); those bins still report their
    raw ``counts``.
    """

    bin_edges: np.ndarray
    mfht: np.ndarray
    counts: np.ndarray
    window: ThresholdWindow | None = None

    @property
    def populated(self) -> np.ndarray:
        return np.isfinite(self.mfht)


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


def _edges(values: np.ndarray, bins: int, log: bool) -> np.ndarray:
    """Edges of ``bins`` equal bins, log-spaced when ``log``, spanning the values; endpoints exact.

    Under ``log`` the values must be positive.  Equal values get one bin
    around them; ``bins`` below 1 raises ValueError.  The inner log-spaced
    edges come from ``np.exp``, whose last bits depend on the SIMD loops
    numpy picks for the CPU, so curve files written on another kind of CPU
    may differ in those bits.
    """
    if bins < 1:
        raise ValueError(f"bins must be at least 1, got {bins}")
    vmin = float(values.min())
    vmax = float(values.max())
    if vmin == vmax:
        return np.array([0.5 * vmin, 1.5 * vmin]) if log else np.array([vmin - 0.5, vmax + 0.5])
    if log:
        edges = np.exp(np.linspace(math.log(vmin), math.log(vmax), bins + 1))
    else:
        edges = np.linspace(vmin, vmax, bins + 1)
    edges[0] = vmin
    edges[-1] = vmax
    return edges


def _binned(values: np.ndarray, edges: np.ndarray, *weights: np.ndarray) -> list[np.ndarray]:
    """Per-bin count of ``values``, then the per-bin sum of each of ``weights``.

    Bins are half-open [lo, hi), the last one closed.  A value below or
    above the edges, NaN or infinite, is left out.
    """
    inside = np.isfinite(values) & (values >= edges[0]) & (values <= edges[-1])
    idx = np.searchsorted(edges[:-1], values[inside], side="right") - 1
    return [np.bincount(idx, weights=w, minlength=edges.size - 1) for w in (None, *(w[inside] for w in weights))]


def mfht_curve(
    table: EpisodeTable,
    bins: int = DEFAULT_BINS,
    min_count: int = DEFAULT_MIN_COUNT,
) -> MfhtCurve:
    """Mean-FHT-versus-volatility curve from the episodes of one window.

    Episodes are binned by volatility and their hitting times averaged per
    bin, over ``bins`` log-spaced bins spanning the finite positive
    volatilities.  Episodes whose volatility is NaN, infinite or not
    positive do not contribute; when none is left, ValueError is raised.
    """
    fht = np.asarray(table.fht, dtype=float)
    volatility = np.asarray(table.volatility, dtype=float)
    usable = volatility[np.isfinite(volatility) & (volatility > 0)]
    if usable.size == 0:
        raise ValueError("no episodes with positive volatility to bin")
    edges = _edges(usable, bins, log=True)
    counts, sums = _binned(volatility, edges, fht)
    with np.errstate(invalid="ignore", divide="ignore"):
        mfht = sums / counts
    mfht[counts < min_count] = np.nan
    return MfhtCurve(bin_edges=edges, mfht=mfht, counts=counts, window=table.window)


def nonmonotonicity_verdict(curve: MfhtCurve | None, window_id: str | None = None) -> dict:
    """Pass/fail record for the interior-maximum shape of a curve.

    ``argmax_bin`` and ``max_mfht`` give the populated bin with the
    greatest mean hitting time, when at least three bins are populated.
    Ties break toward interior bins (neither first nor last populated),
    then toward lower volatility.  The verdict is positive when that bin
    is interior and its mean is at least ``PROMINENCE`` = 1.5 times the
    first and the last populated bins'.  A window whose episodes make no
    curve (``curve`` None) has the verdict of a curve with no populated bin.
    """
    if window_id is None and curve is not None and curve.window is not None:
        window_id = curve.window.window_id
    pop = np.flatnonzero(curve.populated) if curve is not None else np.empty(0, dtype=np.intp)
    out = {
        "window_id": window_id,
        "interior_maximum": False,
        "argmax_bin": None,
        "max_mfht": None,
        "edge_ratio_low": None,
        "edge_ratio_high": None,
        "populated_bins": pop.size,
        "n_episodes": 0 if curve is None else int(curve.counts.sum()),
    }
    if pop.size < 3:
        return out
    values = curve.mfht[pop]
    top = values.max()
    at_top = pop[values == top]
    interior = (at_top != pop[0]) & (at_top != pop[-1])
    first, last = values[0], values[-1]
    ratio_low = top / first if first > 0 else math.inf
    ratio_high = top / last if last > 0 else math.inf
    out.update(
        {
            "interior_maximum": bool(interior.any() and ratio_low >= PROMINENCE and ratio_high >= PROMINENCE),
            "argmax_bin": int(at_top[interior][0] if interior.any() else at_top[0]),
            "max_mfht": float(top),
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
    pop = curve.populated
    centres = np.sqrt(curve.bin_edges[:-1] * curve.bin_edges[1:])[pop]
    n = curve.counts[pop]
    _, sums, counts = _binned(centres, edges, curve.mfht[pop] * n, n)
    with np.errstate(invalid="ignore"):
        return sums / counts


def compare_curves(empirical: MfhtCurve, model: MfhtCurve) -> CurveComparison:
    """Align two curves and summarise how they differ.

    Curves with identical edges are compared bin by bin.  Otherwise both are
    rebinned, count-weighted, onto a common log grid of at least 8 bins over
    the overlap of their populated volatility ranges.  Raises ValueError
    when a curve is empty, the ranges do not overlap, curves on different
    grids have an edge that is not positive, or no bin is populated in both.
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
        if not (np.all(empirical.bin_edges > 0) and np.all(model.bin_edges > 0)):
            raise ValueError("curves on different grids need positive bin edges to share a log grid")
        nbins = max(8, min(empirical.counts.size, model.counts.size))
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


def histogram(values: Sequence[float] | np.ndarray, bins: int = DEFAULT_BINS, log: bool = False) -> Histogram:
    """Density over ``bins`` bins spanning the finite values; log-spaced, of positive values, under ``log``.

    The density integrates to 1.  ValueError when no value is left to bin.
    """
    values = np.asarray(values, dtype=float)
    values = values[np.isfinite(values)]
    if log:
        values = values[values > 0]
    if values.size == 0:
        raise ValueError("no positive finite values to bin" if log else "no finite values to bin")
    edges = _edges(values, bins, log)
    (counts,) = _binned(values, edges)
    density = counts / (counts.sum() * np.diff(edges))
    return Histogram(bin_edges=edges, density=density, counts=counts)


def fht_pdf(table: EpisodeTable, bins: int = DEFAULT_BINS) -> Histogram:
    """Distribution of hitting times, log-spaced bins by default."""
    return histogram(table.fht, bins=bins, log=True)


def acf(r: np.ndarray, max_lag: int, absolute: bool = False) -> np.ndarray:
    """Sample autocorrelation of the returns ``r`` at lags 0..max_lag (of |r| when ``absolute``)."""
    r = np.asarray(r, dtype=float)
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
    return values


def ensemble_acf(ensemble: Ensemble, max_lag: int, absolute: bool = False) -> np.ndarray:
    """Per-lag average of the per-series autocorrelations.

    A series too short for ``max_lag`` or of zero variance raises
    ValueError naming its ticker.
    """
    rows = []
    for ticker, (a, b) in zip(ensemble.tickers, ensemble._bounds()):
        try:
            rows.append(acf(ensemble.values[a:b], max_lag, absolute=absolute))
        except ValueError as exc:
            raise ValueError(f"series {ticker!r}: {exc}") from None
    return np.stack(rows).mean(axis=0)


# The mfht cell is text, as an unpopulated bin leaves it empty.
_CURVE_DTYPE = np.dtype([("bin_lo", np.float64), ("bin_hi", np.float64), ("mfht", object), ("count", np.int64)])


def _finite_text(values: np.ndarray) -> list[str]:
    """The text ``fmt`` gives each finite value, and an empty cell for any other."""
    return [repr(v) if math.isfinite(v) else "" for v in values.tolist()]


def write_curve_csv(curve: MfhtCurve, path: str | Path) -> None:
    """Write ``bin_lo,bin_hi,mfht,count``; unpopulated bins leave mfht empty."""
    edges = curve.bin_edges
    write_csv(path, ",".join(_CURVE_DTYPE.names),
              [(edges[:-1], ",", edges[1:], ",", _finite_text(curve.mfht), ",", curve.counts)])


def read_curve_csv(path: str | Path) -> MfhtCurve:
    """Read a curve ``write_curve_csv`` wrote; an empty mfht cell is NaN.

    A malformed row, a bin whose ``bin_lo`` is not below its ``bin_hi``, an
    infinite edge or mfht, a negative count, a populated bin whose count or
    mfht is below 1 (a mean of hitting times of at least one day, over at
    least one episode), or bins that are not contiguous raise ValueError.
    """
    rows, line_of = read_rows(path, _CURVE_DTYPE)
    if rows.size == 0:
        raise ValueError(f"{path}: empty curve")
    mfht = np.full(rows.size, np.nan)
    for row, text in enumerate(rows["mfht"].tolist()):
        if text.strip():
            try:
                mfht[row] = _loadtxt([text], np.float64)[0]
            except ValueError:
                raise ValueError(f"{path}: line {line_of(row)}: mfht is not a number: {text!r}") from None
    lo, hi, counts = rows["bin_lo"], rows["bin_hi"], np.array(rows["count"])
    unordered = ~(lo < hi)  # a NaN edge is not below anything
    infinite = np.isinf(lo) | np.isinf(hi) | np.isinf(mfht)
    populated = np.isfinite(mfht)
    bad = np.flatnonzero(unordered | infinite | (counts < 0) | (populated & ((counts < 1) | (mfht < 1))))
    if bad.size:
        k = int(bad[0])
        if unordered[k]:
            what = f"bin_lo {lo[k]} is not below bin_hi {hi[k]}"
        elif infinite[k]:
            what = f"bin_lo, bin_hi and mfht must not be infinite, got {lo[k]}, {hi[k]}, {mfht[k]}"
        elif counts[k] < 0:
            what = f"count {counts[k]} is negative"
        elif counts[k] < 1:
            what = f"count {counts[k]} of a populated bin is below 1"
        else:
            what = f"mfht {mfht[k]} is below 1"
        raise ValueError(f"{path}: line {line_of(k)}: {what}")
    if np.any(hi[:-1] != lo[1:]):
        raise ValueError(f"{path}: bins are not contiguous")
    return MfhtCurve(bin_edges=np.append(lo, hi[-1]), mfht=mfht, counts=counts)


def write_comparison_csv(comparison: CurveComparison, path: str | Path) -> None:
    """Write ``bin_lo,bin_hi,mfht_empirical,mfht_model,diff``; NaN cells stay empty."""
    c = comparison
    write_csv(path, "bin_lo,bin_hi,mfht_empirical,mfht_model,diff",
              [(c.bin_edges[:-1], ",", c.bin_edges[1:], ",", _finite_text(c.mfht_empirical), ",",
                _finite_text(c.mfht_model), ",", _finite_text(c.diff))])


def write_histogram_csv(hist: Histogram, path: str | Path) -> None:
    write_csv(path, "bin_lo,bin_hi,density,count",
              [(hist.bin_edges[:-1], ",", hist.bin_edges[1:], ",", hist.density, ",", hist.counts)])


def write_acf_csv(values: np.ndarray, path: str | Path) -> None:
    write_csv(path, "lag,value", [(np.arange(values.size), ",", values)])
