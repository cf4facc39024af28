import math

import numpy as np
import pytest

from helpers import make_ensemble
from volstab.episodes import EpisodeTable, ThresholdWindow, extract_table
from volstab.stats import (
    MfhtCurve,
    _binned,
    acf,
    ensemble_acf,
    fht_pdf,
    histogram,
    mfht_curve,
    nonmonotonicity_verdict,
    read_curve_csv,
    write_curve_csv,
)


FIG1A = ThresholdWindow(-0.1, -1.5, 0.02)


def _table(fht, vol):
    """Synthetic episodes of one window with the given hitting times and volatilities."""
    fht = np.asarray(fht, dtype=np.int64)
    return EpisodeTable(
        window=FIG1A,
        tickers=["t"] * fht.size,
        start_index=np.zeros(fht.size, dtype=np.int64),
        fht=fht,
        volatility=np.asarray(vol, dtype=float),
    )


def _curve(mfht_values, counts=None):
    m = np.asarray(mfht_values, dtype=float)
    c = np.asarray(counts if counts is not None else np.where(np.isfinite(m), 10, 0))
    edges = np.linspace(0.0, 1.0, m.size + 1)
    return MfhtCurve(bin_edges=edges, mfht=m, counts=c.astype(np.int64))


# ------------------------------------------------------------- mfht curve


def test_single_episode_single_bin():
    curve = mfht_curve(_table([7], [0.01]), min_count=1)
    pop = np.flatnonzero(curve.populated)
    assert pop.size == 1
    assert curve.mfht[pop[0]] == 7.0
    assert curve.counts.sum() == 1
    # below min_count the bin is flagged empty but keeps its raw count
    sparse = mfht_curve(_table([7], [0.01]), min_count=5)
    assert sparse.populated.sum() == 0
    assert sparse.counts.sum() == 1


def test_two_episodes_same_bin_mean():
    curve = mfht_curve(_table([4, 8], [0.0100, 0.0101]), bins=1, min_count=1)
    pop = np.flatnonzero(curve.populated)
    assert curve.mfht[pop].tolist() == [6.0]
    assert curve.counts.sum() == 2


def test_curve_permutation_invariance():
    rng = np.random.default_rng(44)
    fht = rng.integers(1, 300, 500)
    vol = rng.uniform(1e-3, 0.3, 500)
    a = mfht_curve(_table(fht, vol), bins=20, min_count=3)
    perm = rng.permutation(fht.size)
    b = mfht_curve(_table(fht[perm], vol[perm]), bins=20, min_count=3)
    assert np.array_equal(a.bin_edges, b.bin_edges)
    assert np.array_equal(a.counts, b.counts)
    np.testing.assert_array_equal(a.mfht, b.mfht)  # integer sums: exact


def test_curve_refinement_merge_consistency():
    rng = np.random.default_rng(45)
    fht = rng.integers(1, 100, 400).astype(float)
    vol = rng.uniform(0.01, 0.02, 400)
    edges = np.linspace(0.01, 0.02, 11)
    counts, sums = _binned(vol, edges, fht)  # as mfht_curve bins its episodes
    merged_counts, merged_sums = _binned(vol, np.delete(edges, 5), fht)  # bins 4 and 5 merged
    fine, coarse = sums / counts, merged_sums / merged_counts
    c4, c5 = counts[4], counts[5]
    assert merged_counts[4] == c4 + c5
    expected = (fine[4] * c4 + fine[5] * c5) / (c4 + c5)
    assert coarse[4] == pytest.approx(expected, rel=1e-12)


def test_curve_mfht_bounded_by_episode_range():
    rng = np.random.default_rng(46)
    fht = rng.integers(1, 500, 300)
    curve = mfht_curve(_table(fht, rng.uniform(1e-3, 0.5, 300)), bins=15, min_count=1)
    pop = curve.mfht[curve.populated]
    assert pop.min() >= fht.min()
    assert pop.max() <= fht.max()


def test_curve_counts_exclude_filtered_episodes():
    table = _table([3, 5, 7, 9], [0.01, 0.02, float("nan"), 0.0])
    curve = mfht_curve(table, bins=4, min_count=1)
    assert curve.counts.sum() == 2  # NaN and non-positive volatilities do not contribute


def test_curve_empty_errors():
    with pytest.raises(ValueError, match="^no episodes with positive volatility to bin$"):
        mfht_curve(_table([], []))
    with pytest.raises(ValueError, match="^no episodes with positive volatility to bin$"):
        mfht_curve(_table([3], [float("nan")]))
    with pytest.raises(ValueError, match="^no positive finite values to bin$"):
        fht_pdf(_table([], []))


@pytest.mark.parametrize("bins", [0, -2])
@pytest.mark.parametrize("call", [
    lambda bins: mfht_curve(_table([3, 5, 7], [0.01, 0.02, 0.03]), bins=bins),
    lambda bins: mfht_curve(_table([3, 5, 7], [0.02] * 3), bins=bins),
    lambda bins: histogram([1.0, 2.0, 3.0], bins=bins),
    lambda bins: histogram([7.0] * 3, bins=bins),
    lambda bins: fht_pdf(_table([3, 5, 7], [0.01, 0.02, 0.03]), bins=bins),
], ids=["mfht_curve", "mfht_curve of equal volatilities", "histogram", "histogram of equal values", "fht_pdf"])
def test_fewer_than_one_bin_is_refused(call, bins):
    with pytest.raises(ValueError, match=f"^bins must be at least 1, got {bins}$"):
        call(bins)


# Explicit edges, the values binned on them, and the count each bin gets.
BINNING_RULE = [
    ("inner edge", [0.5, 1, 2, 4], [1.0, 2.0], [0, 1, 1]),  # the upper bin
    ("outer edges", [0.5, 1, 2, 4], [0.5, 4.0], [1, 0, 1]),  # the last bin is closed
    ("below, above, NaN", [0.5, 1, 2, 4], [0.25, 4.5, math.nan, 1.5], [0, 1, 0]),  # left out
    ("inf under an infinite edge", [0.5, 1, math.inf], [0.7, math.inf], [1, 0]),  # left out
    ("-inf under an infinite edge", [-math.inf, 0.5, 1, math.inf], [-math.inf, 0.7, math.inf], [0, 1, 0]),
]


@pytest.mark.parametrize(
    "edges, values, counts", [row[1:] for row in BINNING_RULE], ids=[row[0] for row in BINNING_RULE]
)
@pytest.mark.parametrize("weighted", [True, False], ids=["mfht_curve", "histogram"])  # how each caller bins
def test_bins_are_half_open_and_leave_out_what_lies_outside(weighted, edges, values, counts):
    values = np.array(values, dtype=float)
    if weighted:  # a weight follows its value into its bin, or out with it
        binned_counts, sums = _binned(values, np.array(edges), np.full(values.size, 3.0))
        assert sums.tolist() == [3.0 * c for c in counts]
    else:
        (binned_counts,) = _binned(values, np.array(edges))
    assert binned_counts.tolist() == counts


def _peak(curve):
    """The verdict's peak, and whether it lies between the first and last populated bins."""
    verdict = nonmonotonicity_verdict(curve)
    pop = np.flatnonzero(curve.populated)
    peak = verdict["argmax_bin"]
    return peak, verdict["max_mfht"], peak is not None and pop[0] < peak < pop[-1]


def test_verdict_peak_basic_and_interior_flag():
    assert _peak(_curve([2, 9, 3])) == (1, 9.0, True)
    bin_index, _, interior = _peak(_curve([9, 5, 3]))
    assert (bin_index, interior) == (0, False)
    assert _peak(_curve([2, 9, float("nan")])) == (None, None, False)  # only 2 populated


def test_verdict_peak_tie_breaks():
    # tie between edge and interior: interior wins
    bin_index, _, interior = _peak(_curve([9, 9, 3]))
    assert (bin_index, interior) == (1, True)
    # tie between two interior bins: lower volatility wins
    bin_index, _, _ = _peak(_curve([1, 9, 9, 3]))
    assert bin_index == 1
    # populated-edge detection respects gaps
    bin_index, _, interior = _peak(_curve([float("nan"), 9, 5, 3]))
    assert (bin_index, interior) == (1, False)


def test_nonmonotonicity_verdict_prominence_rule():
    verdict = nonmonotonicity_verdict(_curve([2, 9, 3]), window_id="w")
    assert verdict["interior_maximum"] is True
    assert verdict["edge_ratio_low"] == pytest.approx(4.5)
    assert verdict["edge_ratio_high"] == pytest.approx(3.0)
    # peak not prominent enough against the right edge
    verdict = nonmonotonicity_verdict(_curve([2, 9, 7]))
    assert verdict["interior_maximum"] is False
    # monotone decreasing: edge maximum
    verdict = nonmonotonicity_verdict(_curve([9, 5, 3]))
    assert verdict["interior_maximum"] is False
    # too few populated bins
    verdict = nonmonotonicity_verdict(_curve([9, float("nan"), 3]))
    assert verdict["interior_maximum"] is False and verdict["argmax_bin"] is None


# ------------------------------------------------------------- histograms


def test_histogram_normalization_and_single_value():
    hist = histogram([7.0] * 25, bins=10, log=True)
    assert hist.density.size == 1  # degenerate range collapses to one bin
    width = hist.bin_edges[1] - hist.bin_edges[0]
    assert hist.density[0] == pytest.approx(1.0 / width)
    rng = np.random.default_rng(9)
    hist = histogram(rng.lognormal(0, 1, 5000), bins=24, log=True)
    assert abs(float(hist.density @ np.diff(hist.bin_edges)) - 1.0) < 1e-9
    assert (hist.density >= 0).all()


def test_histogram_of_no_value_to_bin_says_which_values_count():
    with pytest.raises(ValueError, match="^no positive finite values to bin$"):
        histogram([-1.0, 0.0, math.nan], log=True)
    with pytest.raises(ValueError, match="^no finite values to bin$"):
        histogram([math.nan, math.inf])


def test_histogram_linear_normalization():
    rng = np.random.default_rng(10)
    hist = histogram(rng.normal(0, 1, 4000), bins=30)
    assert abs(float(hist.density @ np.diff(hist.bin_edges)) - 1.0) < 1e-9


def test_fht_pdf_matches_geometric_oracle():
    rng = np.random.default_rng(7)
    p = 0.3
    draws = rng.geometric(p, size=20000)
    hist = fht_pdf(_table(draws, np.full(draws.size, 0.01)), bins=12)
    edges = hist.bin_edges
    n = draws.size
    kmax = int(draws.max())
    pmf = p * (1 - p) ** (np.arange(1, kmax + 1) - 1)
    for i in range(edges.size - 1):
        lo, hi = edges[i], edges[i + 1]
        ks = np.arange(1, kmax + 1)
        if i == edges.size - 2:
            mask = (ks >= lo) & (ks <= hi)
        else:
            mask = (ks >= lo) & (ks < hi)
        prob = pmf[mask].sum()
        width = hi - lo
        expected = prob / width
        se = math.sqrt(max(prob * (1 - prob), 1e-12) / n) / width
        assert abs(hist.density[i] - expected) <= 3 * se + 1e-12, f"bin {i}"


def test_return_pdf_symmetry_and_tails():
    rng = np.random.default_rng(11)
    series = [(f"s{i}", rng.normal(0, 0.02, 4000)) for i in range(4)]
    hist = histogram(make_ensemble(series).values, bins=41)  # the pooled returns, linear bins
    mids = 0.5 * (hist.bin_edges[:-1] + hist.bin_edges[1:])
    weights = hist.density * np.diff(hist.bin_edges)
    mean = float(mids @ weights)
    sd = math.sqrt(float(((mids - mean) ** 2) @ weights))
    skew = float(((mids - mean) ** 3) @ weights) / sd**3
    assert abs(skew) < 0.1


def test_vol_pdf_bins_episode_volatilities():
    h = histogram(_table([3, 5, 5], [0.01, 0.02, 0.04]).volatility, bins=4, log=True)
    assert np.array_equal(h.counts, histogram([0.01, 0.02, 0.04], bins=4, log=True).counts)
    assert h.counts.sum() == 3


def test_pooled_simulated_returns_have_excess_kurtosis():
    # stochastic variance fattens the tails relative to a Gaussian
    from volstab.model import ModelParams, SimConfig, simulate_ensemble

    cfg = SimConfig(days=1500, n_series=60, seed=606)
    x, _ = simulate_ensemble(ModelParams(), cfg)
    pooled = np.diff(x, axis=1).ravel()
    z = (pooled - pooled.mean()) / pooled.std()
    excess_kurtosis = float((z**4).mean() - 3.0)
    assert excess_kurtosis > 0.5


# -------------------------------------------------------------------- acf


def test_acf_lag0_is_one_and_bounds():
    rng = np.random.default_rng(12)
    out = acf(rng.normal(0, 1, 3000), 30)
    assert out[0] == 1.0
    assert np.all(np.abs(out) <= 1.0 + 1e-12)


def test_acf_white_noise_within_band():
    rng = np.random.default_rng(13)
    out = acf(rng.normal(0, 1, 100_000), 20)
    assert np.all(np.abs(out[1:]) < 0.01)  # 3/sqrt(N) ~ 0.0095


def test_acf_alternating_series():
    r = np.tile([0.05, -0.05], 500)
    out = acf(r, 2)
    assert out[1] == pytest.approx(-(999 / 1000), rel=1e-9)
    assert out[2] == pytest.approx(998 / 1000, rel=1e-9)


def test_acf_negation_invariance():
    rng = np.random.default_rng(14)
    r = rng.normal(0, 0.02, 2000)
    plain_pos = acf(r, 10)
    plain_neg = acf(-r, 10)
    assert np.array_equal(plain_pos, plain_neg)
    abs_pos = acf(r, 10, absolute=True)
    abs_neg = acf(-r, 10, absolute=True)
    assert np.array_equal(abs_pos, abs_neg)


def test_acf_errors():
    with pytest.raises(ValueError):
        acf(np.zeros(100), 5)  # zero variance
    with pytest.raises(ValueError):
        acf(np.arange(10.0), 9)  # too short for the lag


def test_ensemble_acf_is_mean_of_series_acfs():
    rng = np.random.default_rng(15)
    series = [(f"s{i}", rng.normal(0, 1, 500)) for i in range(5)]
    out = ensemble_acf(make_ensemble(series), 6)
    manual = np.mean([acf(r, 6) for _, r in series], axis=0)
    np.testing.assert_array_equal(out, manual)


# ------------------------------------------------------------------- csv


def test_curve_csv_round_trip(tmp_path):
    rng = np.random.default_rng(16)
    table = _table(rng.integers(1, 50, 200), rng.uniform(0.005, 0.1, 200))
    curve = mfht_curve(table, bins=12, min_count=5)
    path = tmp_path / "curve.csv"
    write_curve_csv(curve, path)
    back = read_curve_csv(path)
    assert np.array_equal(back.bin_edges, curve.bin_edges)
    assert np.array_equal(back.counts, curve.counts)
    np.testing.assert_array_equal(back.mfht, curve.mfht)


def test_curve_from_real_extraction_has_window_id(tmp_path):
    rng = np.random.default_rng(18)
    series = [(f"s{i}", rng.uniform(-0.06, 0.06, 200)) for i in range(10)]
    table = extract_table(make_ensemble(series), FIG1A)
    curve = mfht_curve(table, bins=10, min_count=2)
    verdict = nonmonotonicity_verdict(curve)
    assert verdict["window_id"] == FIG1A.window_id
    assert verdict["n_episodes"] == curve.counts.sum()
