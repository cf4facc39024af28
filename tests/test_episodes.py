import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import assert_episodes_match, make_ensemble, oracle_episodes, random_windows
from volstab import returns
from volstab.episodes import (
    ENTRY_RULES,
    VOL_SCOPES,
    WINDOW_FAMILIES,
    ThresholdWindow,
    extract_table,
    window_family,
)


def _series(values, ticker="t"):
    return ticker, np.asarray(values, dtype=float)


def _scan(series, window, **kwargs):
    """Episodes of one ``(ticker, values)`` series, as a one-series table."""
    return extract_table(make_ensemble([series]), window, **kwargs)


def _pairs(table):
    return list(zip(table.start_index.tolist(), table.fht.tolist()))


FIG1A = ThresholdWindow(-0.1, -1.5, 0.02)  # thresholds -0.002 / -0.03


def test_window_validation_and_ids():
    for ti, tf in [(0.5, 0.5), (math.nan, -1.5), (-0.1, math.nan), (math.nan, math.nan)]:
        with pytest.raises(ValueError, match="theta_f must differ from theta_i"):
            ThresholdWindow(ti, tf, 0.02)
    with pytest.raises(ValueError, match="sigma_bar"):
        ThresholdWindow(-0.1, -1.5, 0.0)
    # an infinite theta, or a finite one whose threshold overflows
    for ti, tf, sigma_bar in [(math.inf, 0.0, 0.02), (-0.1, -math.inf, 0.02), (1e308, 0.0, 10.0), (0.0, -1e308, 10.0)]:
        with pytest.raises(ValueError, match=r"threshold theta_[if] \* sigma_bar must be finite"):
            ThresholdWindow(ti, tf, sigma_bar)
    assert FIG1A.direction == "crash"
    assert ThresholdWindow(-1.5, -0.1, 0.02).direction == "rally"
    assert FIG1A.theta_i_abs == pytest.approx(-0.002)
    assert FIG1A.theta_f_abs == pytest.approx(-0.03)
    assert FIG1A.window_id == "crash_ti-0.10_tf-1.50"


def test_hand_traced_crash_episode():
    rs = _series([0.001, -0.003, -0.010, -0.035, 0.004])
    table = _scan(rs, FIG1A)
    assert _pairs(table) == [(1, 2)]
    assert table.tickers == ["t"]
    assert table.volatility[0] == pytest.approx(np.std([-0.003, -0.010, -0.035]), rel=1e-12)


def test_all_zero_returns_no_episodes():
    assert len(_scan(_series([0.0] * 10), FIG1A)) == 0


def test_rally_mirror_of_crash():
    values = [0.001, -0.003, -0.010, -0.035, 0.004]
    crash = _scan(_series(values), FIG1A)
    rally = ThresholdWindow(+0.1, +1.5, 0.02)
    mirrored = _scan(_series([-v for v in values]), rally)
    assert _pairs(mirrored) == _pairs(crash)
    assert mirrored.volatility.tolist() == crash.volatility.tolist()


def test_sign_symmetry_random():
    rng = np.random.default_rng(17)
    rally = ThresholdWindow(+0.1, +1.5, 0.02)
    for _ in range(50):
        r = rng.uniform(-0.06, 0.06, size=rng.integers(5, 60))
        assert _pairs(_scan(_series(r), FIG1A)) == _pairs(_scan(_series(-r), rally))


def test_jump_through_opens_no_episode():
    # one day falls straight from above theta_i to below theta_f
    rs = _series([0.001, -0.04, -0.001, -0.01, -0.05])
    assert _pairs(_scan(rs, FIG1A)) == [(3, 1)]


def test_entry_on_day_zero_by_level():
    rs = _series([-0.01, -0.02, -0.04])
    assert _pairs(_scan(rs, FIG1A)) == [(0, 2)]


def test_deep_excursion_spawns_single_episode_under_crossing_rule():
    # stays below theta_i for many days; only one entry is counted
    rs = _series([0.001, -0.005, -0.006, -0.007, -0.008, -0.04])
    assert _pairs(_scan(rs, FIG1A)) == [(1, 4)]
    # the level rule instead re-enters right after each hit
    assert _pairs(_scan(rs, FIG1A, entry_rule="level")) == [(1, 4)]


def test_level_rule_allows_reentry_without_recrossing():
    rs = _series([0.001, -0.005, -0.04, -0.006, -0.04])
    assert _pairs(_scan(rs, FIG1A, entry_rule="crossing")) == [(1, 1)]
    assert _pairs(_scan(rs, FIG1A, entry_rule="level")) == [(1, 1), (3, 1)]


def test_exact_threshold_values_are_attained():
    w = FIG1A
    rs = _series([0.001, w.theta_i_abs, 0.001, w.theta_i_abs, w.theta_f_abs])
    # r == theta_i enters; r == theta_f terminates
    assert _pairs(_scan(rs, w)) == [(1, 3)]


def test_censored_tail_is_discarded():
    rs = _series([0.001, -0.005, -0.006, -0.007])
    assert len(_scan(rs, FIG1A)) == 0


def test_censoring_appending_quiet_tail_changes_nothing():
    rng = np.random.default_rng(23)
    for _ in range(30):
        r = rng.uniform(-0.06, 0.06, size=40)
        base = _scan(_series(r), FIG1A)
        quiet = rng.uniform(-0.001, 0.001, size=15)  # never reaches theta_f
        extended = _scan(_series(np.concatenate([r, quiet])), FIG1A)
        assert _pairs(base) == _pairs(extended)
        assert base.volatility.tolist() == extended.volatility.tolist()


def test_non_overlap_and_ordering():
    rng = np.random.default_rng(5)
    for _ in range(30):
        r = rng.uniform(-0.06, 0.06, size=80)
        spans = [(s, s + f) for s, f in _pairs(_scan(_series(r), FIG1A))]
        assert spans == sorted(spans)
        for (_, end), (nxt, _) in zip(spans, spans[1:]):
            assert nxt > end


def test_matches_quadratic_oracle_everywhere():
    rng = np.random.default_rng(2718)
    sigma_bar = 0.02
    windows = random_windows(rng, sigma_bar, 5, 5)
    for case in range(100):
        r = rng.uniform(-3 * sigma_bar, 3 * sigma_bar, size=rng.integers(2, 51))
        rs = _series(r, ticker=f"case{case}")
        for w in windows:
            for entry_rule in ("crossing", "level"):
                for scope in VOL_SCOPES:
                    got = _scan(rs, w, entry_rule=entry_rule, vol_scope=scope)
                    want = oracle_episodes(
                        r, w.theta_i_abs, w.theta_f_abs, w.direction, entry_rule, scope
                    )
                    assert_episodes_match(
                        got, want, f"case={case} {w.window_id} {entry_rule}/{scope}"
                    )


def test_vol_scope_segments():
    rs = _series([0.001, -0.003, -0.010, -0.035, 0.004])
    by_scope = {
        "window": np.std([-0.003, -0.010, -0.035]),
        "no-entry": np.std([-0.010, -0.035]),
        "no-hit": np.std([-0.003, -0.010]),
        "interior": np.std([-0.010]),
        "stretch": np.std([0.001, -0.003, -0.010, -0.035]),
    }
    for scope, want in by_scope.items():
        table = _scan(rs, FIG1A, vol_scope=scope)
        assert len(table) == 1, scope
        assert table.volatility[0] == pytest.approx(float(want), rel=1e-12), scope


def test_interior_scope_single_day_episode_has_nan_volatility():
    rs = _series([0.001, -0.003, -0.035])
    table = _scan(rs, FIG1A, vol_scope="interior")
    assert _pairs(table) == [(1, 1)] and np.isnan(table.volatility[0])


def test_extract_table_concatenates_per_series():
    rng = np.random.default_rng(31)
    series = [_series(rng.uniform(-0.06, 0.06, 50), ticker=f"s{i}") for i in range(7)]
    table = extract_table(make_ensemble(series), FIG1A)
    parts = [_scan(rs, FIG1A) for rs in series]
    assert sum(len(p) for p in parts) == len(table) > 0
    assert table.tickers == [ticker for (ticker, _), p in zip(series, parts) for _ in range(len(p))]
    assert table.start_index.tolist() == [s for p in parts for s in p.start_index.tolist()]
    assert table.fht.tolist() == [f for p in parts for f in p.fht.tolist()]
    np.testing.assert_array_equal(table.volatility, np.concatenate([p.volatility for p in parts]))


def _oracle_table(series, window, entry_rule="crossing", vol_scope="window"):
    """(tickers, oracle tuples) of every series in turn, as the flat scan must order them."""
    tickers, episodes = [], []
    for ticker, r in series:
        found = oracle_episodes(
            r, window.theta_i_abs, window.theta_f_abs, window.direction, entry_rule, vol_scope
        )
        tickers += [ticker] * len(found)
        episodes += found
    return tickers, episodes


@st.composite
def ragged_ensembles(draw):
    """A window and 1-6 series of 1-80 returns that often sit exactly on its thresholds."""
    sigma_bar = 0.02
    crash = draw(st.booleans())
    ti = round(draw(st.floats(-1.2, 1.2)), 3)
    width = round(draw(st.floats(0.3, 2.2)), 3)
    tf = round(ti - width if crash else ti + width, 3)
    window = ThresholdWindow(ti, tf, sigma_bar)
    value = st.one_of(
        st.floats(-3 * sigma_bar, 3 * sigma_bar),
        st.sampled_from([window.theta_i_abs, window.theta_f_abs, 0.0]),
    )
    lengths = draw(st.lists(st.integers(1, 80), min_size=1, max_size=6))
    series = [_series(draw(st.lists(value, min_size=n, max_size=n)), ticker=f"s{i}") for i, n in enumerate(lengths)]
    return window, series


@settings(max_examples=300, deadline=None)
@given(ragged_ensembles(), st.sampled_from([1, 2, 7, 64]))
def test_flat_scan_matches_oracle_on_ragged_ensembles(case, block_values):
    """The whole scan matches the per-series oracle, and the block scans joined match the whole scan bit for bit."""
    window, series = case
    ensemble = make_ensemble(series)
    lengths = np.diff(ensemble.offsets).tolist()
    with mock.patch.object(returns, "_BLOCK_VALUES", block_values):
        blocks = list(ensemble.series_blocks())
    # the blocks cover the series in order; one is above the cap only when it
    # is one series, and none could take the next block's first series
    assert [t for block in blocks for t in block.tickers] == ensemble.tickers
    assert [n for block in blocks for n in np.diff(block.offsets).tolist()] == lengths
    assert np.concatenate([block.values for block in blocks]).tobytes() == ensemble.values.tobytes()
    assert np.concatenate([block.sigmas for block in blocks]).tobytes() == ensemble.sigmas.tobytes()
    assert all(block.values.size <= block_values or len(block) == 1 for block in blocks)
    assert all(a.values.size + int(b.offsets[1]) > block_values for a, b in zip(blocks, blocks[1:]))
    for entry_rule in ENTRY_RULES:
        for scope in VOL_SCOPES:
            got = extract_table(ensemble, window, entry_rule=entry_rule, vol_scope=scope)
            tickers, want = _oracle_table(series, window, entry_rule, scope)
            context = f"{window.window_id} {entry_rule}/{scope} lengths={lengths} blocks of {block_values}"
            assert got.tickers == tickers, context
            assert_episodes_match(got, want, context)
            parts = [extract_table(block, window, entry_rule=entry_rule, vol_scope=scope) for block in blocks]
            assert all(part.window == window for part in parts), context
            assert [t for part in parts for t in part.tickers] == got.tickers, context
            for name in ("start_index", "fht", "volatility"):
                column, whole = np.concatenate([getattr(part, name) for part in parts]), getattr(got, name)
                assert column.dtype == whole.dtype and column.tobytes() == whole.tobytes(), f"{context}: {name}"


def test_entry_on_last_day_and_hit_on_next_first_day_opens_no_episode():
    ensemble = make_ensemble([_series([0.001, -0.003], "a"), _series([-0.035, 0.001], "b")])
    for entry_rule in ENTRY_RULES:
        assert len(extract_table(ensemble, FIG1A, entry_rule=entry_rule)) == 0
    # the same returns as one series do make an episode
    assert _pairs(_scan(_series([0.001, -0.003, -0.035, 0.001]), FIG1A)) == [(1, 1)]


def test_episode_open_at_series_end_is_censored():
    a = _series([0.001, -0.003, -0.010], "a")  # entered, never hit
    b = _series([0.001, -0.035, 0.001, -0.003, -0.035], "b")
    table = extract_table(make_ensemble([a, b]), FIG1A)
    assert table.tickers == ["b"] and _pairs(table) == [(3, 1)]


def test_stretch_span_begins_at_series_boundary():
    a = _series([0.001, -0.003, -0.035, 0.002], "a")
    b = _series([0.004, -0.003, -0.035], "b")
    table = extract_table(make_ensemble([a, b]), FIG1A, vol_scope="stretch")
    assert table.tickers == ["a", "b"] and _pairs(table) == [(1, 1), (1, 1)]
    assert table.volatility[1] == pytest.approx(np.std([0.004, -0.003, -0.035]), rel=1e-12)
    _, want = _oracle_table([a, b], FIG1A, vol_scope="stretch")
    assert_episodes_match(table, want, "stretch")


def test_deeper_final_threshold_never_gains_episodes():
    rng = np.random.default_rng(12)
    sigma_bar = 0.02
    shallow = ThresholdWindow(-0.1, -0.5, sigma_bar)
    deep = ThresholdWindow(-0.1, -3.0, sigma_bar)
    total_shallow = total_deep = 0
    for _ in range(100):
        r = rng.uniform(-3 * sigma_bar, 3 * sigma_bar, size=50)
        rs = _series(r)
        total_shallow += len(_scan(rs, shallow))
        total_deep += len(_scan(rs, deep))
    assert total_shallow >= total_deep
    assert total_shallow > 0


# Each built-in family, pinned exactly: its window ids, then the repr of
# each window's theta_i and of its theta_f, space-separated.
EXPECTED_FAMILIES = {
    "fig1a": (
        "crash_ti-0.10_tf-1.50",
        "-0.1",
        "-1.5",
    ),
    "fig1b": (
        "crash_ti+0.90_tf-0.50 crash_ti+0.80_tf-0.60 crash_ti+0.70_tf-0.70 crash_ti+0.60_tf-0.80 "
        "crash_ti+0.50_tf-0.90 crash_ti+0.40_tf-1.00 crash_ti+0.30_tf-1.10 crash_ti+0.20_tf-1.20 "
        "crash_ti+0.10_tf-1.30 crash_ti+0.00_tf-1.40 crash_ti-0.10_tf-1.50 crash_ti-0.20_tf-1.60 "
        "crash_ti-0.30_tf-1.70 crash_ti-0.40_tf-1.80 crash_ti-0.50_tf-1.90 crash_ti-0.60_tf-2.00 "
        "crash_ti-0.70_tf-2.10 crash_ti-0.80_tf-2.20 crash_ti-0.90_tf-2.30 crash_ti-1.00_tf-2.40 "
        "crash_ti-1.10_tf-2.50 crash_ti-1.20_tf-2.60 crash_ti-1.30_tf-2.70 crash_ti-1.40_tf-2.80 "
        "crash_ti-1.50_tf-2.90 crash_ti-1.60_tf-3.00",
        "0.9 0.8 0.7 0.6 0.5 0.4 0.3 0.2 0.1 0.0 -0.1 -0.2 -0.3 -0.4 -0.5 -0.6 -0.7 -0.8 -0.9 -1.0 -1.1 -1.2 "
        "-1.3 -1.4 -1.5 -1.6",
        "-0.5 -0.6 -0.7 -0.8 -0.9 -1.0 -1.1 -1.2 -1.3 -1.4 -1.5 -1.6 -1.7 -1.8 -1.9 -2.0 -2.1 -2.2 -2.3 -2.4 "
        "-2.5 -2.6 -2.7 -2.8 -2.9 -3.0",
    ),
    "fig1c": (
        "crash_ti-0.10_tf-0.50 crash_ti-0.10_tf-0.60 crash_ti-0.10_tf-0.70 crash_ti-0.10_tf-0.80 "
        "crash_ti-0.10_tf-0.90 crash_ti-0.10_tf-1.00 crash_ti-0.10_tf-1.10 crash_ti-0.10_tf-1.20 "
        "crash_ti-0.10_tf-1.30 crash_ti-0.10_tf-1.40 crash_ti-0.10_tf-1.50 crash_ti-0.10_tf-1.60 "
        "crash_ti-0.10_tf-1.70 crash_ti-0.10_tf-1.80 crash_ti-0.10_tf-1.90 crash_ti-0.10_tf-2.00 "
        "crash_ti-0.10_tf-2.10 crash_ti-0.10_tf-2.20 crash_ti-0.10_tf-2.30 crash_ti-0.10_tf-2.40 "
        "crash_ti-0.10_tf-2.50 crash_ti-0.10_tf-2.60 crash_ti-0.10_tf-2.70 crash_ti-0.10_tf-2.80 "
        "crash_ti-0.10_tf-2.90 crash_ti-0.10_tf-3.00",
        "-0.1 -0.1 -0.1 -0.1 -0.1 -0.1 -0.1 -0.1 -0.1 -0.1 -0.1 -0.1 -0.1 -0.1 -0.1 -0.1 -0.1 -0.1 -0.1 -0.1 "
        "-0.1 -0.1 -0.1 -0.1 -0.1 -0.1",
        "-0.5 -0.6 -0.7 -0.8 -0.9 -1.0 -1.1 -1.2 -1.3 -1.4 -1.5 -1.6 -1.7 -1.8 -1.9 -2.0 -2.1 -2.2 -2.3 -2.4 "
        "-2.5 -2.6 -2.7 -2.8 -2.9 -3.0",
    ),
    "fig2a": (
        "rally_ti+0.10_tf+1.50",
        "0.1",
        "1.5",
    ),
    "fig2b": (
        "rally_ti-0.90_tf+0.50 rally_ti-0.80_tf+0.60 rally_ti-0.70_tf+0.70 rally_ti-0.60_tf+0.80 "
        "rally_ti-0.50_tf+0.90 rally_ti-0.40_tf+1.00 rally_ti-0.30_tf+1.10 rally_ti-0.20_tf+1.20 "
        "rally_ti-0.10_tf+1.30 rally_ti+0.00_tf+1.40 rally_ti+0.10_tf+1.50 rally_ti+0.20_tf+1.60 "
        "rally_ti+0.30_tf+1.70 rally_ti+0.40_tf+1.80 rally_ti+0.50_tf+1.90 rally_ti+0.60_tf+2.00 "
        "rally_ti+0.70_tf+2.10 rally_ti+0.80_tf+2.20 rally_ti+0.90_tf+2.30 rally_ti+1.00_tf+2.40 "
        "rally_ti+1.10_tf+2.50 rally_ti+1.20_tf+2.60 rally_ti+1.30_tf+2.70 rally_ti+1.40_tf+2.80 "
        "rally_ti+1.50_tf+2.90 rally_ti+1.60_tf+3.00",
        "-0.9 -0.8 -0.7 -0.6 -0.5 -0.4 -0.3 -0.2 -0.1 0.0 0.1 0.2 0.3 0.4 0.5 0.6 0.7 0.8 0.9 1.0 1.1 1.2 1.3 "
        "1.4 1.5 1.6",
        "0.5 0.6 0.7 0.8 0.9 1.0 1.1 1.2 1.3 1.4 1.5 1.6 1.7 1.8 1.9 2.0 2.1 2.2 2.3 2.4 2.5 2.6 2.7 2.8 2.9 "
        "3.0",
    ),
    "fig2c": (
        "rally_ti+0.10_tf+0.50 rally_ti+0.10_tf+0.60 rally_ti+0.10_tf+0.70 rally_ti+0.10_tf+0.80 "
        "rally_ti+0.10_tf+0.90 rally_ti+0.10_tf+1.00 rally_ti+0.10_tf+1.10 rally_ti+0.10_tf+1.20 "
        "rally_ti+0.10_tf+1.30 rally_ti+0.10_tf+1.40 rally_ti+0.10_tf+1.50 rally_ti+0.10_tf+1.60 "
        "rally_ti+0.10_tf+1.70 rally_ti+0.10_tf+1.80 rally_ti+0.10_tf+1.90 rally_ti+0.10_tf+2.00 "
        "rally_ti+0.10_tf+2.10 rally_ti+0.10_tf+2.20 rally_ti+0.10_tf+2.30 rally_ti+0.10_tf+2.40 "
        "rally_ti+0.10_tf+2.50 rally_ti+0.10_tf+2.60 rally_ti+0.10_tf+2.70 rally_ti+0.10_tf+2.80 "
        "rally_ti+0.10_tf+2.90 rally_ti+0.10_tf+3.00",
        "0.1 0.1 0.1 0.1 0.1 0.1 0.1 0.1 0.1 0.1 0.1 0.1 0.1 0.1 0.1 0.1 0.1 0.1 0.1 0.1 0.1 0.1 0.1 0.1 0.1 "
        "0.1",
        "0.5 0.6 0.7 0.8 0.9 1.0 1.1 1.2 1.3 1.4 1.5 1.6 1.7 1.8 1.9 2.0 2.1 2.2 2.3 2.4 2.5 2.6 2.7 2.8 2.9 "
        "3.0",
    ),
}


def test_window_families():
    sb = 0.02
    assert WINDOW_FAMILIES == tuple(EXPECTED_FAMILIES)  # the --window choices, in order
    for name, (ids, theta_i, theta_f) in EXPECTED_FAMILIES.items():
        windows = window_family(name, sb)
        assert " ".join(w.window_id for w in windows) == ids, name
        # repr tells every double apart, 0.0 from -0.0 included
        assert " ".join(repr(w.theta_i) for w in windows) == theta_i, name
        assert " ".join(repr(w.theta_f) for w in windows) == theta_f, name
        assert {w.direction for w in windows} == {"crash" if name.startswith("fig1") else "rally"}
        assert all(w.sigma_bar == sb for w in windows)
    with pytest.raises(ValueError):
        window_family("fig9z", sb)
