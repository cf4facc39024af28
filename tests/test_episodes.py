import numpy as np
import pytest

from helpers import assert_episodes_match, oracle_episodes, random_windows
from volstab.episodes import VOL_SCOPES, ThresholdWindow, extract_table, window_family
from volstab.returns import ReturnSeries


def _series(values, ticker="t"):
    return ReturnSeries.from_returns(ticker, np.asarray(values, dtype=float))


def _scan(rs, window, **kwargs):
    """Episodes of one series, as a one-series table."""
    return extract_table([rs], window, **kwargs)


def _pairs(table):
    return list(zip(table.start_index.tolist(), table.fht.tolist()))


FIG1A = ThresholdWindow(-0.1, -1.5, 0.02, "crash")  # thresholds -0.002 / -0.03


def test_window_validation_and_ids():
    with pytest.raises(ValueError):
        ThresholdWindow(-1.5, -0.1, 0.02, "crash")
    with pytest.raises(ValueError):
        ThresholdWindow(0.1, -1.5, 0.02, "rally")
    with pytest.raises(ValueError):
        ThresholdWindow(-0.1, -1.5, 0.0, "crash")
    with pytest.raises(ValueError):
        ThresholdWindow(-0.1, -1.5, 0.02, "sideways")
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
    rally = ThresholdWindow(+0.1, +1.5, 0.02, "rally")
    mirrored = _scan(_series([-v for v in values]), rally)
    assert _pairs(mirrored) == _pairs(crash)
    assert mirrored.volatility.tolist() == crash.volatility.tolist()


def test_sign_symmetry_random():
    rng = np.random.default_rng(17)
    rally = ThresholdWindow(+0.1, +1.5, 0.02, "rally")
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
    table = extract_table(series, FIG1A)
    parts = [_scan(rs, FIG1A) for rs in series]
    assert sum(len(p) for p in parts) == len(table) > 0
    assert table.tickers == [rs.ticker for rs, p in zip(series, parts) for _ in range(len(p))]
    assert table.start_index.tolist() == [s for p in parts for s in p.start_index.tolist()]
    assert table.fht.tolist() == [f for p in parts for f in p.fht.tolist()]
    np.testing.assert_array_equal(table.volatility, np.concatenate([p.volatility for p in parts]))


def test_deeper_final_threshold_never_gains_episodes():
    rng = np.random.default_rng(12)
    sigma_bar = 0.02
    shallow = ThresholdWindow(-0.1, -0.5, sigma_bar, "crash")
    deep = ThresholdWindow(-0.1, -3.0, sigma_bar, "crash")
    total_shallow = total_deep = 0
    for _ in range(100):
        r = rng.uniform(-3 * sigma_bar, 3 * sigma_bar, size=50)
        rs = _series(r)
        total_shallow += len(_scan(rs, shallow))
        total_deep += len(_scan(rs, deep))
    assert total_shallow >= total_deep
    assert total_shallow > 0


def test_window_families():
    sb = 0.02
    fig1a = window_family("fig1a", sb)
    assert len(fig1a) == 1 and fig1a[0].direction == "crash"
    fig2a = window_family("fig2a", sb)
    assert fig2a[0].theta_i == pytest.approx(0.1) and fig2a[0].theta_f == pytest.approx(1.5)

    fig1b = window_family("fig1b", sb)
    assert len(fig1b) == 26
    assert fig1b[0].theta_i == pytest.approx(0.9) and fig1b[0].theta_f == pytest.approx(-0.5)
    assert fig1b[-1].theta_i == pytest.approx(-1.6) and fig1b[-1].theta_f == pytest.approx(-3.0)
    for w in fig1b:
        assert w.theta_f - w.theta_i == pytest.approx(-1.4)

    fig1c = window_family("fig1c", sb)
    assert len(fig1c) == 26
    assert all(w.theta_i == pytest.approx(-0.1) for w in fig1c)
    assert fig1c[0].theta_f == pytest.approx(-0.5) and fig1c[-1].theta_f == pytest.approx(-3.0)

    fig2b = window_family("fig2b", sb)
    assert [w.direction for w in fig2b] == ["rally"] * 26
    assert fig2b[0].theta_i == pytest.approx(-0.9) and fig2b[-1].theta_f == pytest.approx(3.0)
    fig2c = window_family("fig2c", sb)
    assert all(w.theta_i == pytest.approx(0.1) for w in fig2c)

    with pytest.raises(ValueError):
        window_family("fig9z", sb)
