import logging
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_ensemble, oracle_sigmas_and_sums
from volstab import returns
from volstab.returns import (
    Ensemble,
    MarketStats,
    load_prices,
    market_stats,
    read_returns_csv,
    to_returns,
    write_returns_csv,
    write_stats_json,
)


def _returns(ticker, prices):
    """The one series ``to_returns`` makes of ``prices``."""
    (rs,) = to_returns([ticker], prices, [0, len(prices)])
    return rs


def test_to_returns_hand_values():
    rs = _returns("a", [100, 102])
    assert rs.returns.tolist() == pytest.approx([0.02])
    rs = _returns("b", [100, 50, 100])
    assert rs.returns.tolist() == pytest.approx([-0.5, 1.0])


def test_to_returns_makes_no_return_across_series():
    ens = to_returns(["a", "b", "c"], [100, 102, 100, 50, 100, 7, 14], [0, 2, 5, 7])
    assert ens.tickers == ["a", "b", "c"]
    assert ens.offsets.tolist() == [0, 1, 3, 4]
    assert ens.values.tolist() == pytest.approx([0.02, -0.5, 1.0, 1.0])
    for rs, prices in zip(ens, ([100, 102], [100, 50, 100], [7, 14])):
        assert rs.sigma == _returns(rs.ticker, prices).sigma


def test_to_returns_constant_prices():
    rs = _returns("c", [70, 70, 70, 70])
    assert np.all(rs.returns == 0.0)
    assert rs.sigma == 0.0


def test_sigma_is_population_std_and_recomputable():
    rs = _returns("d", [100, 103, 99, 101, 104])
    expected = float(np.std(rs.returns))  # ddof=0
    assert math.isclose(rs.sigma, expected, rel_tol=1e-12)


def test_scale_invariance_of_returns():
    base = _returns("e", [100, 105, 95, 102])
    for k in (2.0, 0.5, 2.0**10):  # exact binary scalings: bit-identical
        scaled = _returns("e", [k * p for p in (100, 105, 95, 102)])
        assert np.array_equal(scaled.returns, base.returns)
        assert scaled.sigma == base.sigma
    inexact = _returns("e", [1.1 * p for p in (100, 105, 95, 102)])
    np.testing.assert_allclose(inexact.returns, base.returns, rtol=1e-12)


def test_market_stats_mean_and_permutation_invariance():
    # the population std of [s, -s] is s exactly
    series = [("a", [0.01, -0.01]), ("b", [0.03, -0.03])]
    stats = market_stats(make_ensemble(series))
    assert stats.sigma_bar == pytest.approx(0.02)
    assert stats.n_series == 2
    single = market_stats(make_ensemble(series[:1]))
    assert single.sigma_bar == 0.01

    rng = np.random.default_rng(8)
    many = [(f"t{i}", [s, -s]) for i, s in enumerate(rng.uniform(0.001, 0.1, 50))]
    forward = market_stats(make_ensemble(many))
    assert forward.sigma_bar == math.fsum(s for _, (s, _) in many) / 50
    shuffled = list(many)
    rng.shuffle(shuffled)
    assert market_stats(make_ensemble(shuffled)).sigma_bar == forward.sigma_bar  # exact summation


def test_market_stats_rejects_empty_and_duplicates():
    with pytest.raises(ValueError, match="no return series"):
        market_stats(make_ensemble([]))
    with pytest.raises(ValueError, match="duplicate ticker 'x'"):
        market_stats(make_ensemble([("x", [0.1]), ("x", [0.1])]))


def test_price_series_validation(tmp_path):
    with pytest.raises(ValueError):
        _returns("p", [100])  # too short
    with pytest.raises(ValueError):
        _returns("p", [100, -3])
    f = tmp_path / "p.csv"
    f.write_text("date,close\n2020-01-02,1.0\n2020-01-01,2.0\n")
    with pytest.raises(ValueError):
        load_prices(f)


def test_load_prices_per_stock_file(tmp_path):
    f = tmp_path / "abc.csv"
    f.write_text("date,close\n2020-01-01,100\n2020-01-02,102\n")
    tickers, prices, offsets = load_prices(f)
    assert tickers == ["abc"]
    assert prices.tolist() == [100.0, 102.0]
    assert offsets.tolist() == [0, 2]


def test_load_prices_directory_and_skip_short(tmp_path, caplog):
    (tmp_path / "aa.csv").write_text("date,close\n2020-01-01,10\n2020-01-02,11\n2020-01-03,12\n")
    (tmp_path / "bb.csv").write_text("date,close\n2020-01-01,5\n")
    with caplog.at_level(logging.WARNING):
        tickers, _, _ = load_prices(tmp_path)
    assert tickers == ["aa"]
    assert any("bb" in rec.message and "skipped" in rec.message for rec in caplog.records)


def test_load_prices_drops_bad_rows_with_warning(tmp_path, caplog):
    f = tmp_path / "cc.csv"
    f.write_text("date,close\n2020-01-01,10\n2020-01-02,\n2020-01-03,-4\n2020-01-04,11\n")
    with caplog.at_level(logging.WARNING):
        _, prices, _ = load_prices(f)
    assert prices.tolist() == [10.0, 11.0]
    assert any("dropped 2" in rec.message for rec in caplog.records)


def test_load_prices_non_numeric_cell_is_an_error(tmp_path):
    f = tmp_path / "dd.csv"
    f.write_text("date,close\n2020-01-01,10\n2020-01-02,oops\n")
    with pytest.raises(ValueError, match=r"line 3.*close.*oops"):
        load_prices(f)


def test_load_prices_empty_file_and_missing_path(tmp_path):
    f = tmp_path / "ee.csv"
    f.write_text("")
    with pytest.raises(ValueError, match="expected header 'date,close', got ''"):
        load_prices(f)
    with pytest.raises(ValueError):
        load_prices(tmp_path / "nope.csv")


def test_load_prices_wide_matrix(tmp_path):
    f = tmp_path / "wide.csv"
    f.write_text(
        "date,aa,bb,cc\n"
        "2020-01-01,10,20,30\n"
        "2020-01-02,11,21,31\n"
        "2020-01-03,12,22,32\n"
        "2020-01-04,13,23,33\n"
        "2020-01-05,14,24,34\n"
    )
    tickers, prices, offsets = load_prices(f, layout="wide")
    assert tickers == ["aa", "bb", "cc"]
    assert np.diff(offsets).tolist() == [5, 5, 5]
    assert prices[offsets[1] : offsets[2]].tolist() == [20.0, 21.0, 22.0, 23.0, 24.0]


def test_load_prices_wide_gap_closed_across_missing_day(tmp_path):
    f = tmp_path / "wide.csv"
    f.write_text("date,aa,bb\n2020-01-01,10,20\n2020-01-02,,21\n2020-01-03,12,22\n")
    tickers, prices, offsets = load_prices(f, layout="wide")
    # the missing day is dropped; the return spans the gap
    assert prices[: offsets[1]].tolist() == [10.0, 12.0]
    assert to_returns(tickers, prices, offsets)[0].returns.tolist() == pytest.approx([0.2])


# Price files in forms beyond the plain one: a name, the layout, the file's
# bytes, and either the (tickers, prices, rows dropped per ticker[, tickers
# skipped]) it loads as or the error it raises.  Every price is read as
# Python's float() reads bytes.
PRICE_FORMS = [
    ("header with another case and column", "per-stock",
     b"Date,Close,Volume\n2020-01-01,10,500\n2020-01-02,11,600\n", (["f"], [10.0, 11.0], {})),
    ("nan and inf are missing", "per-stock",
     b"date,close\n2020-01-01,10\n2020-01-02,nan\n2020-01-03,inf\n2020-01-04,-inf\n2020-01-05,1e400\n2020-01-06,11\n",
     (["f"], [10.0, 11.0], {"f": 4})),
    ("digits with _ and blanks around", "per-stock", b"date,close\n2020-01-01,1_0\n2020-01-02, 4 \n",
     (["f"], [10.0, 4.0], {})),
    ("whitespace-only cells and lines", "per-stock",
     b"date,close\n2020-01-01,10\n2020-01-02,  \n   \n \t, \n2020-01-03,11\n", (["f"], [10.0, 11.0], {"f": 1})),
    ("CRLF line ends", "per-stock", b"date,close\r\n2020-01-01,10\r\n2020-01-02,11\r\n", (["f"], [10.0, 11.0], {})),
    ("CR line ends", "wide", b"date,aa,bb\r2020-01-01,10,\r2020-01-02,11,3\r2020-01-03,12,4\r",
     (["aa", "bb"], [10.0, 11.0, 12.0, 3.0, 4.0], {"bb": 1})),
    ("non-ASCII tickers", "wide", "date,é,日本, xà\n2020-01-01,1,2,3\n2020-01-02,2,3,4\n".encode(),
     (["é", "日本", "xà"], [1.0, 2.0, 2.0, 3.0, 3.0, 4.0], {})),
    ("wide row shorter than the header", "wide", b"date,aa,bb\n2020-01-01,1,2\n2020-01-02,3\n",
     "line 3: expected 3 columns, got 2"),
    ("row longer than the header", "per-stock", b"date,close\n2020-01-01,1,\n2020-01-02,2\n",
     "line 2: expected 2 columns, got 3"),
    ("decreasing dates", "per-stock", b"date,close\n2020-01-02,1\n2020-01-01,2\n",
     "line 3: dates must be strictly increasing, got '2020-01-01' after '2020-01-02'"),
    ("dates that are not ISO dates", "per-stock", b"date,close\n1/9/2020,1\n1/10/2020,2\n",
     "line 3: dates must be strictly increasing, got '1/10/2020' after '1/9/2020'; dates are compared as "
     "text and must be zero-padded ISO dates (YYYY-MM-DD)"),
    ("date out of order on a row without a price", "per-stock",
     b"date,close\n2020-01-02,1\n2020-01-01,\n2020-01-03,2\n", "line 3: dates must be strictly increasing"),
    ("non-UTF-8 ticker", "wide", b"date,a\xff\n2020-01-01,1\n2020-01-02,2\n",
     "line 1: a ticker is not UTF-8: 'date,a\\\\xff'"),
    ("quoted price", "per-stock", b'date,close\n2020-01-01,"10"\n2020-01-02,11\n',
     "line 2, column 'close': not a number: '\"10\"'"),
    ("quoted header", "per-stock", b'"date","close"\n2020-01-01,10\n', "expected header 'date,close'"),
    ("no-break space around a price", "per-stock", "date,close\n2020-01-01,\u00a010\n".encode(),
     "line 2, column 'close': not a number: '\\xa010'"),
    ("bad cell of a wide file", "wide", b"date,aa,bb\n2020-01-01,10,1\n2020-01-02,11,x y\n",
     "line 3, column 'bb': not a number: 'x y'"),
    # a lone 0xA0 or 0x85 byte is no blank: only ASCII blanks are stripped from a cell's bytes
    ("price ending in a lone 0xA0 byte", "per-stock", b"date,close\n2020-01-01,1.6\xa0\n2020-01-02,2\n",
     "line 2, column 'close': not a number: '1.6\\\\xa0'"),
    ("price ending in a lone 0x85 byte", "per-stock", b"date,close\n2020-01-01,1.6\x85\n2020-01-02,2\n",
     "line 2, column 'close': not a number: '1.6\\\\x85'"),
    ("date ending in a lone 0xA0 byte", "per-stock", b"date,close\n2020-01-01,10\n2020-01-01\xa0,11\n",
     (["f"], [10.0, 11.0], {})),
    ("date ending in a lone 0x85 byte", "per-stock", b"date,close\n2020-01-02\x85,10\n2020-01-01,11\n",
     "line 3: dates must be strictly increasing, got '2020-01-01' after '2020-01-02\\\\x85'"),
    # a file with no data line holds empty columns, and each ticker is skipped
    ("header only", "per-stock", b"date,close\n", ([], [], {}, ["f"])),
    ("blank lines only", "per-stock", b"date,close\n\n  \n\n", ([], [], {}, ["f"])),
    ("wide header only", "wide", b"date,aa,bb\n", ([], [], {}, ["aa", "bb"])),
]


@pytest.mark.filterwarnings("error")  # no numpy warning on the way
@pytest.mark.parametrize("layout, body, want", [row[1:] for row in PRICE_FORMS], ids=[row[0] for row in PRICE_FORMS])
def test_price_forms(tmp_path, caplog, layout, body, want):
    f = tmp_path / "f.csv"
    f.write_bytes(body)
    if isinstance(want, str):
        with pytest.raises(ValueError) as exc:
            load_prices(f, layout)
        assert str(exc.value).startswith(f"{f}: {want}"), str(exc.value)
        return
    with caplog.at_level(logging.WARNING):
        tickers, prices, offsets = load_prices(f, layout)
    assert (tickers, prices.tolist()) == tuple(want[:2])
    assert [rec.getMessage() for rec in caplog.records] == [
        f"{ticker}: dropped {n} rows with missing or non-positive prices" for ticker, n in want[2].items()
    ] + [f"{ticker}: skipped, fewer than 2 valid prices" for ticker in (want[3] if len(want) > 3 else [])]


def test_returns_csv_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    ens = make_ensemble([("aa", rng.normal(0, 0.02, 37)), ("bb", rng.normal(0, 0.05, 11))])
    path = tmp_path / "returns.csv"
    write_returns_csv(ens, path)
    back = read_returns_csv(path)
    assert [rs.ticker for rs in back] == ["aa", "bb"]
    for orig, rs in zip(ens, back):
        assert np.array_equal(orig.returns, rs.returns)  # repr round-trip is exact
        assert rs.sigma == orig.sigma


def test_read_returns_csv_groups_rows_and_keeps_long_tickers(tmp_path):
    long = "L" * 100  # a cell comes back whole, however long
    path = tmp_path / "returns.csv"
    path.write_text(
        "ticker,day_index,return\n"
        f"{long},0,0.5\nb,0,-0.25\n\n{long},1,0.125\nb,1,1e-300\n  \nb,2,-0.0\n",
        encoding="utf-8",
    )
    ens = read_returns_csv(path)
    assert ens.tickers == [long, "b"]
    assert ens.offsets.tolist() == [0, 2, 5]
    assert ens.values.tolist() == [0.5, 0.125, -0.25, 1e-300, -0.0]
    assert [rs.sigma for rs in ens] == [float(np.std(ens.values[:2])), float(np.std(ens.values[2:]))]


@pytest.mark.filterwarnings("error")  # np.std would warn on non-finite input
def test_non_finite_returns_raise_before_any_numpy_warning():
    for bad in ([0.1, np.inf], [np.nan, 0.2], [-np.inf]):
        with pytest.raises(ValueError, match="x: returns contain non-finite values"):
            Ensemble(["x"], bad, [0, len(bad)])
        with pytest.raises(ValueError, match="y: returns contain non-finite values"):
            Ensemble(["w", "y"], [0.0, *bad], [0, 1, 1 + len(bad)])


@pytest.mark.filterwarnings("error")  # np.std warns when a square or a sum overflows
def test_returns_whose_standard_deviation_overflows_raise_without_a_numpy_warning():
    # the squares overflow; the sum overflows; numpy's pairwise sum of eight adds inf to -inf
    for bad in ([1e200, -1e200], [1.5e308, 1.5e308, -1e308], [1e308, 1e308, -1e308, -1e308, 0, 0, 0, 0]):
        with pytest.raises(ValueError, match="^y: returns too large, their standard deviation overflows$"):
            Ensemble(["w", "y", "z"], [0.0, *bad, 0.0], [0, 1, 1 + len(bad), 2 + len(bad)])


@pytest.mark.filterwarnings("error")  # a quotient that overflows would warn
def test_to_returns_reports_an_overflowed_return_without_a_numpy_warning():
    with pytest.raises(ValueError, match="^p: returns contain non-finite values$"):
        to_returns(["p"], [1e-300, 1e300, 5], [0, 3])


def test_ensemble_is_a_flat_view_of_its_series():
    rng = np.random.default_rng(11)
    series = [(f"s{i}", rng.normal(0, 0.02, n)) for i, n in enumerate((1, 7, 30))]
    ens = make_ensemble(series)
    assert len(ens) == 3 and np.diff(ens.offsets).tolist() == [1, 7, 30]
    for (ticker, r), rs in zip(series, ens):
        assert rs.ticker == ticker
        assert np.array_equal(rs.returns, r)
        assert rs.sigma == np.std(r)  # sigmas come from the values
    assert ens[-1].ticker == "s2"
    with pytest.raises(TypeError):
        Ensemble(ens.tickers, ens.values, ens.offsets, sigmas=ens.sigmas)
    s1, s2 = ens.prefix_sums()
    for i, (_, r) in enumerate(series):
        lo, hi = ens.offsets[i] + i, ens.offsets[i + 1] + i + 1
        assert s1[lo] == s2[lo] == 0.0
        assert np.array_equal(s1[lo + 1 : hi], np.cumsum(r))
        assert np.array_equal(s2[lo + 1 : hi], np.cumsum(r * r))
    assert ens.prefix_sums()[0] is s1  # built once


# Series lengths: short ones, among them 1 and 2, and lengths about and
# above the 2**16 values one reduction call may take, so that a run of two
# or three such series is cut into blocks or is one series per block.
SERIES_LENGTHS = st.one_of(
    st.integers(1, 40), st.sampled_from([2**12, 2**15 - 1, 2**15, 2**15 + 1, 2**16, 2**16 + 1])
)


@settings(max_examples=60, deadline=None)
@given(
    runs=st.lists(st.tuples(SERIES_LENGTHS, st.integers(1, 5)), min_size=1, max_size=6),
    # the real block size, and small ones that runs of short series cross
    block_values=st.sampled_from([returns._BLOCK_VALUES, 1, 2, 7, 64]),
    seed=st.integers(0, 2**32 - 1),
)
def test_ensemble_reductions_are_bit_identical_to_per_series_calls(runs, block_values, seed):
    lengths = [length for length, count in runs for _ in range(count)]
    rng = np.random.default_rng(seed)
    # magnitudes over 17 decades, so that any other summation order shows
    values = rng.standard_normal(sum(lengths)) * np.exp(rng.uniform(-20, 20, sum(lengths)))
    with mock.patch.object(returns, "_BLOCK_VALUES", block_values):
        ensemble = Ensemble([f"s{i}" for i in range(len(lengths))], values, np.cumsum([0, *lengths]))
        s1, s2 = ensemble.prefix_sums()
        blocks = list(ensemble._blocks())
    # the blocks cover the series in order, and one is above the cap only when it is one series
    assert [i for i, m, _ in blocks] == np.cumsum([0] + [m for _, m, _ in blocks])[:-1].tolist()
    assert [n for _, m, length in blocks for n in [length] * m] == lengths
    assert all(m * length <= block_values or m == 1 for _, m, length in blocks)
    sigmas, want1, want2 = oracle_sigmas_and_sums(ensemble)
    assert ensemble.sigmas.tobytes() == sigmas.tobytes()
    assert s1.tobytes() == want1.tobytes()
    assert s2.tobytes() == want2.tobytes()


def test_ensemble_rejects_bad_offsets_and_duplicates():
    with pytest.raises(ValueError, match="offsets"):
        Ensemble(["a", "b"], [0.1, 0.2], [0, 2, 2])  # an empty series
    with pytest.raises(ValueError, match="offsets"):
        Ensemble(["a"], [0.1, 0.2], [0, 1])  # a value left over
    with pytest.raises(ValueError, match="duplicate ticker 'a'"):
        Ensemble(["a", "a"], [0.1, 0.2], [0, 1, 2])


def test_stats_json_schema(tmp_path):
    stats = MarketStats(n_series=2, sigma_bar=0.02, per_series_sigma={"a": 0.01, "b": 0.03})
    path = tmp_path / "stats.json"
    write_stats_json(stats, path)
    import json

    payload = json.loads(path.read_text())
    assert payload == {
        "n_series": 2,
        "sigma_bar": 0.02,
        "per_series_sigma": {"a": 0.01, "b": 0.03},
    }
