import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import volstab
from volstab.cli import (
    DEFAULT_CONFIG,
    EXIT_CONFIG,
    EXIT_EMPTY,
    EXIT_INPUT,
    load_config_file,
    main,
)
from volstab.episodes import read_episodes_csv
from volstab.returns import read_returns_csv
from volstab.stats import read_curve_csv


def run(*argv):
    return main(list(argv))


def test_config_file_parsing_and_overrides(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nm = 4\nb = 0.02\nseed = 77\ndays = 10\nn_series = 2\n")
    values = load_config_file(cfg)
    assert values == {"m": 4.0, "b": 0.02, "seed": 77, "days": 10, "n_series": 2}

    out = tmp_path / "out"
    rc = run("simulate", "--config", str(cfg), "--seed", "99", "--out", str(out))
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["m"] == 4.0  # from file
    assert manifest["config"]["seed"] == 99  # flag beats file
    assert manifest["config"]["a"] == DEFAULT_CONFIG["a"]  # default
    assert manifest["subcommand"] == "simulate"
    assert manifest["sigma_bar"] > 0


def test_config_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("volatility = 1\n")
    assert run("simulate", "--config", str(bad), "--out", str(tmp_path / "o")) == EXIT_CONFIG
    bad.write_text("m 2\n")
    assert run("simulate", "--config", str(bad), "--out", str(tmp_path / "o")) == EXIT_CONFIG
    bad.write_text("m = fast\n")
    assert run("simulate", "--config", str(bad), "--out", str(tmp_path / "o")) == EXIT_CONFIG
    assert run("simulate", "--config", str(tmp_path / "nope.cfg")) == EXIT_CONFIG


def test_invalid_parameter_exits_with_config_error(tmp_path):
    assert run("simulate", "--dt", "-1", "--out", str(tmp_path / "o")) == EXIT_CONFIG


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """A returns file, the episode file analyze makes of it, and a file of flat series."""
    d = tmp_path_factory.mktemp("inputs")
    rng = np.random.default_rng(8)
    returns = _write_returns(d, [(f"s{i}", rng.uniform(-0.06, 0.06, 300)) for i in range(4)])
    flat = _write_returns(d, [(f"z{i}", [0.0] * 4) for i in range(2)], name="flat.csv")
    assert run(
        "analyze", "--returns", str(returns), "--window", "fig1a",
        "--sigma-bar", "0.02", "--out", str(d / "an"),
    ) == 0
    return {
        "returns": str(returns),
        "episodes": str(d / "an" / "episodes.csv"),
        "flat": str(flat),
    }


# A bad value, the exit code it ends in, and a word its error names.
BAD_VALUES = [
    (["acf", "--returns", "{returns}", "--max-lag", "-1"], EXIT_CONFIG, "--max-lag"),
    (["fht-pdf", "--episodes", "{episodes}", "--bins", "0"], EXIT_CONFIG, "--bins"),
    (["mfht", "--episodes", "{episodes}", "--min-count", "0"], EXIT_CONFIG, "--min-count"),
    (["simulate", "--n-series", "2", "--days", "5", "--seed", "-1"], EXIT_CONFIG, "seed"),
    (["analyze", "--returns", "{returns}", "--seed", "-1"], EXIT_CONFIG, "seed"),
    (["analyze", "--returns", "{returns}", "--bins", "0"], EXIT_CONFIG, "--bins"),
    (["analyze", "--returns", "{returns}", "--bins", "-3"], EXIT_CONFIG, "--bins"),
    (["analyze", "--returns", "{returns}", "--min-count", "-1"], EXIT_CONFIG, "--min-count"),
    (["analyze", "--returns", "{returns}", "--sigma-bar", "0"], EXIT_CONFIG, "sigma_bar"),
    (["analyze", "--returns", "{flat}"], EXIT_INPUT, "{flat}"),
    (["acf", "--returns", "{flat}", "--max-lag", "1"], EXIT_INPUT, "error: {flat}: series 'z0': zero-variance"),
    (["acf", "--returns", "{returns}", "--max-lag", "400"], EXIT_INPUT, "error: {returns}: series 's0'"),
    (["simulate", "--n-series", "2", "--days", "5", "--threads", "0"], EXIT_CONFIG, "--threads"),
    (["simulate", "--n-series", "2", "--days", "5", "--threads", "-5"], EXIT_CONFIG, "--threads"),
    (["simulate", "--n-series", "3", "--days", "50", "--dt", "1"], EXIT_CONFIG, "lower dt"),
]


@pytest.mark.parametrize(
    "argv, code, needle",
    BAD_VALUES,
    ids=[" ".join(a for a in argv if "{" not in a) for argv, _, _ in BAD_VALUES],
)
def test_bad_numeric_value_is_one_line_config_error(
    valid_inputs, tmp_path, capsys, argv, code, needle
):
    out = tmp_path / "o"
    rc = run(*[a.format(**valid_inputs) for a in argv], "--out", str(out))
    err = capsys.readouterr().err
    assert rc == code
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert needle.format(**valid_inputs) in err, err
    assert not out.exists()  # a failed run leaves no output directory behind


RETURNS_HEADER = "ticker,day_index,return\n"
EPISODE = [0.001, -0.003, -0.010, -0.035, 0.004]  # one fig1a crash episode at sigma_bar 0.02


def _rows(ticker, values):
    return "".join(f"{ticker},{d},{v!r}\n" for d, v in enumerate(values))


# A malformed returns file body, the file line its error names (None when
# the fault has no line), and a word the error must contain.
MALFORMED_RETURNS = [
    ("bad float", "aa,0,0.1\naa,1,x\n", 3, "'x'"),
    ("bad int", "aa,0,0.1\naa,1.5,0.2\n", 3, "'1.5'"),
    ("int with underscore", "aa,0,0.1\naa,1_0,0.2\n", 3, "'1_0'"),
    ("float with underscore", "aa,0,0_1\n", 2, "'0_1'"),
    ("int64 overflow", "aa,0,0.1\naa,99999999999999999999,0.2\n", 3, "day_index"),
    ("empty day_index", "aa,0,0.1\n \naa,,0.2\n", 4, "day_index"),
    ("inf", "aa,0,0.1\naa,1,inf\n", 3, "'aa'"),
    ("nan", "aa,0,0.1\n\naa,1,nan\n", 4, "'aa'"),
    ("2 columns", "aa,0,0.1\naa,1\n", 3, "columns"),
    ("4 columns", "aa,0,0.1\naa,1,0.2,0.3\n", 3, "columns"),
    ("day_index gap", "aa,0,0.1\naa,2,0.2\n", 3, "day_index"),
    ("interleaved day_index gap", "bb,0,0.1\naa,0,0.1\nbb,1,0.2\naa,2,0.2\n", 5, "'aa'"),
    ("header only", "", None, "no return rows"),
]


@pytest.mark.filterwarnings("error")  # a numpy warning ahead of the error fails the row
@pytest.mark.parametrize("sub", ["analyze", "acf"])
@pytest.mark.parametrize(
    "body, line, needle", [row[1:] for row in MALFORMED_RETURNS], ids=[row[0] for row in MALFORMED_RETURNS]
)
def test_malformed_returns_csv_is_one_line_input_error(tmp_path, capsys, sub, body, line, needle):
    path = tmp_path / "returns.csv"
    path.write_text(RETURNS_HEADER + body)
    out = tmp_path / "o"
    rc = run(sub, "--returns", str(path), "--out", str(out))
    err = capsys.readouterr().err
    assert rc == EXIT_INPUT
    assert err.count("\n") == 1, err
    where = f"error: {path}: " if line is None else f"error: {path}: line {line}: "
    assert err.startswith(where) and needle in err, err
    assert not out.exists()


EPISODES_HEADER = "ticker,window_id,theta_i,theta_f,start_index,fht,volatility\n"
FIG1A = "crash_ti-0.10_tf-1.50,-0.1,-1.5"
FIG1A_ROW = f"aa,{FIG1A},3,4,0.02\n"

# A malformed episodes file body, the file line its error names, and a
# word the error must contain.
MALFORMED_EPISODES = [
    ("6 fields", FIG1A_ROW + f"aa,{FIG1A},3,4\n", 3, "expected 7 fields, got 6"),
    ("8 fields", FIG1A_ROW + f"aa,{FIG1A},3,4,0.02,1\n", 3, "got 8"),
    ("bad start_index", f"aa,{FIG1A},x,4,0.02\n", 2, "start_index is not an integer: 'x'"),
    ("fractional fht", FIG1A_ROW + f"aa,{FIG1A},3,1.5,0.02\n", 3, "fht is not an integer: '1.5'"),
    ("bad volatility", f"aa,{FIG1A},3,4,vol\n", 2, "volatility is not a number: 'vol'"),
    ("bad theta_i", "aa,crash_ti-0.10_tf-1.50,-0.1x,-1.5,3,4,0.02\n", 2, "theta_i is not a number"),
    (
        "thetas differ within a window",
        FIG1A_ROW + "bb,crash_ti-0.10_tf-1.50,-0.2,-1.5,3,4,0.02\n",
        3,
        "differ from -0.1, -1.5 on line 2",
    ),
    ("negative start_index", FIG1A_ROW + f"aa,{FIG1A},-3,0,0.02\n", 3, "start_index -3 is negative"),
    ("zero fht", f"aa,{FIG1A},3,0,0.02\n", 2, "fht 0 is below 1"),
    ("equal thetas", FIG1A_ROW + "aa,w,0.5,0.5,3,4,0.02\n", 3, "window 'w'"),
]


@pytest.mark.parametrize("sub", ["mfht", "fht-pdf"])
@pytest.mark.parametrize(
    "body, line, needle", [row[1:] for row in MALFORMED_EPISODES], ids=[row[0] for row in MALFORMED_EPISODES]
)
def test_malformed_episodes_csv_is_one_line_input_error(tmp_path, capsys, sub, body, line, needle):
    path = tmp_path / "episodes.csv"
    path.write_text(EPISODES_HEADER + body)
    out = tmp_path / "o"
    rc = run(sub, "--episodes", str(path), "--out", str(out))
    err = capsys.readouterr().err
    assert rc == EXIT_INPUT
    assert err.count("\n") == 1, err
    assert err.startswith(f"error: {path}: line {line}: ") and needle in err, err
    assert not out.exists()


CURVE_HEADER = "bin_lo,bin_hi,mfht,count\n"
CURVE_ROWS = "0.001,0.002,5.0,10\n0.002,0.003,,0\n"

MALFORMED_CURVES = [
    ("3 fields", CURVE_ROWS + "0.003,0.004,5.0\n", 4, "expected 4 columns, got 3"),
    ("bad bin_lo", "x,0.002,5.0,10\n", 2, "bin_lo is not a number: 'x'"),
    ("bad bin_hi", "0.001,0.00.2,5.0,10\n", 2, "bin_hi is not a number: '0.00.2'"),
    ("bad mfht", CURVE_ROWS + "0.003,0.004,x,10\n", 4, "mfht is not a number: 'x'"),
    ("fractional count", "0.001,0.002,5.0,1.5\n", 2, "count is not an integer: '1.5'"),
]


@pytest.mark.parametrize(
    "body, line, needle", [row[1:] for row in MALFORMED_CURVES], ids=[row[0] for row in MALFORMED_CURVES]
)
def test_malformed_curve_csv_is_one_line_input_error(tmp_path, capsys, body, line, needle):
    good = tmp_path / "good.csv"
    good.write_text(CURVE_HEADER + CURVE_ROWS)
    path = tmp_path / "curve.csv"
    path.write_text(CURVE_HEADER + body)
    out = tmp_path / "o"
    rc = run("compare", "--empirical", str(good), "--model", str(path), "--out", str(out))
    err = capsys.readouterr().err
    assert rc == EXIT_INPUT
    assert err.count("\n") == 1, err
    assert err.startswith(f"error: {path}: line {line}: ") and needle in err, err
    assert not out.exists()


def test_episode_thetas_of_equal_value_are_one_window(tmp_path):
    path = tmp_path / "episodes.csv"
    path.write_text(EPISODES_HEADER + FIG1A_ROW + "bb,crash_ti-0.10_tf-1.50,-0.10,-1.50,5,2,0.03\n")
    (table,) = read_episodes_csv(path)
    assert (table.window.theta_i, table.window.theta_f) == (-0.1, -1.5)
    assert table.tickers == ["aa", "bb"] and table.fht.tolist() == [4, 2]


def test_fractional_day_index_is_refused_with_deprecation_warnings_hidden(tmp_path):
    """Some numpy releases read "1.5" as day 1 with only a DeprecationWarning.

    The CLI runs in a fresh interpreter that ignores DeprecationWarning
    outright, so the refusal cannot hinge on a test's warning filters.
    """
    path = tmp_path / "returns.csv"
    path.write_text(RETURNS_HEADER + "aa,0,0.1\naa,1.0,0.2\naa,1.5,0.3\n")
    src = str(Path(volstab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [
            sys.executable, "-W", "ignore::DeprecationWarning", "-c",
            "import sys; from volstab.cli import main; sys.exit(main(sys.argv[1:]))",
            "acf", "--returns", str(path), "--out", str(tmp_path / "o"),
        ],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == EXIT_INPUT, proc.stderr
    assert proc.stderr == f"error: {path}: line 3: day_index is not a number: '1.0'\n"


# Returns file bodies that must be accepted, and the tickers of the
# episodes analyze finds in them, in order.
ACCEPTED_RETURNS = [
    ("40-character ticker", _rows("T" * 40, EPISODE), ["T" * 40]),
    ("non-ASCII ticker", _rows("Société€", EPISODE), ["Société€"]),
    ("whitespace-only lines", " \n" + _rows("aa", EPISODE).replace("\n", "\n\t \n\n"), ["aa"]),
    (
        "interleaved tickers",
        "".join(a + b for a, b in zip(_rows("bb", EPISODE).splitlines(True), _rows("aa", EPISODE).splitlines(True))),
        ["bb", "aa"],
    ),
]


@pytest.mark.parametrize(
    "body, tickers", [row[1:] for row in ACCEPTED_RETURNS], ids=[row[0] for row in ACCEPTED_RETURNS]
)
def test_returns_csv_layouts_that_are_accepted(tmp_path, body, tickers):
    path = tmp_path / "returns.csv"
    path.write_text(RETURNS_HEADER + body, encoding="utf-8")
    out = tmp_path / "an"
    rc = run(
        "analyze", "--returns", str(path), "--window", "fig1a", "--sigma-bar", "0.02",
        "--out", str(out),
    )
    assert rc == 0
    rows = (out / "episodes.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == tickers
    assert all(r.split(",")[4:6] == ["1", "2"] for r in rows)


def test_config_seed_threads_only_on_subcommands_that_read_them(capsys):
    expected = {
        "simulate": {"--config", "--seed", "--threads"},
        "analyze": {"--config", "--seed"},
        "mfht": set(),
        "fht-pdf": set(),
        "acf": set(),
        "compare": set(),
    }
    for sub, flags in expected.items():
        with pytest.raises(SystemExit):
            run(sub, "--help")
        text = capsys.readouterr().out
        assert {f for f in ("--config", "--seed", "--threads") if f in text} == flags, sub


def test_simulate_writes_returns_stats_manifest(tmp_path):
    out = tmp_path / "sim"
    rc = run("simulate", "--n-series", "4", "--days", "120", "--seed", "5", "--out", str(out))
    assert rc == 0
    series = read_returns_csv(out / "returns.csv")
    assert len(series) == 4
    assert all(rs.returns.size == 120 for rs in series)
    stats = json.loads((out / "stats.json").read_text())
    assert stats["n_series"] == 4
    assert stats["sigma_bar"] == pytest.approx(
        np.mean([rs.sigma for rs in series]), rel=1e-12
    )
    assert not (out / "trajectories.csv").exists()


def test_simulate_days_zero_single_state_row(tmp_path):
    out = tmp_path / "sim0"
    rc = run("simulate", "--n-series", "1", "--days", "0", "--seed", "3", "--out", str(out))
    assert rc == 0
    rows = (out / "trajectories.csv").read_text().strip().splitlines()
    assert rows[0] == "series,day,x,v"
    assert len(rows) == 2
    assert rows[1].startswith("0,0,")


def test_simulate_trajectory_export(tmp_path):
    out = tmp_path / "simt"
    rc = run(
        "simulate", "--n-series", "2", "--days", "5", "--seed", "3",
        "--write-trajectories", "--out", str(out),
    )
    assert rc == 0
    rows = (out / "trajectories.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 2 * 6  # header + (days+1) rows per series


def test_simulate_threads_do_not_change_output(tmp_path):
    out1 = tmp_path / "t1"
    out4 = tmp_path / "t4"
    base = ["simulate", "--n-series", "9", "--days", "50", "--seed", "13"]
    assert run(*base, "--threads", "1", "--out", str(out1)) == 0
    assert run(*base, "--threads", "4", "--out", str(out4)) == 0
    assert (out1 / "returns.csv").read_bytes() == (out4 / "returns.csv").read_bytes()
    out64 = tmp_path / "t64"  # more threads than series or CPUs: the pool is capped
    assert run(*base, "--threads", "64", "--out", str(out64)) == 0
    assert (out1 / "returns.csv").read_bytes() == (out64 / "returns.csv").read_bytes()


def test_analyze_does_not_mutate_inputs(tmp_path):
    rng = np.random.default_rng(6)
    path = _write_returns(tmp_path, [("s0", rng.uniform(-0.06, 0.06, 200))])
    before = path.read_bytes()
    assert run(
        "analyze", "--returns", str(path), "--window", "fig1a",
        "--sigma-bar", "0.02", "--out", str(tmp_path / "o"),
    ) in (0, EXIT_EMPTY)
    assert path.read_bytes() == before


def test_analyze_wide_price_layout(tmp_path):
    rng = np.random.default_rng(9)
    rows = ["date," + ",".join(f"t{j}" for j in range(3))]
    prices = 100 * np.exp(np.cumsum(rng.normal(0, 0.03, (250, 3)), axis=0))
    for i in range(250):
        rows.append(f"2019-{1 + i // 28:02d}-{1 + i % 28:02d}," + ",".join(f"{p:.4f}" for p in prices[i]))
    f = tmp_path / "wide.csv"
    f.write_text("\n".join(rows) + "\n")
    out = tmp_path / "anw"
    rc = run("analyze", "--prices", str(f), "--layout", "wide", "--window", "fig1a", "--out", str(out))
    assert rc in (0, EXIT_EMPTY)
    assert (out / "episodes.csv").exists()


def test_manifest_replay_reproduces_bytes(tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    rc = run("simulate", "--n-series", "3", "--days", "80", "--seed", "21", "--out", str(out1))
    assert rc == 0
    rc = run("simulate", "--config", str(out1 / "manifest.json"), "--out", str(out2))
    assert rc == 0
    assert (out1 / "returns.csv").read_bytes() == (out2 / "returns.csv").read_bytes()
    assert (out1 / "stats.json").read_bytes() == (out2 / "stats.json").read_bytes()


def _write_returns(tmp_path, series, name="returns.csv"):
    from volstab.returns import Ensemble, ReturnSeries, write_returns_csv

    path = tmp_path / name
    write_returns_csv(
        Ensemble.from_series(
            ReturnSeries.from_returns(t, np.asarray(v, dtype=float)) for t, v in series
        ),
        path,
    )
    return path


def test_analyze_full_pipeline(tmp_path):
    rng = np.random.default_rng(1)
    path = _write_returns(
        tmp_path, [(f"s{i}", rng.uniform(-0.06, 0.06, 400)) for i in range(12)]
    )
    out = tmp_path / "an"
    rc = run(
        "analyze", "--returns", str(path), "--window", "fig1a",
        "--sigma-bar", "0.02", "--bins", "12", "--min-count", "2", "--out", str(out),
    )
    assert rc == 0
    episodes = (out / "episodes.csv").read_text().splitlines()
    assert episodes[0] == "ticker,window_id,theta_i,theta_f,start_index,fht,volatility"
    assert len(episodes) > 10
    curve = read_curve_csv(out / "curve_crash_ti-0.10_tf-1.50.csv")
    assert curve.counts.sum() > 0
    verdicts = json.loads((out / "verdicts.json").read_text())
    assert len(verdicts) == 1
    assert verdicts[0]["window_id"] == "crash_ti-0.10_tf-1.50"
    manifest = json.loads((out / "manifest.json").read_text())
    assert str(path) in manifest["inputs"]


def test_analyze_family_writes_curve_per_window(tmp_path):
    rng = np.random.default_rng(2)
    path = _write_returns(
        tmp_path, [(f"s{i}", rng.uniform(-0.1, 0.1, 500)) for i in range(10)]
    )
    out = tmp_path / "anb"
    rc = run(
        "analyze", "--returns", str(path), "--window", "fig1b",
        "--sigma-bar", "0.02", "--min-count", "1", "--out", str(out),
    )
    assert rc == 0
    curves = sorted(out.glob("curve_*.csv"))
    verdicts = json.loads((out / "verdicts.json").read_text())
    assert len(verdicts) == 26
    assert len(curves) == 26


def test_analyze_no_episodes_gives_empty_exit_code(tmp_path):
    path = _write_returns(tmp_path, [("quiet", [1e-5, -1e-5] * 50)])
    out = tmp_path / "anq"
    rc = run(
        "analyze", "--returns", str(path), "--window", "fig1a",
        "--sigma-bar", "1.0", "--out", str(out),
    )
    assert rc == EXIT_EMPTY
    assert (out / "episodes.csv").read_text().splitlines() == [
        "ticker,window_id,theta_i,theta_f,start_index,fht,volatility"
    ]


def test_analyze_manual_window_and_entry_rule(tmp_path):
    path = _write_returns(tmp_path, [("s", [0.001, -0.005, -0.04, -0.006, -0.04])])
    out1 = tmp_path / "m1"
    rc = run(
        "analyze", "--returns", str(path), "--window", "manual",
        "--theta-i", "-0.1", "--theta-f", "-1.5", "--direction", "crash",
        "--sigma-bar", "0.02", "--out", str(out1),
    )
    assert rc == 0
    rows1 = (out1 / "episodes.csv").read_text().strip().splitlines()[1:]
    out2 = tmp_path / "m2"
    rc = run(
        "analyze", "--returns", str(path), "--window", "manual",
        "--theta-i", "-0.1", "--theta-f", "-1.5", "--direction", "crash",
        "--sigma-bar", "0.02", "--entry-rule", "level", "--out", str(out2),
    )
    assert rc == 0
    rows2 = (out2 / "episodes.csv").read_text().strip().splitlines()[1:]
    assert len(rows1) == 1 and len(rows2) == 2  # level rule re-enters after the hit


def test_analyze_manual_requires_all_flags(tmp_path):
    path = _write_returns(tmp_path, [("s", [0.01, -0.01, 0.02, -0.02])])
    rc = run("analyze", "--returns", str(path), "--window", "manual", "--out", str(tmp_path / "x"))
    assert rc == EXIT_CONFIG


def test_analyze_missing_input(tmp_path):
    rc = run("analyze", "--returns", str(tmp_path / "none.csv"), "--out", str(tmp_path / "x"))
    assert rc == EXIT_INPUT
    path = _write_returns(tmp_path, [("s", [0.01, -0.01])])
    rc = run("analyze", "--returns", str(path), "--prices", str(path), "--out", str(tmp_path / "y"))
    assert rc == EXIT_CONFIG


def test_analyze_from_prices_directory(tmp_path):
    d = tmp_path / "prices"
    d.mkdir()
    rng = np.random.default_rng(7)
    for name in ("aaa", "bbb"):
        prices = 100 * np.exp(np.cumsum(rng.normal(0, 0.02, 300)))
        rows = ["date,close"] + [
            f"2019-{1 + i // 28:02d}-{1 + i % 28:02d},{p:.4f}" for i, p in enumerate(prices)
        ]
        (d / f"{name}.csv").write_text("\n".join(rows) + "\n")
    out = tmp_path / "anp"
    rc = run("analyze", "--prices", str(d), "--window", "fig1a", "--out", str(out))
    assert rc in (0, EXIT_EMPTY)
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["inputs"]) == 2


def test_analyze_prices_without_a_usable_series_is_input_error(tmp_path, capsys):
    d = tmp_path / "prices"
    d.mkdir()
    (d / "aa.csv").write_text("date,close\n2020-01-01,10\n2020-01-02,\n")
    out = tmp_path / "an"
    assert run("analyze", "--prices", str(d), "--out", str(out)) == EXIT_INPUT
    assert capsys.readouterr().err.endswith(f"error: {d}: no series with at least two valid prices\n")
    assert not out.exists()


def test_mfht_and_fht_pdf_subcommands(tmp_path):
    rng = np.random.default_rng(3)
    path = _write_returns(
        tmp_path, [(f"s{i}", rng.uniform(-0.06, 0.06, 300)) for i in range(8)]
    )
    out = tmp_path / "an"
    assert run(
        "analyze", "--returns", str(path), "--window", "fig1a",
        "--sigma-bar", "0.02", "--out", str(out),
    ) == 0

    out2 = tmp_path / "mf"
    rc = run("mfht", "--episodes", str(out / "episodes.csv"), "--min-count", "2", "--out", str(out2))
    assert rc == 0
    assert (out2 / "verdicts.json").exists()
    assert list(out2.glob("curve_*.csv"))

    out3 = tmp_path / "fp"
    rc = run("fht-pdf", "--episodes", str(out / "episodes.csv"), "--bins", "10", "--out", str(out3))
    assert rc == 0
    pdfs = list(out3.glob("fht_pdf_*.csv"))
    assert len(pdfs) == 1
    header = pdfs[0].read_text().splitlines()[0]
    assert header == "bin_lo,bin_hi,density,count"

    rc = run("mfht", "--episodes", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "z"))
    assert rc == EXIT_INPUT


def test_acf_subcommand(tmp_path):
    rng = np.random.default_rng(4)
    path = _write_returns(tmp_path, [(f"s{i}", rng.normal(0, 0.02, 200)) for i in range(5)])
    out = tmp_path / "acf"
    rc = run("acf", "--returns", str(path), "--max-lag", "10", "--out", str(out))
    assert rc == 0
    rows = (out / "acf.csv").read_text().strip().splitlines()
    assert rows[0] == "lag,value"
    assert len(rows) == 12
    assert rows[1] == "0,1.0"
    rc = run("acf", "--returns", str(path), "--max-lag", "10", "--absolute", "--out", str(out))
    assert rc == 0
    assert (out / "acf_abs.csv").exists()
    rc = run("acf", "--returns", str(path), "--max-lag", "500", "--out", str(out))
    assert rc == EXIT_INPUT
    flat = _write_returns(tmp_path, [("flat", [0.0] * 20)], name="flat.csv")
    assert run("acf", "--returns", str(flat), "--max-lag", "2", "--out", str(out)) == EXIT_INPUT


def test_compare_identity(tmp_path):
    rng = np.random.default_rng(5)
    path = _write_returns(
        tmp_path, [(f"s{i}", rng.uniform(-0.06, 0.06, 400)) for i in range(10)]
    )
    out = tmp_path / "an"
    assert run(
        "analyze", "--returns", str(path), "--window", "fig1a",
        "--sigma-bar", "0.02", "--min-count", "2", "--out", str(out),
    ) == 0
    curve = next(out.glob("curve_*.csv"))
    out2 = tmp_path / "cmp"
    rc = run("compare", "--empirical", str(curve), "--model", str(curve), "--out", str(out2))
    assert rc == 0
    report = json.loads((out2 / "compare.json").read_text())
    assert report["max_abs_diff"] == 0.0
    rows = [r.split(",") for r in (out2 / "compare.csv").read_text().splitlines()[1:]]
    edges = read_curve_csv(curve).bin_edges
    assert [float(r[0]) for r in rows] + [float(rows[-1][1])] == edges.tolist()
    assert report["peak_offset_bins"] == 0
    assert report["verdict_empirical"]["interior_maximum"] == report["verdict_model"]["interior_maximum"]


def test_compare_disjoint_ranges(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("bin_lo,bin_hi,mfht,count\n0.001,0.002,5.0,10\n0.002,0.003,8.0,10\n")
    b.write_text("bin_lo,bin_hi,mfht,count\n0.1,0.2,5.0,10\n0.2,0.3,4.0,10\n")
    rc = run("compare", "--empirical", str(a), "--model", str(b), "--out", str(tmp_path / "c"))
    assert rc == EXIT_INPUT


def test_compare_two_seeded_simulation_runs(tmp_path):
    # fixture: same model, two master seeds; curves land on close peaks
    curves = []
    for seed in ("101", "202"):
        sim = tmp_path / f"sim{seed}"
        assert run("simulate", "--n-series", "150", "--seed", seed, "--out", str(sim)) == 0
        an = tmp_path / f"an{seed}"
        assert run(
            "analyze", "--returns", str(sim / "returns.csv"),
            "--window", "fig1a", "--out", str(an),
        ) == 0
        curves.append(next(an.glob("curve_*.csv")))
    out = tmp_path / "cmp"
    rc = run("compare", "--empirical", str(curves[0]), "--model", str(curves[1]), "--out", str(out))
    assert rc == 0
    report = json.loads((out / "compare.json").read_text())
    assert report["peak_offset_bins"] <= 2
    assert report["verdict_empirical"]["interior_maximum"]
    assert report["verdict_model"]["interior_maximum"]


def test_compare_rebins_different_grids(tmp_path):
    from volstab.stats import MfhtCurve, write_curve_csv

    def bumpy_curve(lo, hi, peak_at, n=14):
        edges = np.exp(np.linspace(np.log(lo), np.log(hi), n + 1))
        mids = np.sqrt(edges[:-1] * edges[1:])
        mfht = 2.0 + 20.0 * np.exp(-((np.log(mids / peak_at)) ** 2))
        return MfhtCurve(
            bin_edges=edges, mfht=mfht, counts=np.full(n, 25, dtype=np.int64), min_count=1
        )

    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_curve_csv(bumpy_curve(0.001, 0.8, peak_at=0.02), a)
    write_curve_csv(bumpy_curve(0.0013, 1.1, peak_at=0.023), b)
    out = tmp_path / "c"
    rc = run("compare", "--empirical", str(a), "--model", str(b), "--out", str(out))
    assert rc == 0
    report = json.loads((out / "compare.json").read_text())
    assert report["bins_compared"] >= 5
    assert report["peak_offset_bins"] <= 2
    rows = (out / "compare.csv").read_text().splitlines()
    assert rows[0] == "bin_lo,bin_hi,mfht_empirical,mfht_model,diff"
