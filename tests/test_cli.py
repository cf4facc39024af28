import errno
import json
import os
import signal
import subprocess
import tempfile
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import make_ensemble
import volstab
from volstab import _fork, _io, cli, model
from volstab.cli import (
    DEFAULT_CONFIG,
    EXIT_CONFIG,
    EXIT_EMPTY,
    EXIT_INPUT,
    build_model,
    load_config_file,
    main,
)
from volstab.model import ModelParams, SimConfig
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


def test_default_config_keys_types_and_model():
    # the key order is the --help flag order and the manifest's config order
    assert list(DEFAULT_CONFIG) == ["m", "n", "a", "b", "c", "v_start", "x0", "dt", "steps_per_day", "days",
                                    "n_series", "seed"]
    assert [type(v) for v in DEFAULT_CONFIG.values()] == [float] * 8 + [int] * 4
    assert build_model(DEFAULT_CONFIG) == (ModelParams(), SimConfig())


# Config files that are not a config, by file name, and the error each ends in;
# a body of None makes a directory of that name.
BAD_CONFIGS = [
    ("dir.cfg", None, "is a directory, not a config file"),
    ("bad.cfg", b"volatility = 1\n", "line 1: unknown key 'volatility'"),
    ("bad.cfg", b"m 2\n", "line 1: expected 'key = value', got 'm 2'"),
    ("bad.cfg", b"m = fast\n", "line 1: bad value for m: 'fast'"),
    ("bad.cfg", b"m = \xff\n", "not UTF-8 text"),
    ("bad.json", b'{"zz": 1}', "unknown config keys ['zz']"),
    ("bad.json", b"[1, 2]", "expected a JSON object of config keys, got list"),
    ("bad.json", b'{"config": 5}', "expected a JSON object of config keys, got int"),
    ("bad.json", b'{"config": {"dt": "abc"}}', 'bad value for dt: "abc"'),
    ("bad.json", b'{"dt": null}', "bad value for dt: null"),
    ("bad.json", b'{"seed": 1.5}', "bad value for seed: 1.5"),  # not seed 1
    ("bad.json", b'{"seed": true}', "bad value for seed: true"),
    ("bad.json", b'{"dt": 1' + b"0" * 400 + b"}", "bad value for dt: 1000"),  # beyond the float range
    ("bad.json", b"[" * 100_000, "not valid JSON"),
]


def test_config_file_errors(tmp_path, capsys):
    out = tmp_path / "o"
    for name, body, needle in BAD_CONFIGS:
        bad = tmp_path / name
        if body is None:
            bad.mkdir()
        else:
            bad.write_bytes(body)
        assert run("simulate", "--config", str(bad), "--out", str(out)) == EXIT_CONFIG, body
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: {needle}") and err.count("\n") == 1, err
        assert not out.exists()
    assert run("simulate", "--config", str(tmp_path / "nope.cfg")) == EXIT_CONFIG


def test_invalid_parameter_exits_with_config_error(tmp_path):
    assert run("simulate", "--dt", "-1", "--out", str(tmp_path / "o")) == EXIT_CONFIG


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """A returns file, the episode file analyze makes of it, a file of flat series, a curve and a config file."""
    d = tmp_path_factory.mktemp("inputs")
    rng = np.random.default_rng(8)
    returns = _write_returns(d, [(f"s{i}", rng.uniform(-0.06, 0.06, 300)) for i in range(4)])
    flat = _write_returns(d, [(f"z{i}", [0.0] * 4) for i in range(2)], name="flat.csv")
    (d / "curve.csv").write_text(CURVE_HEADER + CURVE_ROWS)
    (d / "run.cfg").write_text("seed = 1\n")
    assert run(
        "analyze", "--returns", str(returns), "--window", "fig1a",
        "--sigma-bar", "0.02", "--out", str(d / "an"),
    ) == 0
    return {
        "returns": str(returns),
        "episodes": str(d / "an" / "episodes.csv"),
        "flat": str(flat),
        "curve": str(d / "curve.csv"),
        "config": str(d / "run.cfg"),
    }


# A bad value, the exit code it ends in, and a word its error names.
BAD_VALUES = [
    (["acf", "--returns", "{returns}", "--max-lag", "-1"], EXIT_CONFIG, "--max-lag"),
    (["fht-pdf", "--episodes", "{episodes}", "--bins", "0"], EXIT_CONFIG, "--bins"),
    (["mfht", "--episodes", "{episodes}", "--min-count", "0"], EXIT_CONFIG, "--min-count"),
    (["simulate", "--n-series", "2", "--days", "5", "--seed", "-1"], EXIT_CONFIG, "seed"),
    (["analyze", "--returns", "{returns}", "--bins", "0"], EXIT_CONFIG, "--bins"),
    (["analyze", "--returns", "{returns}", "--bins", "-3"], EXIT_CONFIG, "--bins"),
    (["analyze", "--returns", "{returns}", "--min-count", "-1"], EXIT_CONFIG, "--min-count"),
    (["analyze", "--returns", "{returns}", "--sigma-bar", "0"], EXIT_CONFIG, "sigma_bar"),
    (["analyze", "--returns", "{flat}"], EXIT_INPUT, "{flat}"),
    # flags the input or the window would leave unused
    (["analyze", "--returns", "{returns}", "--layout", "wide"], EXIT_CONFIG, "--layout"),
    (["analyze", "--returns", "{returns}", "--window", "fig1a", "--theta-i", "0.5"], EXIT_CONFIG, "--theta-i"),
    (["analyze", "--returns", "{returns}", "--theta-f", "-1.5"], EXIT_CONFIG, "--theta-f"),
    # a manual window whose start threshold is infinite, or overflows to infinity
    (["analyze", "--returns", "{returns}", "--window", "manual", "--theta-i", "inf", "--theta-f", "0"], EXIT_CONFIG,
     "threshold theta_i * sigma_bar must be finite, got inf * "),
    (["analyze", "--returns", "{returns}", "--window", "manual", "--theta-i", "1e308", "--theta-f", "0",
      "--sigma-bar", "10"], EXIT_CONFIG, "threshold theta_i * sigma_bar must be finite, got 1e+308 * 10.0"),
    (["acf", "--returns", "{flat}", "--max-lag", "1"], EXIT_INPUT, "error: {flat}: series 'z0': zero-variance"),
    (["acf", "--returns", "{returns}", "--max-lag", "400"], EXIT_INPUT, "error: {returns}: series 's0'"),
    (["simulate", "--n-series", "2", "--days", "5", "--threads", "0"], EXIT_CONFIG, "--threads"),
    (["simulate", "--n-series", "2", "--days", "5", "--threads", "-5"], EXIT_CONFIG, "--threads"),
    (["simulate", "--n-series", "3", "--days", "50", "--dt", "1"], EXIT_CONFIG, "lower dt"),
    # sizes no machine can allocate: numpy refuses them at once, before any memory is used
    (["simulate", "--days", "1000000000000"], EXIT_CONFIG, "error: out of memory: "),
    (["analyze", "--returns", "{returns}", "--bins", "1000000000000000"], EXIT_CONFIG, "error: out of memory: "),
    (["mfht", "--episodes", "{episodes}", "--bins", "1000000000000000"], EXIT_CONFIG, "error: out of memory: "),
    (["fht-pdf", "--episodes", "{episodes}", "--bins", "1000000000000000"], EXIT_CONFIG, "error: out of memory: "),
    # a noise block too large, ending the same way whether or not the series are split among processes
    (["simulate", "--n-series", "2", "--days", "2", "--steps-per-day", "100000000000000000", "--threads", "1"],
     EXIT_CONFIG, "error: out of memory: "),
    (["simulate", "--n-series", "2", "--days", "2", "--steps-per-day", "100000000000000000", "--threads", "2"],
     EXIT_CONFIG, "error: out of memory: "),
    # sizes beyond numpy's largest array, intp-max bytes: refused before any input is read
    (["simulate", "--days", "10000000000000000000"], EXIT_CONFIG, "numpy's largest array"),
    (["simulate", "--n-series", "10000000000000000000", "--days", "2"], EXIT_CONFIG, "numpy's largest array"),
    (["simulate", "--n-series", "2", "--days", "2", "--steps-per-day", "10000000000000000000"], EXIT_CONFIG,
     "numpy's largest array"),
    (["analyze", "--returns", "{returns}", "--bins", "10000000000000000000"], EXIT_CONFIG, "--bins"),
    (["mfht", "--episodes", "{episodes}", "--bins", "10000000000000000000"], EXIT_CONFIG, "--bins"),
    (["fht-pdf", "--episodes", "{episodes}", "--bins", "10000000000000000000"], EXIT_CONFIG, "--bins"),
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


# Flags a subcommand does not have: prefixes of its flags, which argparse
# would otherwise take for the longer flag ("--m" for "--min-count", "--sig"
# for "--sigma-bar"), and simulate's model flags given to analyze.
UNKNOWN_FLAGS = [
    ["simulate", "--n-ser", "5", "--day", "10"],
    ["analyze", "--returns", "{returns}", "--m", "-1"],
    ["analyze", "--returns", "{returns}", "--sig", "0.02"],
    ["mfht", "--episodes", "{episodes}", "--min", "1"],
    ["fht-pdf", "--episodes", "{episodes}", "--bin", "5"],
    ["acf", "--returns", "{returns}", "--max", "3"],
    ["compare", "--empirical", "{curve}", "--model", "{curve}", "--mod", "{curve}"],
    ["analyze", "--returns", "{returns}", "--seed", "1"],
    ["analyze", "--returns", "{returns}", "--config", "{config}"],
    ["analyze", "--returns", "{returns}", "--direction", "rally"],  # a window's thetas fix its direction
]


@pytest.mark.parametrize(
    "argv", UNKNOWN_FLAGS, ids=[" ".join(a for a in argv if "{" not in a) for argv in UNKNOWN_FLAGS]
)
def test_flag_names_must_be_exact(valid_inputs, tmp_path, capsys, argv):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        run(*[a.format(**valid_inputs) for a in argv], "--out", str(out))
    assert exc.value.code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"usage: volstab {argv[0]} "), err  # the subcommand's usage names its flags
    assert f"volstab {argv[0]}: error: unrecognized arguments: " in err
    assert not out.exists()


# Negative values in exponent form, which the argparse pattern of some Python
# releases takes for flags, and the setting each one gives.
NEGATIVE_EXPONENTS = [
    (["simulate", "--n-series", "2", "--days", "5", "--seed", "1", "--x0", "-1e-3"], "x0"),
    (["analyze", "--returns", "{returns}", "--window", "manual", "--theta-i", "0.5", "--theta-f", "-1e-3"], "theta_f"),
]


@pytest.mark.parametrize("argv, dest", NEGATIVE_EXPONENTS, ids=[row[0][0] for row in NEGATIVE_EXPONENTS])
def test_negative_values_in_exponent_form_are_values(valid_inputs, tmp_path, capsys, argv, dest):
    argv = [a.format(**valid_inputs) for a in argv]
    assert getattr(cli.build_parser().parse_args(argv), dest) == -1e-3
    assert run(*argv, "--out", str(tmp_path / "o")) == 0
    assert capsys.readouterr().err == ""


RETURNS_HEADER = "ticker,day_index,return\n"
EPISODE = [0.001, -0.003, -0.010, -0.035, 0.004]  # one fig1a crash episode at sigma_bar 0.02


def _rows(ticker, values):
    return "".join(f"{ticker},{d},{v!r}\n" for d, v in enumerate(values))


def _write_csv(path, header, body):
    """Write a header and a body given as text (written as UTF-8) or as raw bytes."""
    path.write_bytes(header.encode() + (body if isinstance(body, bytes) else body.encode()))


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
    ("UTF-8 cell", "aa,0,0.1\naa,1,é\n", 3, "return is not a number: 'é'"),
    ("non-UTF-8 byte", b"aa,0,0.1\naa,1,\xff\n", 3, "return is not a number: '\\\\xff'"),
    ("non-UTF-8 ticker", b"aa,0,0.1\na\xff,0,0.2\n", 3, "ticker 'a\\\\xff' is not UTF-8"),
    ("squares overflow", "aa,0,1e200\naa,1,-1e200\n", None, "aa: returns too large"),
]


@pytest.mark.filterwarnings("error")  # a numpy warning ahead of the error fails the row
@pytest.mark.parametrize("sub", ["analyze", "acf"])
@pytest.mark.parametrize(
    "body, line, needle", [row[1:] for row in MALFORMED_RETURNS], ids=[row[0] for row in MALFORMED_RETURNS]
)
def test_malformed_returns_csv_is_one_line_input_error(tmp_path, capsys, sub, body, line, needle):
    path = tmp_path / "returns.csv"
    _write_csv(path, RETURNS_HEADER, body)
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
    ("6 fields", FIG1A_ROW + f"aa,{FIG1A},3,4\n", 3, "expected 7 columns, got 6"),
    ("8 fields", FIG1A_ROW + f"aa,{FIG1A},3,4,0.02,1\n", 3, "got 8"),
    ("bad start_index", f"aa,{FIG1A},x,4,0.02\n", 2, "start_index is not an integer: 'x'"),
    ("fractional fht", FIG1A_ROW + f"aa,{FIG1A},3,1.5,0.02\n", 3, "fht is not an integer: '1.5'"),
    ("fht with underscore", FIG1A_ROW + f"aa,{FIG1A},3,1_0,0.02\n", 3, "fht is not an integer: '1_0'"),
    ("start_index with underscore", f"aa,{FIG1A},0_1,4,0.02\n", 2, "start_index is not an integer: '0_1'"),
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
    ("zero fht after blank lines", FIG1A_ROW + " \n\n\t\n" + f"aa,{FIG1A},3,0,0.02\n", 6, "fht 0 is below 1"),
    ("negative volatility", FIG1A_ROW + f"aa,{FIG1A},3,4,-0.5\n", 3, "volatility -0.5 is negative"),
    ("equal thetas", FIG1A_ROW + "aa,w,0.5,0.5,3,4,0.02\n", 3, "window 'w'"),
    ("NaN thetas", FIG1A_ROW + "aa,w,nan,nan,3,4,0.02\n" * 2, 3, "window 'w': theta_f must differ from theta_i"),
    ("infinite theta", FIG1A_ROW + "aa,w,inf,0,3,4,0.02\n", 3, "window 'w': threshold theta_i * sigma_bar"),
    (
        "two window ids, one window",
        FIG1A_ROW + "bb,other,-0.1,-1.5,5,2,0.03\n",
        3,
        "window 'other' and window 'crash_ti-0.10_tf-1.50' on line 2 both rebuild to window id 'crash_ti-0.10_tf-1.50'",
    ),
    ("UTF-8 fht", FIG1A_ROW + f"aa,{FIG1A},3,é,0.02\n", 3, "fht is not an integer: 'é'"),
    ("non-UTF-8 fht", f"aa,{FIG1A},3,".encode() + b"\xff,0.02\n", 2, "fht is not an integer: '\\\\xff'"),
    ("non-UTF-8 window_id", FIG1A_ROW.encode() + b"aa,w\xff,0.5,-1.5,3,4,0.02\n", 3, "window_id 'w\\\\xff' is not UTF-8"),
]


@pytest.mark.parametrize("sub", ["mfht", "fht-pdf"])
@pytest.mark.parametrize(
    "body, line, needle", [row[1:] for row in MALFORMED_EPISODES], ids=[row[0] for row in MALFORMED_EPISODES]
)
def test_malformed_episodes_csv_is_one_line_input_error(tmp_path, capsys, sub, body, line, needle):
    path = tmp_path / "episodes.csv"
    _write_csv(path, EPISODES_HEADER, body)
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
    ("count with underscore", CURVE_ROWS + "0.003,0.004,5.0,1_0\n", 4, "count is not an integer: '1_0'"),
    ("decreasing bins", "3,2,5.0,10\n2,1,6.0,10\n1,0.5,7.0,10\n", 2, "bin_lo 3.0 is not below bin_hi 2.0"),
    ("nan bin_hi", CURVE_ROWS + "0.003,nan,5.0,10\n", 4, "bin_lo 0.003 is not below bin_hi nan"),
    ("inf bin_hi", CURVE_ROWS + "0.003,inf,5.0,10\n", 4, "must not be infinite, got 0.003, inf, 5.0"),
    ("inf mfht", CURVE_ROWS + "0.003,0.004,inf,10\n", 4, "must not be infinite, got 0.003, 0.004, inf"),
    ("negative count", "0.001,0.002,5.0,-7\n0.002,0.003,6.0,-7\n", 2, "count -7 is negative"),
    # bins no mfht_curve writes: populated bins hold at least one episode of at least one day
    ("populated bins of no episode", "0.001,0.002,5.0,0\n0.002,0.003,6.0,0\n0.003,0.004,5.0,0\n", 2,
     "count 0 of a populated bin is below 1"),
    ("mfht of zero days", "0.001,0.002,0.0,10\n0.002,0.003,6.0,10\n0.003,0.004,5.0,10\n", 2, "mfht 0.0 is below 1"),
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


# Per file kind: the command line up to the file, its header, a good row, a
# bad row and the error the bad row gives.
CHUNKED_FILES = {
    "returns": (["analyze", "--returns"], RETURNS_HEADER, "aa,0,0.001\n", "aa,1,x\n", "return is not a number: 'x'"),
    "episodes": (["mfht", "--episodes"], EPISODES_HEADER, FIG1A_ROW, f"aa,{FIG1A},3,4\n", "expected 7 columns, got 6"),
    "curves": (["compare", "--empirical", "{good}", "--model"], CURVE_HEADER, "0.001,0.002,5.0,10\n",
               "0.001,0.002,5.0,1.5\n", "count is not an integer: '1.5'"),
}
CHUNK = _io._CHUNK_LINES
# The bad row's place among the nonblank rows, and the text before the rows.
CHUNK_EDGES = [
    ("last of the first chunk", CHUNK - 1, ""),
    ("first of the second chunk", CHUNK, ""),
    ("far past both", 3 * CHUNK + 5, ""),
    ("first of the second chunk after a whitespace-only line", CHUNK, " \n"),
]


@pytest.mark.parametrize("kind", list(CHUNKED_FILES))
@pytest.mark.parametrize("at, lead", [row[1:] for row in CHUNK_EDGES], ids=[row[0] for row in CHUNK_EDGES])
def test_a_malformed_row_is_named_wherever_it_falls_among_the_chunks(tmp_path, capsys, kind, at, lead):
    argv, header, good, bad, needle = CHUNKED_FILES[kind]
    (tmp_path / "good.csv").write_text(CURVE_HEADER + CURVE_ROWS)
    path = tmp_path / "input.csv"
    path.write_text(header + lead + good * at + bad + good * (4 * CHUNK - at))
    out = tmp_path / "o"
    assert run(*[a.format(good=tmp_path / "good.csv") for a in argv], str(path), "--out", str(out)) == EXIT_INPUT
    line = 2 + lead.count("\n") + at
    assert capsys.readouterr().err == f"error: {path}: line {line}: {needle}\n"
    assert not out.exists()


# Each input kind under a header that is not its own, and the flags that read it.
WRONG_HEADERS = [
    (["analyze", "--returns"], "ticker,day,return\n", RETURNS_HEADER),
    (["acf", "--returns"], "ticker,day_index\n", RETURNS_HEADER),
    (["mfht", "--episodes"], RETURNS_HEADER, EPISODES_HEADER),
    (["fht-pdf", "--episodes"], EPISODES_HEADER.replace("window_id", "window"), EPISODES_HEADER),
    (["compare", "--empirical", "{curve}", "--model"], "bin_lo,bin_hi,mfht\n", CURVE_HEADER),
]


@pytest.mark.parametrize("argv, header, want", WRONG_HEADERS, ids=[row[0][0] for row in WRONG_HEADERS])
def test_wrong_header_is_one_line_input_error(valid_inputs, tmp_path, capsys, argv, header, want):
    path = tmp_path / "input.csv"
    path.write_text(header)
    out = tmp_path / "o"
    rc = run(*[a.format(**valid_inputs) for a in argv], str(path), "--out", str(out))
    err = capsys.readouterr().err
    assert rc == EXIT_INPUT
    assert err == f"error: {path}: expected header {want.strip()!r}, got {header.strip()!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("sub", ["mfht", "fht-pdf"])
def test_episodes_file_of_no_rows_is_an_empty_result(tmp_path, capsys, sub):
    path = tmp_path / "episodes.csv"
    path.write_text(EPISODES_HEADER)
    out = tmp_path / "o"
    assert run(sub, "--episodes", str(path), "--out", str(out)) == EXIT_EMPTY
    assert capsys.readouterr().err == f"error: {path}: no episodes\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error")  # no numpy warning on the way
def test_compare_on_different_grids_with_non_positive_edges_is_one_line_input_error(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text(CURVE_HEADER + "-2,-1,5.0,10\n-1,1,6.0,10\n1,3,7.0,10\n")
    b.write_text(CURVE_HEADER + "-1,0.5,5.0,10\n0.5,2,6.0,10\n2,4,7.0,10\n")
    out = tmp_path / "o"
    rc = run("compare", "--empirical", str(a), "--model", str(b), "--out", str(out))
    err = capsys.readouterr().err
    assert rc == EXIT_INPUT
    assert err == "error: curves on different grids need positive bin edges to share a log grid\n"
    assert not out.exists()
    # on one grid the curves are compared bin by bin, with no logs taken
    assert run("compare", "--empirical", str(a), "--model", str(a), "--out", str(out)) == 0


def test_output_file_name_too_long_is_refused_before_the_directory(tmp_path, capsys):
    path = _write_returns(tmp_path, [("s", [0.01, 0.02, -0.01, 0.03, 0.01, -0.02])])
    out = tmp_path / "o"
    rc = run("analyze", "--returns", str(path), "--window", "manual", "--theta-i", "1e230", "--theta-f", "0",
             "--sigma-bar", "0.02", "--out", str(out))
    err = capsys.readouterr().err
    assert rc == EXIT_INPUT
    assert err.startswith("error: output file name longer than 255 bytes: curve_crash_ti+1000"), err
    assert err.count("\n") == 1
    assert not out.exists()


def test_window_without_binnable_episodes_gets_the_empty_verdict(tmp_path):
    path = tmp_path / "episodes.csv"
    path.write_text(EPISODES_HEADER + f"aa,{FIG1A},3,4,0.0\n")
    out = tmp_path / "m"
    assert run("mfht", "--episodes", str(path), "--min-count", "1", "--out", str(out)) == 0
    assert json.loads((out / "verdicts.json").read_text()) == [{
        "window_id": "crash_ti-0.10_tf-1.50", "interior_maximum": False, "argmax_bin": None,
        "max_mfht": None, "edge_ratio_low": None, "edge_ratio_high": None,
        "populated_bins": 0, "n_episodes": 0,
    }]
    assert not list(out.glob("curve_*.csv"))


def test_episode_thetas_of_equal_value_are_one_window(tmp_path):
    path = tmp_path / "episodes.csv"
    path.write_text(EPISODES_HEADER + FIG1A_ROW + "bb,crash_ti-0.10_tf-1.50,-0.10,-1.50,5,2,0.03\n")
    (table,) = read_episodes_csv(path)
    assert (table.window.theta_i, table.window.theta_f) == (-0.1, -1.5)
    assert table.tickers == ["aa", "bb"] and table.fht.tolist() == [4, 2]


def test_episode_tickers_that_differ_by_a_trailing_nul_stay_apart(tmp_path):
    path = tmp_path / "episodes.csv"
    path.write_text(EPISODES_HEADER + FIG1A_ROW + f"aa\0,{FIG1A},5,2,0.03\n")
    (table,) = read_episodes_csv(path)
    assert table.tickers == ["aa", "aa\0"] and table.fht.tolist() == [4, 2]


def test_fractional_day_index_is_refused_with_deprecation_warnings_hidden(tmp_path):
    """Some numpy releases read "1.5" as day 1 with only a DeprecationWarning.

    The CLI runs in a fresh interpreter that ignores DeprecationWarning
    outright, so the refusal cannot hinge on a test's warning filters.
    """
    path = tmp_path / "returns.csv"
    path.write_text(RETURNS_HEADER + "aa,0,0.1\naa,1.0,0.2\naa,1.5,0.3\n")
    proc = _run_fresh(["-W", "ignore::DeprecationWarning"], {}, "acf", "--returns", str(path), "--out", str(tmp_path / "o"))
    assert proc.returncode == EXIT_INPUT, proc.stderr
    assert proc.stderr == f"error: {path}: line 3: day_index is not an integer: '1.0'\n"


_CLI = ("-c", "import sys; from volstab.cli import main; sys.exit(main(sys.argv[1:]))")


def _run_fresh(flags, env, *argv, program=_CLI):
    """``program`` (the CLI) in a fresh interpreter started with ``flags`` and ``env`` added to this one's."""
    src = str(Path(volstab.__file__).parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *flags, *program, *argv],
        env={**os.environ, "PYTHONPATH": pythonpath, **env}, capture_output=True, text=True, timeout=120,
    )


def test_files_are_utf8_whatever_the_locale(tmp_path):
    """Under the C locale, with Python's UTF-8 fallbacks off, text files are still UTF-8."""
    path = tmp_path / "returns.csv"
    path.write_text(RETURNS_HEADER + _rows("Société", EPISODE), encoding="utf-8")
    args = ["--window", "fig1a", "--sigma-bar", "0.02"]
    assert run("analyze", "--returns", str(path), *args, "--out", str(tmp_path / "here")) == 0
    c_locale = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    proc = _run_fresh([], c_locale, "analyze", "--returns", str(path), *args, "--out", str(tmp_path / "c"))
    assert proc.returncode == 0, proc.stderr
    episodes = tmp_path / "c" / "episodes.csv"
    assert episodes.read_bytes() == (tmp_path / "here" / "episodes.csv").read_bytes()
    proc = _run_fresh([], c_locale, "mfht", "--episodes", str(episodes), "--min-count", "1", "--out", str(tmp_path / "m"))
    assert proc.returncode == 0, proc.stderr


# Returns file bodies that must be accepted, and the tickers of the
# episodes analyze finds in them, in order.
ACCEPTED_RETURNS = [
    # a text cell comes back whole, whatever its length
    ("7-byte ticker", _rows("T" * 7, EPISODE), ["T" * 7]),
    ("8-byte ticker", _rows("T" * 8, EPISODE), ["T" * 8]),
    ("16-byte ticker", _rows("T" * 16, EPISODE), ["T" * 16]),
    ("8-byte tickers after 7-byte ones", _rows("abcdefg", EPISODE) + _rows("abcdefgh", EPISODE),
     ["abcdefg", "abcdefgh"]),
    ("40-character ticker", _rows("T" * 40, EPISODE), ["T" * 40]),
    ("non-ASCII ticker", _rows("Société€", EPISODE), ["Société€"]),
    ("whitespace-only lines", " \n" + _rows("aa", EPISODE).replace("\n", "\n\t \n\n"), ["aa"]),
    # numpy refuses the whitespace-only line, so the chunk is parsed again from its nonblank lines
    ("16-byte ticker after a whitespace-only line", " \n" + _rows("T" * 16, EPISODE), ["T" * 16]),
    (
        "interleaved tickers",
        "".join(a + b for a, b in zip(_rows("bb", EPISODE).splitlines(True), _rows("aa", EPISODE).splitlines(True))),
        ["bb", "aa"],
    ),
    ("tickers that differ by a trailing NUL", _rows("ab", EPISODE) + _rows("ab\0", EPISODE), ["ab", "ab\0"]),
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
    # the episodes file reads back with the same tickers
    assert [t for table in read_episodes_csv(out / "episodes.csv") for t in table.tickers] == tickers
    assert run("mfht", "--episodes", str(out / "episodes.csv"), "--min-count", "1", "--out", str(tmp_path / "m")) == 0
    assert (tmp_path / "m" / "curve_crash_ti-0.10_tf-1.50.csv").exists()


def test_config_seed_threads_only_on_subcommands_that_read_them(capsys):
    expected = {
        "simulate": {"--config", "--seed", "--threads"},
        "analyze": set(),
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


def test_manifest_records_each_setting_once(valid_inputs, tmp_path):
    """Each subcommand's manifest holds its settings under config, and results beside them."""
    runs = {
        "simulate": ["--n-series", "2", "--days", "5"],
        "analyze": ["--returns", "{returns}"],
        "mfht": ["--episodes", "{episodes}"],
        "fht-pdf": ["--episodes", "{episodes}"],
        "acf": ["--returns", "{returns}"],
        "compare": ["--empirical", "{curve}", "--model", "{curve}"],
    }
    manifests = {}
    for sub, argv in runs.items():
        out = tmp_path / sub
        assert run(sub, *[a.format(**valid_inputs) for a in argv], "--out", str(out)) == 0, sub
        manifests[sub] = json.loads((out / "manifest.json").read_text())
    for sub, manifest in manifests.items():
        results = {"sigma_bar"} if sub in ("simulate", "analyze") else set()
        assert set(manifest) == {"subcommand", "tool_version", "config", "inputs"} | results, sub
    assert manifests["simulate"]["config"] == {**DEFAULT_CONFIG, "n_series": 2, "days": 5}
    assert manifests["analyze"]["config"] == {
        "window": "fig1a", "entry_rule": "crossing", "vol_scope": "window", "bins": 30, "min_count": 5,
    }


def test_default_run_directory_is_never_reused(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli.time, "strftime", lambda fmt: "20261019-120000")
    argv = ["simulate", "--n-series", "2", "--days", "5"]
    assert run(*argv, "--seed", "1") == 0
    assert run(*argv, "--seed", "1", "--threads", "1") == 0
    assert run(*argv, "--seed", "2") == 0
    runs = Path("runs")
    assert sorted(p.name for p in runs.iterdir()) == [
        "20261019-120000-seed1", "20261019-120000-seed1-2", "20261019-120000-seed2",
    ]
    assert (runs / "20261019-120000-seed1" / "returns.csv").read_bytes() == (
        runs / "20261019-120000-seed1-2" / "returns.csv"
    ).read_bytes()
    assert "-> runs/20261019-120000-seed1-2\n" in capsys.readouterr().out
    episodes = runs / "episodes.csv"
    episodes.write_text(EPISODES_HEADER + FIG1A_ROW)
    assert run("fht-pdf", "--episodes", str(episodes)) == 0
    assert run("fht-pdf", "--episodes", str(episodes)) == 0
    assert (runs / "20261019-120000" / "manifest.json").exists()
    assert (runs / "20261019-120000-2" / "manifest.json").exists()
    # analyze has no seed to name its directory by
    assert run("analyze", "--returns", str(runs / "20261019-120000-seed2" / "returns.csv")) in (0, EXIT_EMPTY)
    assert (runs / "20261019-120000-3" / "manifest.json").exists()
    # --out names a directory, which a later run may write into again
    assert run(*argv, "--out", "fixed") == 0
    assert run(*argv, "--out", "fixed") == 0
    assert not Path("fixed-2").exists()


@pytest.mark.parametrize("argv", [
    ["analyze", "--returns", "missing.csv"],  # refused before the input is read
    ["simulate", "--n-series", "2", "--days", "5"],
], ids=["analyze", "simulate"])
def test_empty_out_is_refused_before_any_input_or_directory(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert run(*argv, "--out", "") == EXIT_CONFIG
    assert capsys.readouterr().err == "error: --out must not be empty\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, blocker, err", [
    (["simulate", "--n-series", "2", "--days", "5", "--out", "afile"], "afile",
     "output directory afile: afile is not a directory"),
    (["simulate", "--n-series", "2", "--days", "5", "--out", "afile/sub"], "afile",
     "output directory afile/sub: afile is not a directory"),
    (["simulate", "--n-series", "2", "--days", "5"], "runs",  # the default directory's parent
     "output directory runs: runs is not a directory"),
    (["analyze", "--returns", "missing.csv", "--out", "afile"], "afile",  # before the missing input
     "output directory afile: afile is not a directory"),
], ids=["a file", "under a file", "default under a file", "analyze"])
def test_out_that_cannot_be_a_directory_is_refused_before_any_work(tmp_path, monkeypatch, capsys, argv, blocker, err):
    monkeypatch.chdir(tmp_path)
    Path(blocker).write_bytes(b"kept\n")
    monkeypatch.setattr(cli, "simulate_ensemble", lambda *a, **k: pytest.fail("simulated before refusing --out"))
    assert run(*argv) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {err}\n"
    assert Path(blocker).read_bytes() == b"kept\n"
    assert [p.name for p in tmp_path.iterdir()] == [blocker]


@pytest.mark.parametrize("argv, locked, err", [
    (["simulate", "--n-series", "2", "--days", "5", "--out", "locked"], "locked",
     "output directory locked: locked is not writable"),
    (["simulate", "--n-series", "2", "--days", "5", "--out", "locked/sub/run"], "locked",
     "output directory locked/sub/run: locked is not writable"),
    (["simulate", "--n-series", "2", "--days", "5"], ".",  # the default directory's parent
     "output directory runs: . is not writable"),
    (["analyze", "--returns", "missing.csv", "--out", "locked"], "locked",  # before the missing input
     "output directory locked: locked is not writable"),
], ids=["a directory", "under a directory", "default", "analyze"])
def test_out_that_cannot_be_written_is_refused_before_any_work(tmp_path, monkeypatch, capsys, argv, locked, err):
    # Permissions do not bind a superuser, so the directory is made unwritable to os.access alone.
    monkeypatch.chdir(tmp_path)
    Path(locked).mkdir(exist_ok=True)
    access = os.access
    monkeypatch.setattr(os, "access", lambda path, mode, **kw: Path(path) != Path(locked) and access(path, mode, **kw))
    monkeypatch.setattr(cli, "simulate_ensemble", lambda *a, **k: pytest.fail("simulated before refusing --out"))
    assert run(*argv) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {err}\n"
    assert [p.name for p in tmp_path.rglob("*")] == ([] if locked == "." else [locked])


def test_perfbench_tracer_spans_every_layer_the_pipeline_calls(tmp_path):
    """The benchmark's tracer rebinds the layer names of ``volstab.cli``; each must still be called through them."""
    tracer = str(Path(__file__).parents[1] / "perfbench" / "tracer.py")
    names = set()
    for run_id, argv in [
        ("sim", ["simulate", "--threads", "1", "--n-series", "4", "--days", "250", "--seed", "3"]),
        ("an", ["analyze", "--returns", str(tmp_path / "sim" / "returns.csv"), "--window", "fig1b"]),
    ]:
        spans = tmp_path / f"{run_id}.json"
        proc = _run_fresh([], {}, str(spans), run_id, *argv, "--out", str(tmp_path / run_id), program=[tracer])
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(spans.read_text())
        assert doc["exit_code"] == 0 and doc["missing_names"] == [] and doc["counter_errors"] == []
        names |= {span["name"] for span in doc["spans"]}
    # each of the 4 series is scanned once per fig1b window, through extract_table
    rows = (tmp_path / "an" / "episodes.csv").read_text().splitlines()[1:]
    assert doc["counters"]["series_scans"] == 26 * 4
    assert doc["counters"]["episode_rows"] == len(rows) > 0
    assert names >= {
        "simulate_ensemble", "daily_returns", "market_stats", "write_returns_csv", "write_stats_json",
        "read_returns_csv", "extract_table", "mfht_curve", "nonmonotonicity_verdict", "write_episodes_csv",
        "write_curve_csv", "write_manifest", "_sha256",
    }


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
    out64 = tmp_path / "t64"  # more threads than series or CPUs: one process per usable CPU
    assert run(*base, "--threads", "64", "--out", str(out64)) == 0
    assert (out1 / "returns.csv").read_bytes() == (out64 / "returns.csv").read_bytes()


def test_simulate_threads_fork_raises_no_warning(tmp_path):
    """Python 3.12+ warns when a process with more than one thread forks, as
    numpy's has; under -W error that warning would end the run."""
    base = ["simulate", "--n-series", "6", "--days", "20", "--seed", "4"]
    proc = _run_fresh(["-W", "error"], {}, *base, "--threads", "2", "--out", str(tmp_path / "t2"))
    assert proc.returncode == 0, proc.stderr
    assert run(*base, "--threads", "1", "--out", str(tmp_path / "t1")) == 0
    assert (tmp_path / "t2" / "returns.csv").read_bytes() == (tmp_path / "t1" / "returns.csv").read_bytes()


def _run_with_alarm(*argv):
    def hang(signum, frame):
        raise TimeoutError("simulate waited 60 s on a dead forked process")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(60)
    try:
        return run(*argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_simulate_helper_that_dies_is_one_error_line(tmp_path, capsys, monkeypatch):
    caller = os.getpid()
    substream = model._substream

    def kill():
        os.kill(os.getpid(), signal.SIGKILL)

    def fail():
        raise RuntimeError("not an OSError")

    class DiesOnSecondBlock:
        """A generator that ends its forked process when it is asked for a second block."""

        def __init__(self, *key):
            self.gen, self.blocks = substream(*key), 0

        def standard_normal(self, size=None, dtype=np.float64, out=None):
            self.blocks += 1
            if self.blocks == 2 and os.getpid() != caller:
                die()
            return self.gen.standard_normal(size, dtype, out)

    monkeypatch.setattr(model, "_substream", DiesOnSecondBlock)
    monkeypatch.setattr(_fork, "_usable_cpus", lambda: 3)
    for die, how in [(kill, "was killed by signal 9"), (fail, "failed")]:
        out = tmp_path / "o"
        rc = _run_with_alarm("simulate", "--n-series", "5", "--days", "20", "--threads", "3", "--out", str(out))
        err = capsys.readouterr().err
        assert rc == EXIT_INPUT
        assert err == f"error: the process that integrates series 2-3 {how}\n"
        assert not out.exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("forked", [False, True], ids=["here", "forked"])
def test_a_failed_write_names_its_file_and_leaves_no_directory(tmp_path, capsys, monkeypatch, forked):
    # A full disk or a file size limit (ulimit -f) raises an OSError that names no file.
    caller = os.getpid()
    write_rows = _io.write_rows

    def too_large(*args):
        if not forked or os.getpid() != caller:
            raise OSError(errno.EFBIG, os.strerror(errno.EFBIG))
        return write_rows(*args)

    monkeypatch.setattr(_io, "write_rows", too_large)
    monkeypatch.setattr(_fork, "_usable_cpus", lambda: 2)
    out = tmp_path / "new" / "o"
    rc = _run_with_alarm("simulate", "--n-series", "4", "--days", "20", "--threads", "2", "--out", str(out))
    assert rc == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {out / 'returns.csv'}: [Errno 27] File too large\n"
    assert not (tmp_path / "new").exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("interrupt", [False, True], ids=["oserror", "interrupt"])
def test_simulate_failed_write_in_an_existing_directory_leaves_its_files(tmp_path, capsys, monkeypatch, interrupt):
    out = tmp_path / "o"
    out.mkdir()
    old = {name: f"old {name}\n" for name in ("returns.csv", "stats.json", "manifest.json", "notes.txt")}
    for name, text in old.items():
        (out / name).write_text(text)
    write_stats_json = cli.write_stats_json

    def fails(*args):  # stats.json is written after returns.csv
        if interrupt:
            raise KeyboardInterrupt
        raise OSError(errno.EFBIG, os.strerror(errno.EFBIG))

    monkeypatch.setattr(cli, "write_stats_json", fails)
    argv = ["simulate", "--n-series", "4", "--days", "20", "--seed", "2", "--out", str(out)]
    if interrupt:
        with pytest.raises(KeyboardInterrupt):
            run(*argv)
    else:
        assert run(*argv) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {out / 'stats.json'}: [Errno 27] File too large\n"
    assert {p.name: p.read_text() for p in out.iterdir()} == old
    monkeypatch.setattr(cli, "write_stats_json", write_stats_json)
    assert run(*argv) == 0  # a run that succeeds replaces the files of its names
    assert run(*argv[:-1], str(tmp_path / "fresh")) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(old)
    for name in ("returns.csv", "stats.json"):
        assert (out / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()
    assert (out / "notes.txt").read_text() == old["notes.txt"]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("trajectories", [False, True], ids=["returns", "trajectories"])
def test_simulate_maps_the_variance_path_only_for_trajectories(tmp_path, monkeypatch, threads, trajectories):
    requested = []
    real = model.shared_doubles
    monkeypatch.setattr(model, "shared_doubles", lambda count: requested.append(count) or real(count))
    monkeypatch.setattr(_fork, "_usable_cpus", lambda: 2)
    n, days = 7, 30
    argv = ["simulate", "--n-series", str(n), "--days", str(days), "--threads", str(threads)]
    assert run(*argv, *["--write-trajectories"] * trajectories, "--out", str(tmp_path / "o")) == 0
    state, noise = requested
    assert state == (2 if trajectories else 1) * n * (days + 1) + 2 * threads  # and a (day, row) per process


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
    from volstab.returns import write_returns_csv

    path = tmp_path / name
    write_returns_csv(make_ensemble(series), path)
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
        "--theta-i", "-0.1", "--theta-f", "-1.5",
        "--sigma-bar", "0.02", "--out", str(out1),
    )
    assert rc == 0
    rows1 = (out1 / "episodes.csv").read_text().strip().splitlines()[1:]
    out2 = tmp_path / "m2"
    rc = run(
        "analyze", "--returns", str(path), "--window", "manual",
        "--theta-i", "-0.1", "--theta-f", "-1.5",
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


def test_prices_directory_manifest_lists_exactly_the_csv_files_read(tmp_path, capsys):
    d = tmp_path / "prices"
    d.mkdir()
    for name, closes in (("bbb", [10, 11, 12, 11]), ("aaa", [20, 19, 21, 22])):
        (d / f"{name}.csv").write_text("date,close\n" + "".join(f"2020-01-0{i + 1},{c}\n" for i, c in enumerate(closes)))
    (d / "notes.txt").write_text("not prices\n")
    out = tmp_path / "an"
    assert run("analyze", "--prices", str(d), "--sigma-bar", "0.02", "--out", str(out)) in (0, EXIT_EMPTY)
    assert capsys.readouterr().out.startswith("analyze: 2 series,")
    inputs = json.loads((out / "manifest.json").read_text())["inputs"]
    assert list(inputs) == [str(d / "aaa.csv"), str(d / "bbb.csv")]
    assert inputs == {p: cli._sha256(Path(p)) for p in inputs}


def test_analyze_prices_without_a_usable_series_is_input_error(tmp_path, capsys):
    d = tmp_path / "prices"
    d.mkdir()
    (d / "aa.csv").write_text("date,close\n2020-01-01,10\n2020-01-02,\n")
    out = tmp_path / "an"
    assert run("analyze", "--prices", str(d), "--out", str(out)) == EXIT_INPUT
    assert capsys.readouterr().err.endswith(f"error: {d}: no series with at least two valid prices\n")
    assert not out.exists()


# Prices whose returns overflow, in each layout: the layout, the --prices
# path, the file in it and the ticker that file names.
OVERFLOWING_PRICES = [
    ("per-stock", "prices", "prices/p.csv", "p"),
    ("wide", "wide.csv", "wide.csv", "AA"),
]


@pytest.mark.parametrize("layout, name, file, ticker", OVERFLOWING_PRICES, ids=[row[0] for row in OVERFLOWING_PRICES])
def test_analyze_price_errors_name_the_input(tmp_path, capsys, layout, name, file, ticker):
    path = tmp_path / name
    (tmp_path / file).parent.mkdir(exist_ok=True)
    column = "close" if layout == "per-stock" else ticker
    (tmp_path / file).write_text(f"date,{column}\n2020-01-01,1e-300\n2020-01-02,1e300\n2020-01-03,5\n")
    out = tmp_path / "an"
    assert run("analyze", "--prices", str(path), "--layout", layout, "--out", str(out)) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {path}: {ticker}: returns contain non-finite values\n"
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


@pytest.mark.parametrize("empty_side", ["--empirical", "--model"])
def test_compare_names_the_curve_with_no_populated_bin(tmp_path, capsys, empty_side):
    good = tmp_path / "good.csv"
    good.write_text(CURVE_HEADER + CURVE_ROWS)
    empty = tmp_path / "empty.csv"
    empty.write_text(CURVE_HEADER + "0.001,0.002,,3\n0.002,0.003,,0\n")  # every bin below --min-count
    paths = {"--empirical": good, "--model": good, empty_side: empty}
    out = tmp_path / "o"
    rc = run("compare", *[str(a) for pair in paths.items() for a in pair], "--out", str(out))
    assert rc == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {empty}: curve has no populated bins\n"
    assert not out.exists()


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
        return MfhtCurve(bin_edges=edges, mfht=mfht, counts=np.full(n, 25, dtype=np.int64))

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


# Returns bodies whose rows cross the edges of chunks of CHUNK_EDGE_LINES
# lines: the reader must carry a ticker run and the day check from one chunk
# to the next.
CHUNK_EDGE_LINES = 3
ACCEPTED_ACROSS_CHUNKS = [
    ("16-byte ticker only in a later chunk", _rows("aa", EPISODE) + _rows("T" * 16, EPISODE), ["aa", "T" * 16]),
    ("whitespace-only line in a later chunk",
     "".join(_rows("aa", EPISODE).splitlines(True)[:3]) + " \n" + "".join(_rows("aa", EPISODE).splitlines(True)[3:]),
     ["aa"]),
    ("ticker run across an edge", _rows("aa", EPISODE) + _rows("bb", EPISODE), ["aa", "bb"]),
    ("ticker back in a later chunk",
     "".join(_rows("aa", EPISODE).splitlines(True)[:2]) + _rows("bb", EPISODE)
     + "".join(_rows("aa", EPISODE).splitlines(True)[2:]), ["aa", "bb"]),
]
MALFORMED_ACROSS_CHUNKS = [
    # the fourth data row is the first of the second chunk
    ("day_index break at an edge", "aa,0,0.1\naa,1,0.1\naa,2,0.1\naa,4,0.1\n", 5,
     "day_index 4 out of order for 'aa' (expected 3)"),
    ("day_index of a ticker back in a later chunk", "aa,0,0.1\nbb,0,0.1\nbb,1,0.1\naa,2,0.1\n", 5,
     "day_index 2 out of order for 'aa' (expected 1)"),
    ("bad float in a later chunk", "aa,0,0.1\naa,1,0.1\naa,2,0.1\naa,3,0.1\naa,4,x\n", 6, "'x'"),
    ("non-UTF-8 ticker in a later chunk", b"aa,0,0.1\naa,1,0.1\naa,2,0.1\n\xff,0,0.1\n", 5, "is not UTF-8"),
]


@pytest.mark.parametrize(
    "body, tickers", [row[1:] for row in ACCEPTED_ACROSS_CHUNKS], ids=[row[0] for row in ACCEPTED_ACROSS_CHUNKS]
)
def test_returns_read_across_chunk_edges(tmp_path, monkeypatch, body, tickers):
    monkeypatch.setattr(_io, "_CHUNK_LINES", CHUNK_EDGE_LINES)
    test_returns_csv_layouts_that_are_accepted(tmp_path, body, tickers)


@pytest.mark.parametrize(
    "body, line, needle", [row[1:] for row in MALFORMED_ACROSS_CHUNKS], ids=[row[0] for row in MALFORMED_ACROSS_CHUNKS]
)
def test_returns_faults_in_a_later_chunk_are_one_line_input_errors(tmp_path, capsys, monkeypatch, body, line, needle):
    monkeypatch.setattr(_io, "_CHUNK_LINES", CHUNK_EDGE_LINES)
    path = tmp_path / "returns.csv"
    _write_csv(path, RETURNS_HEADER, body)
    assert run("analyze", "--returns", str(path), "--out", str(tmp_path / "o")) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: line {line}: ") and needle in err and err.count("\n") == 1, err


@pytest.mark.parametrize("kind", ["episodes", "curves"])
def test_faults_in_a_later_chunk_of_episodes_and_curves(tmp_path, capsys, monkeypatch, kind):
    monkeypatch.setattr(_io, "_CHUNK_LINES", CHUNK_EDGE_LINES)
    argv, header, good, bad, needle = CHUNKED_FILES[kind]
    (tmp_path / "good.csv").write_text(CURVE_HEADER + CURVE_ROWS)
    path = tmp_path / "input.csv"
    path.write_text(header + good * 4 + bad + good)
    assert run(*[a.format(good=tmp_path / "good.csv") for a in argv], str(path), "--out", str(tmp_path / "o")) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {path}: line 6: {needle}\n"


@pytest.mark.parametrize("errno_", [errno.ENOSPC, errno.EFBIG], ids=["ENOSPC", "EFBIG"])
def test_a_spool_that_fails_is_one_error_line_and_leaves_nothing(tmp_path, capsys, monkeypatch, errno_):
    path = _write_returns(tmp_path, [(f"s{i}", np.random.default_rng(i).uniform(-0.06, 0.06, 300)) for i in range(4)])
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    spools, real = [], tempfile.TemporaryFile

    def failing(*args, **kwargs):
        spool = real(*args, **kwargs)
        spools.append(spool)
        if len(spools) == 3:
            def write(text):
                raise OSError(errno_, os.strerror(errno_))
            spool.write = write
        return spool

    monkeypatch.setattr(tempfile, "TemporaryFile", failing)
    out = tmp_path / "new" / "o"
    rc = run("analyze", "--returns", str(path), "--window", "fig1b", "--sigma-bar", "0.02", "--out", str(out))
    assert rc == EXIT_INPUT
    assert capsys.readouterr().err == (
        f"error: episodes.csv: temporary file in {temp}: [Errno {errno_}] {os.strerror(errno_)}\n")
    assert len(spools) == 26 and all(spool.closed for spool in spools)
    assert not (tmp_path / "new").exists() and list(temp.iterdir()) == []


def test_analyze_closes_its_spools_on_success_and_on_a_failed_write(tmp_path, capsys, monkeypatch):
    path = _write_returns(tmp_path, [("s", np.random.default_rng(3).uniform(-0.06, 0.06, 300))])
    spools, real = [], tempfile.TemporaryFile
    monkeypatch.setattr(tempfile, "TemporaryFile", lambda *a, **k: spools.append(real(*a, **k)) or spools[-1])
    argv = ["analyze", "--returns", str(path), "--sigma-bar", "0.02"]
    assert run(*argv, "--out", str(tmp_path / "ok")) == 0
    monkeypatch.setattr(cli, "write_curve_csv", lambda *a: (_ for _ in ()).throw(OSError(errno.EFBIG, "File too large")))
    assert run(*argv, "--out", str(tmp_path / "bad")) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: ")
    assert len(spools) == 2 and all(spool.closed for spool in spools)
    assert not (tmp_path / "bad").exists()


def test_analyze_reads_in_chunks_and_holds_no_window_long_ticker_list(tmp_path, monkeypatch):
    import tracemalloc

    from volstab import episodes, returns

    rng = np.random.default_rng(5)
    path = _write_returns(tmp_path, [(f"s{i:03d}", rng.standard_t(4, 400) * 0.02) for i in range(100)])
    n_rows = 100 * 400
    monkeypatch.setattr(_io, "_CHUNK_LINES", 1024)
    monkeypatch.setattr(returns, "_BLOCK_VALUES", 4000)  # ten blocks of series
    longest = []

    class Recorded(episodes.EpisodeTable):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            longest.append(len(self.tickers))

    monkeypatch.setattr(episodes, "EpisodeTable", Recorded)
    read = cli.read_returns_csv
    peaks = []

    def traced_read(*args):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = read(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - base)
        return result

    monkeypatch.setattr(cli, "read_returns_csv", traced_read)
    tracemalloc.start()
    try:
        assert run("analyze", "--returns", str(path), "--window", "fig1a", "--out", str(tmp_path / "o")) == 0
    finally:
        tracemalloc.stop()
    assert peaks[0] < 32 * n_rows  # the whole file's structured array would take 32 bytes a row
    rows = len((tmp_path / "o" / "episodes.csv").read_text().splitlines()) - 1
    assert 0 < max(longest) < rows  # no window's tickers are ever listed whole
