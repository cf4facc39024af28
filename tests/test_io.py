"""The column-wise writers against the row-by-row oracles in helpers.py,
and the table reader against a parse of the file's nonblank lines."""

import io
import tempfile
from contextlib import ExitStack
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    make_ensemble,
    oracle_episodes_csv,
    oracle_returns_csv,
    oracle_table_rows,
    oracle_trajectories_csv,
)
from volstab import _io
from volstab._io import distinct_texts, fmt, read_rows, write_rows
from volstab.cli import main, write_trajectories_csv
from volstab.episodes import (
    _EPISODE_DTYPE,
    EpisodeTable,
    ThresholdWindow,
    read_episodes_csv,
    write_episode_rows,
    write_episodes_csv,
)
from volstab.model import ModelParams, SimConfig, daily_returns, simulate_ensemble
from volstab.returns import _RETURNS_DTYPE, read_returns_csv, write_returns_csv

# Values where repr's text changes shape: signed zero, subnormals, the
# smallest normal, integral values, and both sides of 1e-4 and 1e16, where
# repr switches to exponent form.
EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 1.5e-320, 2.2250738585072014e-308, 1.0, -3.0, 12345.0,
    1e-4, 9.999999999999999e-05, 1.0000000000000002e-4, -1e-4, 1e-5,
    1e16, 9999999999999998.0, 1.0000000000000002e16, -1e16, 1e15, 1e17, 1e100,
]
# Finite and small enough that an ensemble's standard deviations stay finite.
FLOATS = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(-1e100, 1e100),
    st.integers(-(10**17), 10**17).map(float),
    st.floats(1e-5, 1e-3).flatmap(lambda x: st.sampled_from([x, -x])),
    st.floats(1e15, 1e17).flatmap(lambda x: st.sampled_from([x, -x])),
)
# Ticker text the returns reader keeps as it is: no separators, quotes or
# leading blanks.
TICKERS = st.text(alphabet="abcXYZ09_.-é€", min_size=1, max_size=6)
# Also tickers past the readers' first 16-byte guess at the ticker width.
# Window ids of large thetas pass their 32-byte guess the same way.
LONG_TICKERS = st.one_of(TICKERS, st.text(alphabet="abcXYZ09_.-é€", min_size=12, max_size=40))


@st.composite
def ragged_ensembles(draw):
    series = draw(st.lists(st.lists(FLOATS, min_size=1, max_size=25), min_size=1, max_size=6))
    tickers = draw(st.lists(TICKERS, min_size=len(series), max_size=len(series), unique=True))
    return make_ensemble(list(zip(tickers, series)))


@settings(max_examples=200, deadline=None)
@given(ensemble=ragged_ensembles())
def test_returns_csv_matches_row_oracle_and_reads_back_bit_for_bit(ensemble):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "returns.csv"
        write_returns_csv(ensemble, path)
        assert path.read_bytes() == oracle_returns_csv(ensemble).encode()
        back = read_returns_csv(path)
    assert back.tickers == ensemble.tickers
    assert back.offsets.tolist() == ensemble.offsets.tolist()
    assert back.values.view(np.int64).tolist() == ensemble.values.view(np.int64).tolist()


# Standard deviations: not negative, or NaN where no day was in scope.
VOLATILITIES = st.one_of(FLOATS.map(abs), st.sampled_from([-0.0, float("nan")]))


@st.composite
def episode_tables(draw):
    # Neighbouring windows share volatilities, so all tables draw from one
    # pool.  It holds 0.0 and -0.0, equal values with other bits and texts,
    # and NaN, which equals nothing.
    pool = [0.0, -0.0, float("nan"), *draw(st.lists(VOLATILITIES, max_size=6))]
    tables = []
    for _ in range(draw(st.integers(0, 4))):
        ti, width = draw(FLOATS), draw(st.floats(1e-3, 1e3))
        tf = ti + width if draw(st.booleans()) else ti - width
        assume(tf != ti)  # a width lost to rounding at large |ti|
        n = draw(st.integers(0, 12))

        def column(cells):
            return draw(st.lists(cells, min_size=n, max_size=n))

        tables.append(
            EpisodeTable(
                window=ThresholdWindow(ti, tf, draw(st.floats(1e-3, 1.0))),
                tickers=column(LONG_TICKERS),
                start_index=np.array(column(st.integers(0, 10**12)), dtype=np.int64),
                fht=np.array(column(st.integers(1, 10**12)), dtype=np.int64),
                volatility=np.array(column(st.sampled_from(pool)), dtype=float),
            )
        )
    return tables


def _rows_of(table: EpisodeTable, rows: slice) -> EpisodeTable:
    return EpisodeTable(table.window, table.tickers[rows], table.start_index[rows], table.fht[rows],
                        table.volatility[rows])


def write_tables(tables: list[EpisodeTable], path: Path, cut: int = 0) -> None:
    """Write ``tables`` as analyze does, each to its own spool: rows before ``cut`` as one block, the rest as the next."""
    with ExitStack() as stack:
        spools = [stack.enter_context(tempfile.TemporaryFile("w+", encoding="utf-8", newline="")) for _ in tables]
        for rows in (slice(None, cut), slice(cut, None)):
            write_episode_rows(spools, [_rows_of(table, rows) for table in tables])
        write_episodes_csv(spools, path)


@settings(max_examples=200, deadline=None)
@given(tables=episode_tables(), cut=st.integers(0, 12))
def test_episodes_csv_matches_row_oracle(tables, cut):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "episodes.csv"
        write_tables(tables, path, cut)
        assert path.read_bytes() == oracle_episodes_csv(tables).encode()
        # Tables that share a window id are one window to the reader.
        tables = [t for t in tables if len(t)]
        if len({t.window.window_id for t in tables}) < len(tables):
            return
        back = read_episodes_csv(path)
    assert len(back) == len(tables)
    for got, want in zip(back, tables):
        assert (got.window.theta_i, got.window.theta_f) == (want.window.theta_i, want.window.theta_f)
        assert got.window.direction == want.window.direction
        assert got.tickers == want.tickers
        assert got.start_index.tolist() == want.start_index.tolist()
        assert got.fht.tolist() == want.fht.tolist()
        assert got.volatility.view(np.int64).tolist() == want.volatility.view(np.int64).tolist()


@settings(max_examples=200, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 6), st.integers(1, 12)),
    data=st.data(),
)
def test_trajectories_csv_matches_row_oracle(shape, data):
    n = shape[0] * shape[1]
    x = np.array(data.draw(st.lists(FLOATS, min_size=n, max_size=n))).reshape(shape)
    v = np.array(data.draw(st.lists(FLOATS, min_size=n, max_size=n))).reshape(shape)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "trajectories.csv"
        write_trajectories_csv(x, v, path)
        assert path.read_bytes() == oracle_trajectories_csv(x, v).encode()


@settings(max_examples=15, deadline=None)
@given(
    n_series=st.integers(1, 6),
    days=st.integers(0, 6),
    steps_per_day=st.integers(1, 3),
    seed=st.integers(0, 2**32),
)
def test_simulate_writes_row_oracle_bytes(n_series, days, steps_per_day, seed):
    cfg = SimConfig(dt=7e-4, steps_per_day=steps_per_day, days=days, n_series=n_series, seed=seed)
    x, v = simulate_ensemble(ModelParams(), cfg)
    with tempfile.TemporaryDirectory() as d:
        out = Path(d) / "sim"
        argv = ["simulate", "--n-series", str(n_series), "--days", str(days),
                "--steps-per-day", str(steps_per_day), "--seed", str(seed)]
        assert main([*argv, "--write-trajectories", "--out", str(out)]) == 0
        assert (out / "trajectories.csv").read_bytes() == oracle_trajectories_csv(x, v).encode()
        if days:
            ensemble = daily_returns(x, [f"sim{i:04d}" for i in range(n_series)])
            assert (out / "returns.csv").read_bytes() == oracle_returns_csv(ensemble).encode()


INT64 = np.iinfo(np.int64)


@pytest.mark.parametrize(
    "values, dtype",
    [
        ([], np.int64),
        ([0], np.int64),
        ([0, 0, 0], np.int64),
        ([-3, -1, -2, -3], np.int64),
        ([-1, 0, 1, 0, -1], np.int64),
        ([INT64.min, INT64.max], np.int64),
        ([INT64.min, INT64.min + 1, INT64.min], np.int64),
        ([INT64.max, INT64.max - 1, INT64.max], np.int64),
        ([0, 10**12], np.int64),  # a span beyond the column's length
        ([5, 3, 9], np.int64),  # a span of 7 values in 3 cells
        ([2**64 - 1, 2**64 - 2], np.uint64),
        ([-7, 7, 0], np.int32),
    ],
)
def test_integer_columns_are_written_as_str_writes_them(values, dtype):
    column = np.array(values, dtype=dtype)
    fh = io.StringIO()
    write_rows(fh, column, ",", column[::-1])
    assert fh.getvalue() == "".join(f"{a},{b}\n" for a, b in zip(values, values[::-1]))
    assert distinct_texts([column, column[::-1]]) == [list(map(str, values)), list(map(str, values[::-1]))]


def test_distinct_float_texts_are_fmt_texts_matched_by_bits():
    # 0.0 and -0.0 are equal with other bits and texts; NaN equals nothing,
    # and a NaN with its sign bit set has other bits.
    values = [*EDGE_FLOATS, float("nan"), 0.0, -0.0, *EDGE_FLOATS[::-1], -float("nan"), float("nan")]
    columns = [np.array(values[:9]), np.array(values[9:])]
    assert distinct_texts(columns) == [[fmt(x) for x in column] for column in columns]
    assert distinct_texts([np.empty(0), columns[0][:0]]) == [[], []]
    assert distinct_texts([]) == []


@st.composite
def reformatted(draw, text: str) -> tuple[str, list[int]]:
    """``text``'s lines with blank and whitespace-only lines put among them,
    one line ending throughout and maybe none after the last line; and the
    file line of each of ``text``'s data rows."""
    header, *rows = text.splitlines()
    junk = st.lists(st.text(alphabet=" \t\f", max_size=3), max_size=3)
    lines, line_of = [header], []
    for row in rows:
        lines += draw(junk)
        line_of.append(len(lines) + 1)
        lines.append(row)
    lines += draw(junk)
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from([end, ""])), line_of


def _assert_reads_like_its_nonblank_lines(path: Path, text: str, line_numbers: list[int], dtype):
    path.write_bytes(text.encode())
    rows, line_of = read_rows(path, dtype)
    oracle = oracle_table_rows(path, dtype)
    assert rows.dtype == oracle.dtype
    for name in dtype.names:  # text cells by value, numbers by their bits
        if dtype[name].kind == "O":
            assert rows[name].tolist() == oracle[name].tolist()
        else:
            assert rows[name].tobytes() == oracle[name].tobytes()
    assert [line_of(k) for k in range(rows.size)] == line_numbers


# Chunks of a few lines, so that runs and blank lines fall across chunk
# edges, and the chunk the reader reads.
CHUNK_LINES = st.sampled_from([1, 2, 3, _io._CHUNK_LINES])


@settings(max_examples=100, deadline=None)
@given(ensemble=ragged_ensembles(), data=st.data(), chunk=CHUNK_LINES)
def test_returns_file_with_blank_lines_and_any_line_ending_reads_as_its_rows(ensemble, data, chunk):
    with tempfile.TemporaryDirectory() as d, mock.patch.object(_io, "_CHUNK_LINES", chunk):
        path = Path(d) / "returns.csv"
        text, line_numbers = data.draw(reformatted(oracle_returns_csv(ensemble)))
        _assert_reads_like_its_nonblank_lines(path, text, line_numbers, _RETURNS_DTYPE)
        back = read_returns_csv(path)
    assert back.tickers == ensemble.tickers
    assert back.values.view(np.int64).tolist() == ensemble.values.view(np.int64).tolist()


@settings(max_examples=100, deadline=None)
@given(tables=episode_tables(), data=st.data(), chunk=CHUNK_LINES)
def test_episodes_file_with_blank_lines_and_any_line_ending_reads_as_its_rows(tables, data, chunk):
    with tempfile.TemporaryDirectory() as d, mock.patch.object(_io, "_CHUNK_LINES", chunk):
        path = Path(d) / "episodes.csv"
        text, line_numbers = data.draw(reformatted(oracle_episodes_csv(tables)))
        _assert_reads_like_its_nonblank_lines(path, text, line_numbers, _EPISODE_DTYPE)
        if len({t.window.window_id for t in tables if len(t)}) < len([t for t in tables if len(t)]):
            return  # tables that share a window id are one window to the reader
        back = read_episodes_csv(path)
    assert [t.tickers for t in back] == [t.tickers for t in tables if len(t)]
    assert [t.fht.tolist() for t in back] == [t.fht.tolist() for t in tables if len(t)]


@pytest.mark.parametrize("blank", [" ", "\t", "\f", " \t\f "])
def test_whitespace_only_lines_are_skipped(tmp_path, blank):
    # numpy's parser refuses such a line; the reader parses the file again without it
    path = tmp_path / "returns.csv"
    text = f"ticker,day_index,return\naa,0,0.5\n{blank}\naa,1,-0.25\n"
    _assert_reads_like_its_nonblank_lines(path, text, [2, 4], _RETURNS_DTYPE)
    assert read_returns_csv(path).values.tolist() == [0.5, -0.25]


def test_a_text_cell_comes_back_whole(tmp_path):
    """The readers parse each text column as an object field: numpy must hand
    over every cell's bytes, as latin-1 text, with none cut, stripped or dropped."""
    cells = [b"x" * 300, b"  a b  ", b" ", b"ab\0", b"\0", b"a\0b", bytes(range(0x80, 0x100))]
    path = tmp_path / "cells.csv"
    path.write_bytes(b"a,n,b\n" + b"".join(b"%s,%d,%s\n" % (cell, k, cell[::-1]) for k, cell in enumerate(cells)))
    dtype = np.dtype([("a", object), ("n", np.int64), ("b", object)])
    rows, _ = read_rows(path, dtype)
    assert [cell.encode("latin-1") for cell in rows["a"].tolist()] == cells
    assert [cell.encode("latin-1") for cell in rows["b"].tolist()] == [cell[::-1] for cell in cells]
    assert rows["n"].tolist() == list(range(len(cells)))


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_plain_text_file_with_a_compression_suffix_reads(tmp_path, suffix):
    path = tmp_path / f"returns.csv{suffix}"
    path.write_text("ticker,day_index,return\naa,0,0.5\naa,1,-0.25\n")
    assert read_returns_csv(path).values.tolist() == [0.5, -0.25]
