"""The column-wise writers against the row-by-row oracles in helpers.py."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import oracle_episodes_csv, oracle_returns_csv, oracle_trajectories_csv
from volstab.cli import main, write_trajectories_csv
from volstab.episodes import EpisodeTable, ThresholdWindow, write_episodes_csv
from volstab.model import ModelParams, SimConfig, daily_returns, simulate_ensemble
from volstab.returns import Ensemble, read_returns_csv, write_returns_csv

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


@st.composite
def ragged_ensembles(draw):
    series = draw(st.lists(st.lists(FLOATS, min_size=1, max_size=25), min_size=1, max_size=6))
    tickers = draw(st.lists(TICKERS, min_size=len(series), max_size=len(series), unique=True))
    lengths = [len(s) for s in series]
    return Ensemble(tickers, np.array([x for s in series for x in s]), np.cumsum([0] + lengths))


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


@st.composite
def episode_tables(draw):
    tables = []
    for _ in range(draw(st.integers(0, 4))):
        ti, width = draw(FLOATS), draw(st.floats(1e-3, 1e3))
        tf = ti - width
        direction = "crash"
        if draw(st.booleans()):
            tf, direction = ti + width, "rally"
        assume(tf != ti)  # a width lost to rounding at large |ti|
        n = draw(st.integers(0, 12))

        def column(cells):
            return draw(st.lists(cells, min_size=n, max_size=n))

        tables.append(
            EpisodeTable(
                window=ThresholdWindow(ti, tf, draw(st.floats(1e-3, 1.0)), direction),
                tickers=column(TICKERS),
                start_index=np.array(column(st.integers(0, 10**12)), dtype=np.int64),
                fht=np.array(column(st.integers(1, 10**12)), dtype=np.int64),
                volatility=np.array(column(st.one_of(FLOATS, st.just(float("nan")))), dtype=float),
            )
        )
    return tables


@settings(max_examples=200, deadline=None)
@given(tables=episode_tables())
def test_episodes_csv_matches_row_oracle(tables):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "episodes.csv"
        write_episodes_csv(tables, path)
        assert path.read_bytes() == oracle_episodes_csv(tables).encode()


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
