"""Output checks for the benchmark's workloads, and the references they use.

Nothing here imports volstab: the references are the benchmark's own, so
a defect in the package cannot also hide in its check.  Every check
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from inputs import AnalyzeInput

# The default model of `volstab simulate` (README, "Model"), which the
# simulate workloads run and the reference integrator repeats.
M, N, A, B, C = 2.0, 3.0, 2.0, 0.01, 0.83
V_START, X0, DT, STEPS_PER_DAY = 8.62e-5, 0.0, 7.0e-4, 100

RETURNS_HEADER = "ticker,day_index,return"
EPISODES_HEADER = "ticker,window_id,theta_i,theta_f,start_index,fht,volatility"
VOL_TOL = 1e-9  # prefix-sum variance carries O(sqrt(eps)) absolute noise


def reference_returns(seed: int, series: int, days: int) -> list[float]:
    """Daily returns of one series by a scalar full-truncation Euler loop.

    It draws the same SeedSequence(seed, spawn_key=(series, 0|1)) streams
    as the package and performs the same floating-point operations in the
    same order, so its output must match the package's bit for bit.
    """
    sqdt = math.sqrt(DT)
    steps = days * STEPS_PER_DAY
    dw = [
        (np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(series, k))).standard_normal(steps) * sqdt).tolist()
        for k in (0, 1)
    ]
    dw1, dw2 = dw
    barrier = -2.0 * N / (3.0 * M)
    x, v = X0, V_START
    out = []
    for d in range(days):
        x_day = x
        for s in range(d * STEPS_PER_DAY, (d + 1) * STEPS_PER_DAY):
            vplus = v if v >= 0.0 else 0.0
            root = math.sqrt(vplus)
            xnext = x - (3.0 * M * (x * x) + 2.0 * N * x + 0.5 * vplus) * DT + root * dw1[s]
            v = v + A * (B - vplus) * DT + C * root * dw2[s]
            x = 2.0 * barrier - xnext if xnext < barrier else xnext
        out.append(x - x_day)
    return out


def check_simulate(out: Path, seed: int, n_series: int, days: int, sample: list[int]) -> list[str]:
    """returns.csv against the reference integrator on ``sample``, and every row against stats.json."""
    try:
        lines = (out / "returns.csv").read_text().splitlines()
        stats = json.loads((out / "stats.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    if lines[:1] != [RETURNS_HEADER] or len(lines) != 1 + n_series * days:
        return [f"returns.csv: expected a header and {n_series * days} rows, got {len(lines)} lines"]
    problems = []
    for i in sample:
        want = [f"sim{i:04d},{d},{r!r}" for d, r in enumerate(reference_returns(seed, i, days))]
        if lines[1 + i * days : 1 + (i + 1) * days] != want:
            problems.append(f"returns.csv: series {i} differs from the reference integrator")

    values = np.empty((n_series, days))
    for row, line in enumerate(lines[1:]):
        i, d = divmod(row, days)
        ticker, index, value = line.split(",")
        if ticker != f"sim{i:04d}" or int(index) != d:
            return problems + [f"returns.csv: line {row + 2}: expected sim{i:04d},{d}"]
        values[i, d] = float(value)
    sigmas = [float(np.std(values[i])) for i in range(n_series)]
    per_series = stats.get("per_series_sigma", {})
    bad = [i for i in range(n_series) if per_series.get(f"sim{i:04d}") != sigmas[i]]
    if bad:
        problems.append(f"returns.csv: {len(bad)} series disagree with stats.json, first sim{bad[0]:04d}")
    if stats.get("n_series") != n_series or stats.get("sigma_bar") != math.fsum(sigmas) / n_series:
        problems.append("stats.json: n_series or sigma_bar disagrees with returns.csv")
    return problems


def window_family(name: str) -> list[tuple[str, float, float, str]]:
    """(window_id, theta_i, theta_f, direction) of the families the workloads use."""
    if name == "fig1b":
        specs = [(k / 10.0, round(k / 10.0 - 1.4, 10), "crash") for k in range(9, -17, -1)]
    else:
        raise ValueError(f"no reference windows for {name!r}")
    return [(f"{d}_ti{ti:+.2f}_tf{tf:+.2f}", ti, tf, d) for ti, tf, d in specs]


def oracle_episodes(r: np.ndarray, ti_abs: float, tf_abs: float, direction: str) -> list[tuple[int, int, float]]:
    """Quadratic scan for (start, fht, volatility): crossing entry, window volatility scope."""
    n = r.size
    if direction == "crash":
        def entered(t):
            return r[t] <= ti_abs

        def hit(t):
            return r[t] <= tf_abs
    else:
        def entered(t):
            return r[t] >= ti_abs

        def hit(t):
            return r[t] >= tf_abs

    episodes = []
    t = 0
    while t < n:
        if not entered(t) or (t > 0 and entered(t - 1)) or hit(t):
            t += 1  # no entry, or a jump straight through the window
            continue
        u = t + 1
        while u < n and not hit(u):
            u += 1
        if u == n:
            break  # still open at the series end: discarded
        episodes.append((t, u - t, float(np.std(r[t : u + 1]))))
        t = u + 1
    return episodes


def _unsound_rows(y: np.ndarray, row: np.ndarray, start: np.ndarray, fht: np.ndarray,
                  vol: np.ndarray, ti: float, tf: float) -> np.ndarray:
    """Mask of episodes that are not a first-hitting episode of their series.

    ``y`` holds the series as rows, NaN-padded and mirrored onto the crash
    side; an episode must start at the first crossing entry after the
    previous hit, end at the first hit after its start, and carry the
    standard deviation of the returns it spans.
    """
    n = y.shape[1]
    cols = np.arange(n)
    hit = y <= tf
    entry = y <= ti
    entry[:, 1:] &= y[:, :-1] > ti
    next_hit = np.minimum.accumulate(np.where(hit, cols, n)[:, ::-1], axis=1)[:, ::-1]
    prev_hit = np.maximum.accumulate(np.where(hit, cols, -1), axis=1)
    next_entry = np.minimum.accumulate(np.where(entry, cols, n)[:, ::-1], axis=1)[:, ::-1]

    end = start + fht
    bad = (start < 0) | (fht < 1) | (end >= n)
    s = np.where(bad, 0, start)
    e = np.where(bad, 0, end)
    before = np.where(s > 0, prev_hit[row, np.maximum(s - 1, 0)], -1)
    bad |= ~entry[row, s] | (next_hit[row, s] != e) | (next_entry[row, before + 1] != s)

    ok = np.flatnonzero(~bad)
    if ok.size:
        lens = fht[ok] + 1
        first = np.cumsum(lens) - lens
        idx = np.repeat(row[ok] * n + s[ok], lens) + np.arange(lens.sum()) - np.repeat(first, lens)
        vals = y.ravel()[idx]
        mean = np.add.reduceat(vals, first) / lens
        dev = vals - np.repeat(mean, lens)
        std = np.sqrt(np.add.reduceat(dev * dev, first) / lens)
        bad[ok] = ~np.isclose(vol[ok], std, rtol=VOL_TOL, atol=VOL_TOL)
    return bad


def _read_episodes(path: Path, tickers: dict[str, int]) -> dict[str, dict]:
    groups: dict[str, dict] = {}
    with open(path) as fh:
        if fh.readline().rstrip("\n") != EPISODES_HEADER:
            raise ValueError("unexpected header")
        for line_no, line in enumerate(fh, start=2):
            ticker, window_id, ti, tf, start, fht, vol = line.rstrip("\n").split(",")
            if ticker not in tickers:
                raise ValueError(f"line {line_no}: unknown ticker {ticker!r}")
            g = groups.setdefault(window_id, {"theta": (float(ti), float(tf)), "row": [], "start": [], "fht": [], "vol": []})
            g["row"].append(tickers[ticker])
            g["start"].append(int(start))
            g["fht"].append(int(fht))
            g["vol"].append(float(vol))
    for g in groups.values():
        for key, dtype in (("row", np.int64), ("start", np.int64), ("fht", np.int64), ("vol", float)):
            g[key] = np.array(g[key], dtype=dtype)
    return groups


def check_analyze(out: Path, data: AnalyzeInput, family: str, sample: list[int]) -> list[str]:
    """episodes.csv, the curves and verdicts.json against the input series."""
    windows = window_family(family)
    index = {t: i for i, t in enumerate(data.tickers)}
    try:
        sigma_bar = json.loads((out / "manifest.json").read_text())["sigma_bar"]
        groups = _read_episodes(out / "episodes.csv", index)
        verdicts = json.loads((out / "verdicts.json").read_text())
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable output: {exc}"]
    problems = []
    expected_sigma_bar = math.fsum(float(np.std(r)) for r in data.returns) / len(data.returns)
    if not math.isclose(sigma_bar, expected_sigma_bar, rel_tol=1e-12):
        problems.append(f"sigma_bar {sigma_bar!r} != {expected_sigma_bar!r} computed from the input")
    ids = [w[0] for w in windows]
    if unknown := set(groups) - set(ids):
        problems.append(f"episodes.csv: unexpected windows {sorted(unknown)}")
    if [v.get("window_id") for v in verdicts] != ids:
        problems.append("verdicts.json: window ids differ from the window family")

    width = max(r.size for r in data.returns)
    padded = np.full((len(data.returns), width), np.nan)
    for i, r in enumerate(data.returns):
        padded[i, : r.size] = r
    curve_files = {p.name for p in out.glob("curve_*.csv")}
    for window_id, ti, tf, direction in windows:
        ti_abs, tf_abs = ti * sigma_bar, tf * sigma_bar
        empty = np.empty(0, dtype=np.int64)
        g = groups.get(window_id, {"theta": (ti, tf), "row": empty, "start": empty, "fht": empty, "vol": np.empty(0)})
        if g["theta"] != (ti, tf):
            problems.append(f"{window_id}: thetas {g['theta']} != {(ti, tf)}")
        row, start = g["row"], g["start"]
        order = np.diff(row) * (2 * width + 2) + np.diff(start)
        if np.any(order <= 0):
            problems.append(f"{window_id}: episodes are not in ticker, start order")
        sign = -1.0 if direction == "rally" else 1.0
        bad = _unsound_rows(sign * padded, row, start, g["fht"], g["vol"], sign * ti_abs, sign * tf_abs)
        if bad.any():
            problems.append(f"{window_id}: {int(bad.sum())} rows are not first-hitting episodes of the input")
        for i in sample:
            mine = row == i
            want = oracle_episodes(data.returns[i], ti_abs, tf_abs, direction)
            got = list(zip(start[mine].tolist(), g["fht"][mine].tolist()))
            if got != [(s, f) for s, f, _ in want] or not all(
                math.isclose(v, w[2], rel_tol=VOL_TOL, abs_tol=VOL_TOL) for v, w in zip(g["vol"][mine].tolist(), want)
            ):
                problems.append(f"{window_id}: {data.tickers[i]} differs from the oracle")
        usable = int(np.count_nonzero(np.isfinite(g["vol"]) & (g["vol"] > 0)))
        name = f"curve_{window_id}.csv"
        if usable and name in curve_files:
            lines = (out / name).read_text().splitlines()[1:]
            total = sum(int(line.rsplit(",", 1)[1]) for line in lines)
            if total != usable:
                problems.append(f"{name}: counts add up to {total}, not {usable}")
        elif usable or name in curve_files:
            problems.append(f"{name}: {'missing' if usable else 'written for a window without episodes'}")
        curve_files.discard(name)
    if curve_files:
        problems.append(f"unexpected curve files {sorted(curve_files)}")
    return problems
