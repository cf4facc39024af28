"""Shared test utilities: the quadratic reference episode scanner and the row-by-row writers.

The reference scanner is deliberately independent of the package: it walks
every candidate start day and scans forward for the first hit, with both
directions spelled out as explicit inequalities.  The reference writers
build each CSV one f-string per row, with ``repr`` for every float: the
text the column-wise writers must reproduce byte for byte.
"""

from __future__ import annotations

import math

import numpy as np


def oracle_episodes(
    r,
    theta_i_abs: float,
    theta_f_abs: float,
    direction: str,
    entry_rule: str = "crossing",
    vol_scope: str = "window",
) -> list[tuple[int, int, float]]:
    """Quadratic-time scan returning (start, fht, volatility) tuples."""
    r = np.asarray(r, dtype=float)
    n = r.size

    if direction == "crash":
        def entered(t):
            return r[t] <= theta_i_abs

        def hit(t):
            return r[t] <= theta_f_abs
    else:
        def entered(t):
            return r[t] >= theta_i_abs

        def hit(t):
            return r[t] >= theta_f_abs

    episodes = []
    prev_hit = -1
    t = 0
    while t < n:
        ok = entered(t)
        if ok and entry_rule == "crossing" and t > 0:
            ok = not entered(t - 1)
        if not ok:
            if hit(t):  # hit day passed without opening an episode
                prev_hit = t
            t += 1
            continue
        if hit(t):
            # jump straight through the window: no episode
            prev_hit = t
            t += 1
            continue
        u = t + 1
        while u < n and not hit(u):
            u += 1
        if u == n:
            break  # open at series end: censored, discarded
        if vol_scope == "window":
            seg = r[t : u + 1]
        elif vol_scope == "no-entry":
            seg = r[t + 1 : u + 1]
        elif vol_scope == "no-hit":
            seg = r[t:u]
        elif vol_scope == "interior":
            seg = r[t + 1 : u]
        elif vol_scope == "stretch":
            seg = r[prev_hit + 1 : u + 1]
        else:
            raise ValueError(vol_scope)
        vol = float(np.std(seg)) if seg.size else math.nan
        episodes.append((t, u - t, vol))
        prev_hit = u
        t = u + 1
    return episodes


def random_windows(rng: np.random.Generator, sigma_bar: float, n_crash: int, n_rally: int):
    """Random crash and rally windows with varied start levels and widths."""
    from volstab.episodes import ThresholdWindow

    windows = []
    for _ in range(n_crash):
        ti = rng.uniform(-1.2, 0.8)
        width = rng.uniform(0.3, 2.2)
        windows.append(ThresholdWindow(round(ti, 3), round(ti - width, 3), sigma_bar, "crash"))
    for _ in range(n_rally):
        ti = rng.uniform(-0.8, 1.2)
        width = rng.uniform(0.3, 2.2)
        windows.append(ThresholdWindow(round(ti, 3), round(ti + width, 3), sigma_bar, "rally"))
    return windows


def assert_episodes_match(table, expected, context: str = ""):
    """Exact (start, fht) agreement of an EpisodeTable with oracle tuples;
    volatilities equal to float tolerance."""
    got = list(zip(table.start_index.tolist(), table.fht.tolist()))
    want = [(s, f) for s, f, _ in expected]
    assert got == want, f"{context}: episodes {got} != oracle {want}"
    for got_vol, (_, _, vol) in zip(table.volatility.tolist(), expected):
        if math.isnan(vol):
            assert math.isnan(got_vol), context
        else:
            # prefix-sum variance carries O(sqrt(eps)) absolute noise near zero
            assert math.isclose(got_vol, vol, rel_tol=1e-9, abs_tol=1e-9), (
                f"{context}: volatility {got_vol} != {vol}"
            )


def oracle_returns_csv(ensemble) -> str:
    """``returns.csv`` text, one row at a time."""
    rows = ["ticker,day_index,return\n"]
    for rs in ensemble:
        rows.extend(f"{rs.ticker},{i},{r!r}\n" for i, r in enumerate(rs.returns.tolist()))
    return "".join(rows)


def oracle_episodes_csv(tables) -> str:
    """``episodes.csv`` text, one row at a time."""
    rows = ["ticker,window_id,theta_i,theta_f,start_index,fht,volatility\n"]
    for table in tables:
        w = table.window
        head = f"{w.window_id},{float(w.theta_i)!r},{float(w.theta_f)!r}"
        rows.extend(
            f"{t},{head},{s},{f},{v!r}\n"
            for t, s, f, v in zip(
                table.tickers, table.start_index.tolist(), table.fht.tolist(), table.volatility.tolist()
            )
        )
    return "".join(rows)


def oracle_trajectories_csv(x, v) -> str:
    """``trajectories.csv`` text, one row at a time."""
    rows = ["series,day,x,v\n"]
    for i, (xs, vs) in enumerate(zip(x.tolist(), v.tolist())):
        rows.extend(f"{i},{d},{xv!r},{vv!r}\n" for d, (xv, vv) in enumerate(zip(xs, vs)))
    return "".join(rows)
