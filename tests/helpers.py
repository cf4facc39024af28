"""Shared test utilities: the reference Euler step, an Ensemble built from
``(ticker, values)`` pairs, the quadratic reference episode scanner, the
per-series reductions and the row-by-row writers.

The reference step states the model's update as plain numpy expressions:
``potential_gradient`` and ``heston_step`` for the return state,
``cir_step_raw`` for the full-truncation variance update.  The integrator
in ``volstab.model`` runs the same floating-point operations in the same
order in place, so composing these gives its bits exactly.

The reference scanner is deliberately independent of the package: it walks
every candidate start day and scans forward for the first hit, with both
directions spelled out as explicit inequalities.  The reference reductions
make one numpy call per series, the bits an Ensemble's blocked calls must
give.  The reference writers build each CSV one f-string per row, with
``repr`` for every float: the text the column-wise writers must reproduce
byte for byte.
"""

from __future__ import annotations

import math

import numpy as np


def potential(x, p):
    """U(x) = m x^3 + n x^2 of the ModelParams ``p``; accepts scalars or arrays."""
    return p.m * x**3 + p.n * x**2


def potential_gradient(x, p):
    """U'(x) = 3m x^2 + 2n x; accepts scalars or arrays."""
    return 3.0 * p.m * x**2 + 2.0 * p.n * x


def cir_step_raw(v, p, dt: float, dw):
    """One full-truncation Euler update of the variance, without flooring the new state.

    ``dw`` is a Normal(0, dt) increment.  Only max(v, 0) feeds the drift
    and the diffusion; the state itself may go (slightly) negative and is
    carried as-is.
    """
    vplus = np.maximum(v, 0.0)
    return v + p.a * (p.b - vplus) * dt + p.c * np.sqrt(vplus) * dw


def heston_step(x, v, p, dt: float, dw1):
    """One Euler update of the return state at current variance v >= 0."""
    return x - (potential_gradient(x, p) + 0.5 * v) * dt + np.sqrt(v) * dw1


def make_ensemble(series):
    """The Ensemble of ``(ticker, values)`` pairs, in their order."""
    from volstab.returns import Ensemble

    values = [np.asarray(v, dtype=float) for _, v in series]
    offsets = np.cumsum([0, *map(len, values)])
    return Ensemble([t for t, _ in series], np.concatenate([np.empty(0), *values]), offsets)


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
        windows.append(ThresholdWindow(round(ti, 3), round(ti - width, 3), sigma_bar))
    for _ in range(n_rally):
        ti = rng.uniform(-0.8, 1.2)
        width = rng.uniform(0.3, 2.2)
        windows.append(ThresholdWindow(round(ti, 3), round(ti + width, 3), sigma_bar))
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


def oracle_sigmas_and_sums(ensemble) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each series' ``np.std``, and its ``np.cumsum`` of returns and of squared
    returns led by a 0.0, one numpy call per series: what ``Ensemble.sigmas``
    and ``Ensemble.prefix_sums`` hold."""
    sigmas, s1, s2 = [], [], []
    for a, b in zip(ensemble.offsets[:-1].tolist(), ensemble.offsets[1:].tolist()):
        y = ensemble.values[a:b]
        sigmas.append(np.std(y))
        s1 += [[0.0], np.cumsum(y)]
        s2 += [[0.0], np.cumsum(y * y)]
    return np.array(sigmas), np.concatenate(s1), np.concatenate(s2)


def oracle_table_rows(path, dtype) -> np.ndarray:
    """The rows numpy parses from a CSV's nonblank lines after the header,
    handed to it one line at a time."""
    with open(path, encoding="latin-1") as fh:
        lines = [line for line in list(fh)[1:] if line.strip()]
    if not lines:
        return np.empty(0, dtype)
    return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1, encoding="latin-1")


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
