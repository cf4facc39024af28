"""Daily-return ensembles from a cubic-well drift with square-root variance.

The state pair (x, v) evolves by Euler-Maruyama on a fine grid and is
recorded once per trading day:

    dx = -(U'(x) + v/2) dt + sqrt(v) dW1,    U(x) = m x^3 + n x^2
    dv = a (b - v) dt + c sqrt(v) dW2

The variance update uses the full-truncation Euler scheme: the integrator
carries the raw Euler state, feeds only its nonnegative part into drift,
diffusion and the return equation, and reports max(v, 0) at day boundaries,
so sampled variances stay nonnegative even when 2ab < c^2 and the
continuous process can reach zero.  Carrying the unfloored state is what
keeps the scheme's long-run mean of max(v, 0) at b: flooring the state
itself would pump that mean far above b when 2ab << c^2, where v lives
near zero.  At the default parameters, whose Feller ratio 2ab/c^2 is
0.058, the variance sits at that floor on about 54% of the steps (see
README, "Calibration").

Each series draws from its own pair of PCG64 generators, seeded by
SeedSequence spawn keys (series_index, 0) and (series_index, 1) under the
master seed, which makes any single trajectory the same in any ensemble
that contains it and for any thread count.

With ``threads`` of 2 or more and at least two CPUs that the process may
run on, the series are split into contiguous ranges, one per process, up
to one process per thread, usable CPU and series: forked processes draw,
step and check their own rows into memory shared with the calling
process, which does the same for the first range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import chain

import numpy as np

from ._fork import part_bounds, run_parts, shared_doubles
from .returns import Ensemble

__all__ = [
    "ModelParams",
    "SimConfig",
    "simulate_ensemble",
    "daily_returns",
]

# RNG draw block, in Euler steps, rounded down to whole days and at least
# one day.  Trajectories do not depend on this value: each series consumes
# two dedicated substreams strictly in step order.  At 1071 series and 100
# steps per day the raw normals it sizes are one pair of 400-step buffers
# (4-day blocks), 6.9 MB, whose rows each process fills for its own series.
# That is the largest allocation of a short run (x of 1071 x 100 days takes
# 0.9 MB), but not of the default 1071 x 3000-day run, where x takes 25.7 MB
# and the returns copied from it 25.7 MB more.  v, as large as x, is kept
# only when trajectories.csv is written: keeping it always put that run's
# wait4 peak in one process at 120.9 MB, against 95.1 MB.  400 steps cost no
# wall time against 800: the tile copies below stay in cache, which pays
# for twice the draw calls; 200 steps cost about 3%.  The step loop reads
# the block through two step-major tiles of _TILE steps, 0.55 MB at 1071
# series, which also carry the sqrt(dt) scaling.
_CHUNK_STEPS = 400
_TILE = 32


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class ModelParams:
    """The cubic well U(x) = m x^3 + n x^2, the variance process
    dv = a(b - v)dt + c sqrt(v) dW, and the starting state (x0, v_start).

    With m and n positive the well has a local minimum at x = 0 and a
    barrier at x = -2n/(3m); m = n = 0, the drift-free sanity case, is valid.
    """

    m: float = 2.0
    n: float = 3.0
    a: float = 2.0
    b: float = 0.01
    c: float = 0.83
    v_start: float = 8.62e-5
    x0: float = 0.0

    def __post_init__(self) -> None:
        for f in fields(self):
            _require_finite(f.name, getattr(self, f.name))
        if self.m < 0 or self.n < 0:
            raise ValueError(f"potential coefficients must be >= 0, got m={self.m}, n={self.n}")
        if self.a <= 0:
            raise ValueError(f"a must be positive, got {self.a}")
        if self.b < 0 or self.c < 0 or self.v_start < 0:
            raise ValueError(
                f"b, c and v_start must be >= 0, got b={self.b}, c={self.c}, v_start={self.v_start}"
            )

    @property
    def barrier(self) -> float:
        """Position of the barrier top separating the well from the runaway branch."""
        if self.m == 0.0:
            return -math.inf
        return -2.0 * self.n / (3.0 * self.m)

    @property
    def feller_ratio(self) -> float:
        """2ab/c^2; below 1 the zero boundary of v is attainable (reported, not enforced)."""
        if self.c == 0.0:
            return math.inf
        return 2.0 * self.a * self.b / (self.c * self.c)


@dataclass(frozen=True)
class SimConfig:
    """Grid and ensemble layout for the integrator.

    ``dt`` is the integration step and ``dt * steps_per_day`` the amount of
    model time mapped onto one sampled trading day.  ``days`` may be zero,
    in which case the integrator returns only the initial state.
    """

    # The default step is in the time unit of the variance parameters a and
    # c; with the default variance parameters it calibrates the
    # ensemble-average daily volatility to ~0.0237 (see README, "Calibration").
    dt: float = 7.0e-4
    steps_per_day: int = 100
    days: int = 3000
    n_series: int = 1071
    seed: int = 12345

    def __post_init__(self) -> None:
        _require_finite("dt", self.dt)
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        for name, lowest in (("steps_per_day", 1), ("days", 0), ("n_series", 1), ("seed", 0)):
            if getattr(self, name) < lowest:
                raise ValueError(f"{name} must be >= {lowest}, got {getattr(self, name)}")
        # numpy makes no array of more than intp-max bytes.  The largest are
        # the shared state mapping, x, v when it is kept and a (day, row) pair
        # per process, and the noise block: two draws of n_series x at most
        # max(steps_per_day, _CHUNK_STEPS) steps.
        n, days, spd = int(self.n_series), int(self.days), int(self.steps_per_day)
        doubles = max(2 * n * (days + 2), 2 * n * min(days * spd, max(spd, _CHUNK_STEPS)))
        if 8 * doubles > np.iinfo(np.intp).max:
            raise ValueError(
                f"n_series={n}, days={days} and steps_per_day={spd} need an array of {8 * doubles} bytes, "
                f"more than numpy's largest array of {np.iinfo(np.intp).max}"
            )


def _substream(seed: int, series_index: int, which: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(series_index, which)))


def simulate_ensemble(
    mp: ModelParams, cfg: SimConfig, *, threads: int = 1, variance: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """Integrate the coupled SDEs for every ensemble member.

    Returns (x, v), float64 arrays of shape (n_series, days + 1) sampled at
    day boundaries, v as max(v, 0).  With ``variance=False`` v is None:
    the variance path is integrated and checked but not kept, which saves
    its n_series x (days + 1) doubles (the default 1071 x 3000 run peaks
    at 95.1 MB instead of 120.9 MB in one process), and x keeps the same
    bits.  Series ``i`` consumes the substreams keyed (seed, i, 0) for dW1
    and (seed, i, 1) for dW2 strictly in step order, so row ``i`` is the
    same in any ensemble that contains it.

    The series are split into k contiguous ranges, k the least of
    ``threads``, the usable CPUs (the process's CPU affinity, not the
    machine's CPU count) and the number of series, or 1 where ``os.fork``
    does not exist.  The calling process integrates the first range, and
    a process forked for each other range integrates that one; they share
    no interpreter lock, and x, with v when it is kept, lies in one
    anonymous mapping they all write.  Each row owns its generators and
    every step operation is elementwise, so the result does not depend on
    k.  Each process draws the normals of its rows in blocks of about
    ``_CHUNK_STEPS`` steps and runs the one step loop over them.  It
    copies each block into step-major tiles of ``_TILE`` steps, scaling by
    sqrt(dt) in the copy, so every step reads contiguous rows of
    increments.  With v+ = max(v, 0), each step is

        x' = x - (3m x^2 + 2n x + v+/2) dt + sqrt(v+) dW1
        v' = v + a (b - v+) dt + c sqrt(v+) dW2

    computed in place on preallocated arrays, one operation at a time in
    that order of evaluation, so its result is bit-identical to the same
    expressions written out in numpy: ``heston_step`` and ``cir_step_raw``
    in ``tests/helpers.py``, the reference the model tests compare with.

    The cubic well is unbounded beyond its barrier top, so a state that
    steps past the barrier is reflected back across it; without this the
    rare deep excursion runs away to -inf in finite time and poisons the
    whole series.  Reflection touches only those excursions, and runs only
    on a step where some series of the range crossed: on the default
    1071 x 3000 run, 20 series (about one in fifty) cross the barrier, 348
    times in all, and without reflection 12 of them blow up.

    Each process records max(v, 0) of its rows at each day's end in a
    private buffer of one block's days, copied into v when v is kept, and
    checks x and that buffer for finiteness once per block, so a blow-up
    stops it within one block (4 days at the default grid).  A step too
    coarse for the parameters raises FloatingPointError naming the first
    day on which a series went non-finite and the first such series of
    that day, whatever k and ``variance`` are.  A forked process that ends
    any other way raises OSError.
    """
    n = cfg.n_series
    days, spd, dt = cfg.days, cfg.steps_per_day, cfg.dt
    bounds = part_bounds(n, threads)
    cells = n * (days + 1)
    kept = 2 if variance else 1
    # x, v if kept and each process's first non-finite (day, row), one mapping that forked processes share
    state = shared_doubles(kept * cells + 2 * (len(bounds) - 1))
    x = state[:cells].reshape(n, days + 1)
    v = state[cells : 2 * cells].reshape(n, days + 1) if variance else None
    first_bad = state[kept * cells :].view(np.int64).reshape(-1, 2)
    first_bad[:, 0] = days + 1  # none
    x[:, 0] = mp.x0
    if variance:
        v[:, 0] = mp.v_start
    if days == 0:
        return x, v

    chunk = min(days, max(1, _CHUNK_STEPS // spd))
    # Every process's noise rows, allocated before any fork so that a block
    # too large for the machine fails here.  A mapping, unlike numpy's
    # memory, gets no 2 MB pages, so each process's RSS holds its own rows only.
    dw = shared_doubles(2 * n * chunk * spd).reshape(2, n, chunk * spd)
    sqdt = math.sqrt(dt)
    tile = min(_TILE, chunk * spd)

    def integrate(lo: int, hi: int) -> None:
        """Draw, step and check rows ``lo`` to ``hi - 1``, recording their first non-finite (day, row)."""
        m = hi - lo
        dw1, dw2 = dw[0, lo:hi], dw[1, lo:hi]
        # Each row's fill, bound once, so that a block is one positional call
        # per row, which skips keyword parsing.  The rows are views taken
        # afresh in each block, which leaves less heap in use after the
        # integration than views held throughout (0.4 MB at 1071 series).
        fills = [_substream(cfg.seed, i, which).standard_normal for which in (0, 1) for i in range(lo, hi)]
        tile1, tile2 = np.empty((tile, m)), np.empty((tile, m))
        vday = np.empty((chunk, m))  # max(v, 0) at the end of each day of the block

        def increments(nsteps: int):
            """Yield the block's contiguous (dW1, dW2) rows in step order, scaled in step-major tiles.

            A row is valid until the next tile is made, after the step that reads it.
            """
            for s0 in range(0, nsteps, tile):
                j = min(tile, nsteps - s0)
                np.multiply(dw1[:, s0 : s0 + j].T, sqdt, out=tile1[:j])
                np.multiply(dw2[:, s0 : s0 + j].T, sqdt, out=tile2[:j])
                yield from zip(tile1[:j], tile2[:j])

        # The state and the step's work arrays, reused by every step.  The
        # scalar operands are (m,) arrays too: a ufunc given a Python float
        # and an output array takes a slower path, and an array of the same
        # float64 gives the same bits.
        xt = np.full(m, float(mp.x0))
        vt = np.full(m, float(mp.v_start))
        xn, vplus, root, tmp, refl = (np.empty(m) for _ in range(5))
        below = np.empty(m, dtype=bool)
        zero, half, m3, n2, a, b, c, step, barrier, barrier2 = (
            np.full(m, float(k))
            for k in (0.0, 0.5, 3.0 * mp.m, 2.0 * mp.n, mp.a, mp.b, mp.c, dt, mp.barrier, 2.0 * mp.barrier)
        )
        # Local names and positional outputs cost less per call than np. lookups
        # and in-place operators.
        maximum, sqrt, square, add, subtract, multiply, less = (
            np.maximum, np.sqrt, np.square, np.add, np.subtract, np.multiply, np.less
        )
        count_nonzero, copyto = np.count_nonzero, np.copyto

        # Overflow is caught by the finiteness check below, not by warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            for day0 in range(0, days, chunk):
                if first_bad[:, 0].min() <= day0:
                    return  # another range went non-finite before any day left here
                ndays = min(chunk, days - day0)
                nsteps = ndays * spd
                for fill, row in zip(fills, chain(dw1[:, :nsteps], dw2[:, :nsteps])):
                    fill(None, np.float64, row)
                noise = increments(nsteps)
                for d in range(ndays):
                    # zip asks range first, so it takes no row past the day's last step
                    for _, (w1, w2) in zip(range(spd), noise):
                        # x' = x - (3m x^2 + 2n x + v+/2) dt + sqrt(v+) dW1 and
                        # v' = v + a (b - v+) dt + c sqrt(v+) dW2, v+ = max(v, 0), one
                        # ufunc per operation in that evaluation order (the reference:
                        # heston_step and cir_step_raw in tests/helpers.py).
                        maximum(vt, zero, out=vplus)
                        sqrt(vplus, root)
                        square(xt, xn)
                        multiply(xn, m3, xn)
                        multiply(xt, n2, tmp)
                        add(xn, tmp, xn)
                        multiply(vplus, half, tmp)
                        add(xn, tmp, xn)
                        multiply(xn, step, xn)
                        subtract(xt, xn, xn)
                        multiply(root, w1, tmp)
                        add(xn, tmp, xn)
                        subtract(b, vplus, tmp)
                        multiply(tmp, a, tmp)
                        multiply(tmp, step, tmp)
                        add(vt, tmp, vt)
                        multiply(root, c, tmp)
                        multiply(tmp, w2, tmp)
                        add(vt, tmp, vt)
                        # np.where's reflection, without its allocations, on the
                        # rare step where some series crossed the barrier
                        less(xn, barrier, below)
                        if count_nonzero(below):
                            subtract(barrier2, xn, refl)
                            copyto(xn, refl, where=below)
                        xt, xn = xn, xt
                    x[lo:hi, day0 + d + 1] = xt
                    maximum(vt, zero, out=vday[d])
                block = slice(day0 + 1, day0 + ndays + 1)
                if variance:
                    v[lo:hi, block] = vday[:ndays].T
                bad = ~(np.isfinite(x[lo:hi, block].T) & np.isfinite(vday[:ndays]))
                if bad.any():
                    day, row = np.argwhere(bad)[0]
                    first_bad[bounds.index(lo)] = (day0 + day + 1, lo + row)
                    return

    run_parts(bounds, integrate, "integrates series")
    day, row = min(map(tuple, first_bad.tolist()))
    if day <= days:
        raise FloatingPointError(
            f"series {row} turned non-finite on day {day}: the integration blew up; lower dt (now {dt!r})"
        )
    return x, v


def daily_returns(x: np.ndarray, tickers: list[str]) -> Ensemble:
    """Daily increments x(t) - x(t-1) of each row of ``x``, one simulated return series per row."""
    if x.ndim != 2 or x.shape[1] < 2:
        raise ValueError("trajectories must span at least one day to form returns")
    if len(tickers) != x.shape[0]:
        raise ValueError(f"{len(tickers)} tickers for {x.shape[0]} trajectories")
    n, days = x.shape[0], x.shape[1] - 1
    return Ensemble(tickers, np.diff(x, axis=1).ravel(), np.arange(n + 1, dtype=np.int64) * days)
