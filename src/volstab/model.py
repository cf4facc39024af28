"""Daily-return ensembles from a cubic-well drift with square-root variance.

The state pair (x, v) evolves by Euler-Maruyama on a fine grid and is
recorded once per trading day:

    dx = -(U'(x) + v/2) dt + sqrt(v) dW1,    U(x) = m x^3 + n x^2
    dv = a (b - v) dt + c sqrt(v) dW2

The variance update uses the full-truncation Euler scheme: the integrator
carries the raw Euler state, feeds only its nonnegative part into drift,
diffusion and the return equation, and reports max(v, 0) at day boundaries,
so sampled variances stay nonnegative even when 2ab < c^2 and the
continuous process can reach zero.  Each series draws from its own pair of
PCG64 generators, seeded by SeedSequence spawn keys (series_index, 0) and
(series_index, 1) under the master seed, which makes any single trajectory
the same in any ensemble that contains it and for any thread count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .returns import Ensemble

__all__ = [
    "PotentialParams",
    "CirParams",
    "ModelParams",
    "SimConfig",
    "potential",
    "potential_gradient",
    "cir_step_raw",
    "heston_step",
    "simulate_ensemble",
    "daily_returns",
]

# RNG draw block, in Euler steps, rounded down to whole days and at least
# one day.  Trajectories do not depend on this value: each series consumes
# two dedicated substreams strictly in step order.  The pair of noise
# buffers it sizes is the largest allocation of a run, 13.7 MB at the
# default 1071 series x 100 steps per day (8-day blocks).
_CHUNK_STEPS = 800


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class PotentialParams:
    """Coefficients of the cubic well U(x) = m x^3 + n x^2.

    With both coefficients positive the well has a local minimum at x = 0
    and a barrier at x = -2n/(3m).  Zero is accepted so the drift-free
    sanity configuration (m = n = 0) stays representable.
    """

    m: float = 2.0
    n: float = 3.0

    def __post_init__(self) -> None:
        _require_finite("m", self.m)
        _require_finite("n", self.n)
        if self.m < 0 or self.n < 0:
            raise ValueError(f"potential coefficients must be >= 0, got m={self.m}, n={self.n}")

    @property
    def barrier(self) -> float:
        """Position of the barrier top separating the well from the runaway branch."""
        if self.m == 0.0:
            return -math.inf
        return -2.0 * self.n / (3.0 * self.m)


@dataclass(frozen=True)
class CirParams:
    """Square-root variance process dv = a(b - v)dt + c sqrt(v) dW."""

    a: float = 2.0
    b: float = 0.01
    c: float = 0.83
    v_start: float = 8.62e-5

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "v_start"):
            _require_finite(name, getattr(self, name))
        if self.a <= 0:
            raise ValueError(f"a must be positive, got {self.a}")
        if self.b < 0 or self.c < 0 or self.v_start < 0:
            raise ValueError(
                f"b, c and v_start must be >= 0, got b={self.b}, c={self.c}, v_start={self.v_start}"
            )

    @property
    def feller_ratio(self) -> float:
        """2ab/c^2; below 1 the zero boundary of v is attainable (reported, not enforced)."""
        if self.c == 0.0:
            return math.inf
        return 2.0 * self.a * self.b / (self.c * self.c)


@dataclass(frozen=True)
class ModelParams:
    potential: PotentialParams = field(default_factory=PotentialParams)
    cir: CirParams = field(default_factory=CirParams)
    x0: float = 0.0

    def __post_init__(self) -> None:
        _require_finite("x0", self.x0)


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
        if self.steps_per_day < 1:
            raise ValueError(f"steps_per_day must be >= 1, got {self.steps_per_day}")
        if self.days < 0:
            raise ValueError(f"days must be >= 0, got {self.days}")
        if self.n_series < 1:
            raise ValueError(f"n_series must be >= 1, got {self.n_series}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def day_length(self) -> float:
        """Model time spanned by one sampled day."""
        return self.dt * self.steps_per_day


def potential(x, p: PotentialParams):
    """U(x) = m x^3 + n x^2; accepts scalars or arrays."""
    return p.m * x**3 + p.n * x**2


def potential_gradient(x, p: PotentialParams):
    """U'(x) = 3m x^2 + 2n x; accepts scalars or arrays."""
    return 3.0 * p.m * x**2 + 2.0 * p.n * x


def cir_step_raw(v, p: CirParams, dt: float, dw):
    """One full-truncation Euler update, without flooring the new state.

    ``dw`` is a Normal(0, dt) increment.  Only the truncated value
    max(v, 0) feeds the drift and the diffusion; the state itself may go
    (slightly) negative and is carried as-is.  Propagating the unfloored
    state is what keeps the scheme's long-run mean of max(v, 0) equal to b:
    flooring the state instead would pump the average far above b for
    parameters with 2ab << c^2, where v lives near zero.
    """
    vplus = np.maximum(v, 0.0)
    return v + p.a * (p.b - vplus) * dt + p.c * np.sqrt(vplus) * dw


def heston_step(x, v, mp: ModelParams, dt: float, dw1):
    """One Euler update of the return state at current variance v >= 0."""
    return x - (potential_gradient(x, mp.potential) + 0.5 * v) * dt + np.sqrt(v) * dw1


def _substream(seed: int, series_index: int, which: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(series_index, which)))


def simulate_ensemble(
    mp: ModelParams, cfg: SimConfig, *, threads: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the coupled SDEs for every ensemble member.

    Returns (x, v), float64 arrays of shape (n_series, days + 1) sampled at
    day boundaries, v as max(v, 0).  Series ``i`` consumes the substreams
    keyed (seed, i, 0) for dW1 and (seed, i, 1) for dW2 strictly in step
    order, so row ``i`` is the same in any ensemble that contains it.

    ``threads`` workers, at most one per series and per CPU, share out the
    normal draws of each block of about ``_CHUNK_STEPS`` steps; numpy
    releases the GIL while it fills, and each row owns its generators, so
    the result does not depend on the thread count.  The step loop runs on
    the calling thread over the whole ensemble, in place on preallocated
    arrays but with the floating-point operations of heston_step and
    cir_step_raw in their order, so its result is bit-identical to
    composing those two functions.

    The cubic well is unbounded beyond its barrier top, so a state that
    steps past the barrier is reflected back across it; without this the
    rare deep excursion runs away to -inf in finite time and poisons the
    whole series.  Reflection touches only those excursions: on the
    default 1071 x 3000 run, 20 series (about one in fifty) cross the
    barrier, 348 times in all, and without reflection 12 of them blow up.

    The state is checked for finiteness once per block; a step too coarse
    for the parameters raises FloatingPointError naming the first series
    and day that went non-finite.
    """
    n = cfg.n_series
    days, spd, dt = cfg.days, cfg.steps_per_day, cfg.dt
    x = np.empty((n, days + 1))
    v = np.empty((n, days + 1))
    x[:, 0] = mp.x0
    v[:, 0] = mp.cir.v_start
    if days == 0:
        return x, v

    rng1 = [_substream(cfg.seed, i, 0) for i in range(n)]
    rng2 = [_substream(cfg.seed, i, 1) for i in range(n)]
    sqdt = math.sqrt(dt)

    chunk = min(days, max(1, _CHUNK_STEPS // spd))
    dw1 = np.empty((n, chunk * spd))
    dw2 = np.empty((n, chunk * spd))

    def fill(rows: range, nsteps: int) -> None:
        for row in rows:
            rng1[row].standard_normal(out=dw1[row, :nsteps])
            rng2[row].standard_normal(out=dw2[row, :nsteps])

    # The state and the step's work arrays, reused by every step.  The
    # scalar operands are (n,) arrays too: a ufunc given a Python float and
    # an output array takes a slower path, and an array of the same float64
    # gives the same bits.
    xt = np.full(n, float(mp.x0))
    vt = np.full(n, float(mp.cir.v_start))
    xn, vplus, root, tmp, refl = (np.empty(n) for _ in range(5))
    below = np.empty(n, dtype=bool)
    p, cir = mp.potential, mp.cir
    zero, half, m3, n2, a, b, c, step, barrier, barrier2 = (
        np.full(n, float(k))
        for k in (0.0, 0.5, 3.0 * p.m, 2.0 * p.n, cir.a, cir.b, cir.c, dt, p.barrier, 2.0 * p.barrier)
    )

    workers = min(threads, n, os.cpu_count() or 1)
    blocks = [range(n * w // workers, n * (w + 1) // workers) for w in range(workers)]
    # Overflow is caught by the finiteness check below, not by warnings.
    with ThreadPoolExecutor(workers) as pool, np.errstate(over="ignore", invalid="ignore"):
        for day0 in range(0, days, chunk):
            ndays = min(chunk, days - day0)
            nsteps = ndays * spd
            list(pool.map(fill, blocks, [nsteps] * workers))
            np.multiply(dw1, sqdt, out=dw1)
            np.multiply(dw2, sqdt, out=dw2)
            s = 0
            for d in range(ndays):
                for _ in range(spd):
                    # heston_step and cir_step_raw, one ufunc per operation in
                    # their evaluation order; both read max(v, 0) and its root.
                    np.maximum(vt, zero, out=vplus)
                    np.sqrt(vplus, root)
                    np.square(xt, xn)
                    xn *= m3
                    np.multiply(xt, n2, tmp)
                    xn += tmp
                    np.multiply(vplus, half, tmp)
                    xn += tmp
                    xn *= step
                    np.subtract(xt, xn, xn)
                    np.multiply(root, dw1[:, s], tmp)
                    xn += tmp
                    np.subtract(b, vplus, tmp)
                    tmp *= a
                    tmp *= step
                    vt += tmp
                    np.multiply(root, c, tmp)
                    tmp *= dw2[:, s]
                    vt += tmp
                    # np.where's reflection, without its allocations
                    np.less(xn, barrier, below)
                    np.subtract(barrier2, xn, refl)
                    np.copyto(xn, refl, where=below)
                    xt, xn = xn, xt
                    s += 1
                x[:, day0 + d + 1] = xt
                np.maximum(vt, zero, out=v[:, day0 + d + 1])
            block = slice(day0 + 1, day0 + ndays + 1)
            bad = ~(np.isfinite(x[:, block]) & np.isfinite(v[:, block]))
            if bad.any():
                day, row = np.argwhere(bad.T)[0]
                raise FloatingPointError(
                    f"series {row} turned non-finite on day {day0 + day + 1}: "
                    f"the integration blew up; lower dt (now {dt!r})"
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
