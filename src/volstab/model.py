"""Daily-return ensembles from a cubic-well drift with square-root variance.

The state pair (x, v) evolves by Euler-Maruyama on a fine grid and is
recorded once per trading day:

    dx = -(U'(x) + v/2) dt + sqrt(v) dW1,    U(x) = m x^3 + n x^2
    dv = a (b - v) dt + c sqrt(v) dW2

The variance update uses the full-truncation Euler scheme: the integrator
carries the raw Euler state, feeds only its nonnegative part into drift,
diffusion and the return equation, and reports max(v, 0) in trajectories,
so sampled variances stay nonnegative even when 2ab < c^2 and the
continuous process can reach zero.  Each series draws from its own pair of
PCG64 generators, seeded by SeedSequence spawn keys (series_index, 0) and
(series_index, 1) under the master seed, which makes any single trajectory
reproducible in isolation, independent of ensemble partitioning and thread
scheduling.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .returns import ReturnSeries

__all__ = [
    "PotentialParams",
    "CirParams",
    "ModelParams",
    "SimConfig",
    "Trajectory",
    "potential",
    "potential_gradient",
    "cir_step",
    "cir_step_raw",
    "heston_step",
    "simulate_paths",
    "simulate_series",
    "simulate_ensemble",
    "daily_returns",
]

# RNG draw block, in days.  Trajectories do not depend on this value: each
# series consumes two dedicated substreams strictly in step order.
_CHUNK_DAYS = 64


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
    in which case a trajectory holds only the initial state.
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


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One simulated series sampled at day boundaries (length days + 1)."""

    x: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        if self.x.shape != self.v.shape or self.x.ndim != 1 or self.x.size < 1:
            raise ValueError("x and v must be 1-d arrays of equal nonzero length")
        if np.any(self.v < 0):
            raise ValueError("variance path contains negative values")

    @property
    def days(self) -> int:
        return self.x.size - 1


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


def cir_step(v, p: CirParams, dt: float, dw):
    """Nonnegative variance reported after one full-truncation update."""
    return np.maximum(cir_step_raw(v, p, dt, dw), 0.0)


def heston_step(x, v, mp: ModelParams, dt: float, dw1):
    """One Euler update of the return state at current variance v >= 0."""
    return x - (potential_gradient(x, mp.potential) + 0.5 * v) * dt + np.sqrt(v) * dw1


def _substream(seed: int, series_index: int, which: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(series_index, which)))


def simulate_paths(
    mp: ModelParams, cfg: SimConfig, series_indices: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the coupled SDEs for the given ensemble members.

    Returns (x, v), float64 arrays of shape (len(series_indices), days + 1)
    sampled at day boundaries.  Series ``i`` consumes the substreams keyed
    (seed, i, 0) for dW1 and (seed, i, 1) for dW2 strictly in step order,
    so the output for a given index never depends on which other indices
    are simulated alongside it.

    The cubic well is unbounded beyond its barrier top, so a state that
    steps past the barrier is reflected back across it; without this the
    rare deep excursion (roughly one series in thirty over 3000 days at
    default parameters) runs away to -inf in finite time and poisons the
    whole series.  Reflection touches only those excursions.

    The state is checked for finiteness once per block of ``_CHUNK_DAYS``
    days; a step too coarse for the parameters raises FloatingPointError
    naming the first series and day that went non-finite.
    """
    for i in series_indices:
        if not 0 <= i < cfg.n_series:
            raise ValueError(f"series index {i} outside ensemble of size {cfg.n_series}")
    k = len(series_indices)
    days, spd, dt = cfg.days, cfg.steps_per_day, cfg.dt
    x = np.empty((k, days + 1))
    v = np.empty((k, days + 1))
    x[:, 0] = mp.x0
    v[:, 0] = mp.cir.v_start
    if days == 0:
        return x, v

    rng1 = [_substream(cfg.seed, i, 0) for i in series_indices]
    rng2 = [_substream(cfg.seed, i, 1) for i in series_indices]
    sqdt = math.sqrt(dt)
    barrier = mp.potential.barrier
    xt = np.full(k, float(mp.x0))
    vt = np.full(k, float(mp.cir.v_start))

    chunk = min(days, _CHUNK_DAYS)
    dw1 = np.empty((k, chunk * spd))
    dw2 = np.empty((k, chunk * spd))
    # Overflow is caught by the finiteness check below, not by warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for day0 in range(0, days, chunk):
            ndays = min(chunk, days - day0)
            nsteps = ndays * spd
            for row in range(k):
                dw1[row, :nsteps] = rng1[row].standard_normal(nsteps)
                dw2[row, :nsteps] = rng2[row].standard_normal(nsteps)
            np.multiply(dw1, sqdt, out=dw1)
            np.multiply(dw2, sqdt, out=dw2)
            s = 0
            for d in range(ndays):
                for _ in range(spd):
                    xnext = heston_step(xt, np.maximum(vt, 0.0), mp, dt, dw1[:, s])
                    vt = cir_step_raw(vt, mp.cir, dt, dw2[:, s])
                    xt = np.where(xnext < barrier, 2.0 * barrier - xnext, xnext)
                    s += 1
                x[:, day0 + d + 1] = xt
                v[:, day0 + d + 1] = np.maximum(vt, 0.0)
            block = slice(day0 + 1, day0 + ndays + 1)
            bad = ~(np.isfinite(x[:, block]) & np.isfinite(v[:, block]))
            if bad.any():
                day, row = np.argwhere(bad.T)[0]
                raise FloatingPointError(
                    f"series {series_indices[row]} turned non-finite on day {day0 + day + 1}: "
                    f"the integration blew up; lower dt (now {dt!r})"
                )
    return x, v


def simulate_series(mp: ModelParams, cfg: SimConfig, series_index: int) -> Trajectory:
    """Simulate one ensemble member; a pure function of (mp, cfg, series_index)."""
    x, v = simulate_paths(mp, cfg, [series_index])
    return Trajectory(x=x[0], v=v[0])


def simulate_ensemble(mp: ModelParams, cfg: SimConfig, *, threads: int = 1) -> list[Trajectory]:
    """Simulate the whole ensemble, optionally splitting series across threads.

    The result is identical for any thread count because every series owns
    its random substreams.
    """
    indices = list(range(cfg.n_series))
    if threads <= 1 or cfg.n_series == 1:
        x, v = simulate_paths(mp, cfg, indices)
        return [Trajectory(x=x[i], v=v[i]) for i in range(cfg.n_series)]

    nblocks = min(threads, cfg.n_series)
    blocks = [indices[i::nblocks] for i in range(nblocks)]
    with ThreadPoolExecutor(max_workers=nblocks) as pool:
        results = list(pool.map(lambda blk: simulate_paths(mp, cfg, blk), blocks))
    out: list[Trajectory | None] = [None] * cfg.n_series
    for blk, (xb, vb) in zip(blocks, results):
        for row, i in enumerate(blk):
            out[i] = Trajectory(x=xb[row], v=vb[row])
    return out  # type: ignore[return-value]


def daily_returns(t: Trajectory, ticker: str = "sim") -> ReturnSeries:
    """Daily increments x(t) - x(t-1), adopted as the simulated return series."""
    if t.x.size < 2:
        raise ValueError("trajectory must span at least one day to form returns")
    r = np.diff(t.x)
    return ReturnSeries.from_returns(ticker, r)
