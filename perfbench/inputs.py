"""Seeded inputs for the analyze-sweep workload.

Returns come from a stochastic log-volatility AR(1) with Student-t noise,
drawn with numpy alone, so the workload neither pays for nor
depend on the package's integrator.  At 1071 series x 500 days the
parameters below give about 0.0145 fig1b episodes per series-day-window
(the default model ensemble gives 0.0147-0.0153) and an interior maximum
in all 26 fig1b windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

PHI = 0.98  # persistence of the log variance
SIGMA_ETA = 0.45  # innovation scale of the log variance
NU = 4  # Student-t degrees of freedom of the return noise
LEVEL_SD = 0.5  # spread of the per-series log-variance level
BASE_SIGMA = 0.02  # typical daily volatility


@dataclass
class AnalyzeInput:
    """What the program reads, as the checks see it: one return array per ticker."""

    tickers: list[str]
    returns: list[np.ndarray]


def sv_returns(rng: np.random.Generator, n_series: int, days: int) -> np.ndarray:
    """(n_series, days) daily returns with clustered, heavy-tailed volatility."""
    level = np.log(BASE_SIGMA**2) + LEVEL_SD * rng.standard_normal(n_series)
    h = np.empty((n_series, days))
    prev = SIGMA_ETA / np.sqrt(1.0 - PHI * PHI) * rng.standard_normal(n_series)
    eta = SIGMA_ETA * rng.standard_normal((n_series, days))
    for d in range(days):
        prev = PHI * prev + eta[:, d]
        h[:, d] = prev
    z = rng.standard_t(NU, (n_series, days)) / np.sqrt(NU / (NU - 2))
    return np.exp(0.5 * (level[:, None] + h)) * z


def write_returns_csv(path: Path, seed: int, n_series: int, days: int) -> AnalyzeInput:
    """A ``ticker,day_index,return`` file; repr floats, so the values round-trip exactly."""
    r = sv_returns(np.random.default_rng(seed), n_series, days)
    tickers = [f"t{i:04d}" for i in range(n_series)]
    with open(path, "w", newline="") as fh:
        fh.write("ticker,day_index,return\n")
        for ticker, row in zip(tickers, r.tolist()):
            fh.writelines(f"{ticker},{d},{x!r}\n" for d, x in enumerate(row))
    return AnalyzeInput(tickers, list(r))
