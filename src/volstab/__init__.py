"""Toolkit for studying how return stability depends on volatility.

Simulates daily-return ensembles from a cubic-well drift with square-root
stochastic variance, ingests empirical price series, extracts first-hitting
episodes for crash/rally threshold windows, and aggregates them into mean
first-hitting-time curves and validation statistics.
"""

from .episodes import (
    EpisodeTable,
    ThresholdWindow,
    extract_table,
    window_family,
)
from .model import (
    ModelParams,
    SimConfig,
    cir_step_raw,
    daily_returns,
    heston_step,
    potential,
    potential_gradient,
    simulate_ensemble,
)
from .returns import (
    Ensemble,
    MarketStats,
    ReturnSeries,
    load_prices,
    market_stats,
    read_returns_csv,
    to_returns,
    write_returns_csv,
    write_stats_json,
)
from .stats import (
    AcfSeries,
    CurveComparison,
    Histogram,
    MfhtCurve,
    acf,
    compare_curves,
    ensemble_acf,
    fht_pdf,
    histogram,
    mfht_curve,
    nonmonotonicity_verdict,
)

__version__ = "0.1.0"
