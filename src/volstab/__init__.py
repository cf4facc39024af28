"""Toolkit for studying how return stability depends on volatility.

Simulates daily-return ensembles from a cubic-well drift with square-root
stochastic variance, ingests empirical price series, extracts first-hitting
episodes for crash/rally threshold windows, and aggregates them into mean
first-hitting-time curves and validation statistics.
"""

from .episodes import *
from .model import *
from .returns import *
from .stats import *

__version__ = "0.1.0"
