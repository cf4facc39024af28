"""Command-line pipeline: simulate, analyze, mfht, fht-pdf, acf, compare.

Every subcommand resolves its configuration from built-in defaults, an
optional ``key = value`` config file, and explicit flags (in that order of
precedence), writes the result files into one output directory, and records
a manifest there; re-running with the same manifest reproduces the output
bytes exactly.

Exit codes: 0 success, 2 configuration error, 3 input error, 4 empty result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np

from . import __version__
from ._io import fmt, write_json, write_rows
from .episodes import (
    DEFAULT_ENTRY_RULE,
    DEFAULT_VOL_SCOPE,
    ENTRY_RULES,
    VOL_SCOPES,
    WINDOW_FAMILIES,
    EpisodeTable,
    ThresholdWindow,
    extract_table,
    read_episodes_csv,
    window_family,
    write_episodes_csv,
)
from .model import ModelParams, SimConfig, daily_returns, simulate_ensemble
from .returns import (
    Ensemble,
    load_prices,
    market_stats,
    read_returns_csv,
    to_returns,
    write_returns_csv,
    write_stats_json,
)
from .stats import (
    DEFAULT_BINS,
    DEFAULT_MIN_COUNT,
    MfhtCurve,
    compare_curves,
    ensemble_acf,
    fht_pdf,
    mfht_curve,
    nonmonotonicity_verdict,
    read_curve_csv,
    write_acf_csv,
    write_comparison_csv,
    write_curve_csv,
    write_histogram_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_EMPTY = 4


def _leaf_fields(params) -> dict:
    """Leaf fields of a (nested) parameter dataclass, in declaration order."""
    out = {}
    for f in fields(params):
        value = getattr(params, f.name)
        out.update(_leaf_fields(value) if is_dataclass(value) else {f.name: value})
    return out


def _from_leaf_fields(template, config: dict):
    """A parameter dataclass shaped like ``template`` with its leaves taken from ``config``."""
    values = {}
    for f in fields(template):
        value = getattr(template, f.name)
        values[f.name] = _from_leaf_fields(value, config) if is_dataclass(value) else config[f.name]
    return type(template)(**values)


# The model's dataclass defaults are the only statement of the defaults.
DEFAULT_CONFIG = {**_leaf_fields(ModelParams()), **_leaf_fields(SimConfig())}
_INT_KEYS = tuple(k for k, v in DEFAULT_CONFIG.items() if isinstance(v, int))
_FLOAT_KEYS = tuple(k for k, v in DEFAULT_CONFIG.items() if isinstance(v, float))
CONFIG_KEYS = _FLOAT_KEYS + _INT_KEYS

# Smallest accepted value of each integer flag that is not a model key;
# model keys are checked by the model's dataclasses.
_FLAG_MINIMA = {"threads": 1, "bins": 1, "min_count": 1, "max_lag": 0}


class ConfigError(Exception):
    exit_code = EXIT_CONFIG


class InputError(Exception):
    exit_code = EXIT_INPUT


class EmptyResultError(Exception):
    exit_code = EXIT_EMPTY


def _parse_config_text(path: Path) -> dict:
    values = {}
    for line_no, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {line_no}: expected 'key = value', got {raw!r}")
        key, _, text = line.partition("=")
        key, text = key.strip(), text.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}: line {line_no}: unknown key {key!r}")
        try:
            values[key] = int(text) if key in _INT_KEYS else float(text)
        except ValueError:
            raise ConfigError(f"{path}: line {line_no}: bad value for {key}: {text!r}") from None
    return values


def load_config_file(path: str | Path) -> dict:
    """Read a ``key = value`` config file, or the config block of a manifest."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    if path.suffix == ".json":
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON: {exc}") from None
        block = payload.get("config", payload)
        unknown = set(block) - set(CONFIG_KEYS)
        if unknown:
            raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
        return {k: (int(v) if k in _INT_KEYS else float(v)) for k, v in block.items()}
    return _parse_config_text(path)


def resolve_config(args: argparse.Namespace) -> dict:
    """Defaults, then config file, then explicit flags."""
    config = dict(DEFAULT_CONFIG)
    if getattr(args, "config", None):
        config.update(load_config_file(args.config))
    for key in CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            config[key] = value
    return config


def build_model(config: dict) -> tuple[ModelParams, SimConfig]:
    try:
        return _from_leaf_fields(ModelParams(), config), _from_leaf_fields(SimConfig(), config)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _check_flag_minima(args: argparse.Namespace) -> None:
    for key, lowest in _FLAG_MINIMA.items():
        value = getattr(args, key, None)
        if value is not None and value < lowest:
            raise ConfigError(f"--{key.replace('_', '-')} must be >= {lowest}, got {value}")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _out_dir(args: argparse.Namespace, seed: int | None) -> Path:
    if args.out:
        out = Path(args.out)
    else:
        stamp = time.strftime("%Y%m%d-%H%M%S")
        out = Path("runs") / (f"{stamp}-seed{seed}" if seed is not None else stamp)
    out.mkdir(parents=True, exist_ok=True)
    return out


def write_manifest(
    out: Path,
    subcommand: str,
    config: dict,
    inputs: list[Path],
    extra: dict | None = None,
) -> None:
    manifest = {
        "subcommand": subcommand,
        "tool_version": __version__,
        "seed": config.get("seed"),
        "config": config,
        "inputs": {str(p): _sha256(p) for p in inputs},
    }
    if extra:
        manifest.update(extra)
    write_json(manifest, out / "manifest.json")


# ---------------------------------------------------------------- simulate


def write_trajectories_csv(x: np.ndarray, v: np.ndarray, path: str | Path) -> None:
    """Write ``series,day,x,v`` rows of ``simulate_ensemble``'s state, one series at a time."""
    heads = [f",{d}," for d in range(x.shape[1])]
    with open(path, "w", newline="") as fh:
        fh.write("series,day,x,v\n")
        for i in range(x.shape[0]):
            write_rows(fh, str(i), heads, x[i], ",", v[i])


def cmd_simulate(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    mp, cfg = build_model(config)
    try:
        x, v = simulate_ensemble(mp, cfg, threads=args.threads)
    except FloatingPointError as exc:  # the integration blew up: a configuration fault
        raise ConfigError(str(exc)) from None
    out = _out_dir(args, cfg.seed)

    if cfg.days >= 1:
        ensemble = daily_returns(x, [f"sim{i:04d}" for i in range(cfg.n_series)])
        write_returns_csv(ensemble, out / "returns.csv")
        stats = market_stats(ensemble)
        write_stats_json(stats, out / "stats.json")
        sigma_bar = stats.sigma_bar
    else:
        sigma_bar = None

    if args.write_trajectories or cfg.days < 1:
        write_trajectories_csv(x, v, out / "trajectories.csv")

    inputs = [Path(args.config)] if args.config else []
    write_manifest(out, "simulate", config, inputs, extra={"sigma_bar": sigma_bar})
    print(f"simulate: {cfg.n_series} series x {cfg.days} days -> {out}")
    if sigma_bar is not None:
        print(f"sigma_bar = {fmt(sigma_bar)}")
    return EXIT_OK


# ----------------------------------------------------------------- analyze


def _load_input_series(args: argparse.Namespace) -> tuple[Ensemble, list[Path]]:
    if bool(args.returns) == bool(args.prices):
        raise ConfigError("exactly one of --returns or --prices is required")
    try:
        if args.returns:
            path = Path(args.returns)
            return read_returns_csv(path), [path]
        path = Path(args.prices)
        prices = load_prices(path, layout=args.layout)
        if not prices:
            raise InputError(f"{path}: no series with at least two valid prices")
        files = sorted(path.glob("*.csv")) if path.is_dir() else [path]
        return Ensemble.from_series(to_returns(p) for p in prices), files
    except (OSError, ValueError) as exc:
        raise InputError(str(exc)) from None


def _resolve_windows(args: argparse.Namespace, sigma_bar: float) -> list[ThresholdWindow]:
    try:
        if args.window == "manual":
            if args.theta_i is None or args.theta_f is None or args.direction is None:
                raise ConfigError("manual windows need --theta-i, --theta-f and --direction")
            return [ThresholdWindow(args.theta_i, args.theta_f, sigma_bar, args.direction)]
        return window_family(args.window, sigma_bar)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _curves_and_verdicts(
    out: Path, tables: list[EpisodeTable], bins: int, min_count: int
) -> list[dict]:
    verdicts = []
    for table in tables:
        window_id = table.window.window_id
        try:
            curve = mfht_curve(table, bins=bins, min_count=min_count)
        except ValueError:  # no episodes, or none with binnable volatility
            verdicts.append(nonmonotonicity_verdict(_empty_curve(min_count), window_id=window_id))
            continue
        write_curve_csv(curve, out / f"curve_{window_id}.csv")
        verdicts.append(nonmonotonicity_verdict(curve, window_id=window_id))
    return verdicts


def _empty_curve(min_count: int) -> MfhtCurve:
    return MfhtCurve(
        bin_edges=np.array([0.0, 1.0]),
        mfht=np.array([np.nan]),
        counts=np.zeros(1, dtype=np.int64),
        min_count=min_count,
    )


def cmd_analyze(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    build_model(config)  # reject an invalid configuration before it is recorded
    ensemble, inputs = _load_input_series(args)
    sigma_bar = args.sigma_bar
    if sigma_bar is None:
        sigma_bar = market_stats(ensemble).sigma_bar
        if sigma_bar <= 0:
            raise InputError(
                f"{args.returns or args.prices}: every series has zero variance, "
                "so sigma_bar is 0 and no threshold can be set from it"
            )
    windows = _resolve_windows(args, sigma_bar)
    out = _out_dir(args, config["seed"])

    tables = [
        extract_table(ensemble, w, entry_rule=args.entry_rule, vol_scope=args.vol_scope)
        for w in windows
    ]
    n_series = len(ensemble)
    del ensemble  # its arrays and prefix sums outweigh the tables; free them before writing
    write_episodes_csv(tables, out / "episodes.csv")
    verdicts = _curves_and_verdicts(out, tables, args.bins, args.min_count)
    write_json(verdicts, out / "verdicts.json")
    write_manifest(
        out,
        "analyze",
        config,
        inputs,
        extra={
            "sigma_bar": sigma_bar,
            "window": args.window,
            "entry_rule": args.entry_rule,
            "vol_scope": args.vol_scope,
            "bins": args.bins,
            "min_count": args.min_count,
        },
    )
    total = sum(len(t) for t in tables)
    print(f"analyze: {n_series} series, {len(windows)} window(s), {total} episodes -> {out}")
    if total == 0:
        print("no episodes extracted", file=sys.stderr)
        return EXIT_EMPTY
    return EXIT_OK


# ------------------------------------------------------- mfht / fht-pdf / acf


def _load_episode_tables(path_text: str) -> list[EpisodeTable]:
    path = Path(path_text)
    try:
        tables = read_episodes_csv(path)
    except (OSError, ValueError) as exc:
        raise InputError(str(exc)) from None
    if not tables or all(len(t) == 0 for t in tables):
        raise EmptyResultError(f"{path}: no episodes")
    return tables


def cmd_mfht(args: argparse.Namespace) -> int:
    tables = _load_episode_tables(args.episodes)
    out = _out_dir(args, None)
    verdicts = _curves_and_verdicts(out, tables, args.bins, args.min_count)
    write_json(verdicts, out / "verdicts.json")
    write_manifest(
        out,
        "mfht",
        {"bins": args.bins, "min_count": args.min_count},
        [Path(args.episodes)],
    )
    print(f"mfht: {len(tables)} window(s) -> {out}")
    return EXIT_OK


def cmd_fht_pdf(args: argparse.Namespace) -> int:
    tables = _load_episode_tables(args.episodes)
    out = _out_dir(args, None)
    for table in tables:
        hist = fht_pdf(table, bins=args.bins)
        write_histogram_csv(hist, out / f"fht_pdf_{table.window.window_id}.csv")
    write_manifest(out, "fht-pdf", {"bins": args.bins}, [Path(args.episodes)])
    print(f"fht-pdf: {len(tables)} window(s) -> {out}")
    return EXIT_OK


def cmd_acf(args: argparse.Namespace) -> int:
    try:
        ensemble = read_returns_csv(Path(args.returns))
    except (OSError, ValueError) as exc:
        raise InputError(str(exc)) from None
    try:
        result = ensemble_acf(ensemble, args.max_lag, absolute=args.absolute)
    except ValueError as exc:  # a series too short for max_lag, or of zero variance
        raise InputError(f"{args.returns}: {exc}") from None
    out = _out_dir(args, None)
    name = "acf_abs.csv" if args.absolute else "acf.csv"
    write_acf_csv(result, out / name)
    write_manifest(
        out, "acf", {"max_lag": args.max_lag, "absolute": args.absolute}, [Path(args.returns)]
    )
    print(f"acf: {len(ensemble)} series, lags 0..{args.max_lag} -> {out / name}")
    return EXIT_OK


# ----------------------------------------------------------------- compare


def cmd_compare(args: argparse.Namespace) -> int:
    try:
        empirical = read_curve_csv(Path(args.empirical))
        model = read_curve_csv(Path(args.model))
        comparison = compare_curves(empirical, model)
    except (OSError, ValueError) as exc:
        raise InputError(str(exc)) from None
    report = comparison.report
    out = _out_dir(args, None)
    write_comparison_csv(comparison, out / "compare.csv")
    write_json(report, out / "compare.json")
    write_manifest(out, "compare", {}, [Path(args.empirical), Path(args.model)])
    print(
        f"compare: {report['bins_compared']} common bins, "
        f"peak offset {report['peak_offset_bins']} -> {out}"
    )
    return EXIT_OK


# ------------------------------------------------------------------ parser


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    """Flags of the subcommands that resolve and record a model configuration."""
    p.add_argument("--config", help="key = value config file, or a manifest .json to replay")
    p.add_argument("--seed", type=int, default=None, help="master seed")


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    for key in _FLOAT_KEYS:
        p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=float, default=None)
    for key in _INT_KEYS:
        if key != "seed":  # added with the config flags
            p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=int, default=None)


def _add_analysis_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--window", choices=WINDOW_FAMILIES + ("manual",), default="fig1a")
    p.add_argument("--theta-i", dest="theta_i", type=float, default=None)
    p.add_argument("--theta-f", dest="theta_f", type=float, default=None)
    p.add_argument("--direction", choices=("crash", "rally"), default=None)
    p.add_argument("--sigma-bar", dest="sigma_bar", type=float, default=None,
                   help="override the market volatility computed from the input data")
    p.add_argument("--bins", type=int, default=DEFAULT_BINS)
    p.add_argument("--min-count", dest="min_count", type=int, default=DEFAULT_MIN_COUNT)
    p.add_argument("--entry-rule", dest="entry_rule", choices=ENTRY_RULES, default=DEFAULT_ENTRY_RULE)
    p.add_argument("--vol-scope", dest="vol_scope", choices=VOL_SCOPES, default=DEFAULT_VOL_SCOPE)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="volstab",
        description="Hitting-time stability analysis of daily returns, simulated or empirical.",
    )
    parser.add_argument("--version", action="version", version=f"volstab {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name: str, func, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.add_argument("--out", help="output directory (default: runs/<timestamp>[-seed<seed>])")
        p.set_defaults(func=func)
        return p

    p = add("simulate", cmd_simulate, "generate a return ensemble from the model")
    _add_config_flags(p)
    p.add_argument("--threads", type=int, default=1,
                   help="threads that draw the normals (capped at one per series and per CPU)")
    _add_model_flags(p)
    p.add_argument("--write-trajectories", action="store_true",
                   help="also export series,day,x,v rows")

    p = add("analyze", cmd_analyze, "extract episodes and build hitting-time curves")
    _add_config_flags(p)
    p.add_argument("--returns", help="returns CSV (ticker,day_index,return)")
    p.add_argument("--prices", help="price CSV file or directory")
    p.add_argument("--layout", choices=("per-stock", "wide"), default="per-stock")
    _add_analysis_flags(p)

    p = add("mfht", cmd_mfht, "bin an episode file into curves and verdicts")
    p.add_argument("--episodes", required=True)
    p.add_argument("--bins", type=int, default=DEFAULT_BINS)
    p.add_argument("--min-count", dest="min_count", type=int, default=DEFAULT_MIN_COUNT)

    p = add("fht-pdf", cmd_fht_pdf, "histogram the hitting times of an episode file")
    p.add_argument("--episodes", required=True)
    p.add_argument("--bins", type=int, default=DEFAULT_BINS)

    p = add("acf", cmd_acf, "ensemble-average autocorrelation of a returns file")
    p.add_argument("--returns", required=True)
    p.add_argument("--max-lag", dest="max_lag", type=int, default=50)
    p.add_argument("--absolute", action="store_true", help="autocorrelation of |returns|")

    p = add("compare", cmd_compare, "compare two hitting-time curves")
    p.add_argument("--empirical", required=True)
    p.add_argument("--model", required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_flag_minima(args)
        return args.func(args)
    except (ConfigError, InputError, EmptyResultError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
