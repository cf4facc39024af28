"""Command-line pipeline: simulate, analyze, mfht, fht-pdf, acf, compare.

Every subcommand reads its inputs and computes its results; only then
does ``main`` make one output directory and write the result files and a
manifest, which holds the settings the subcommand used, into it: all of
them, or none when a write fails.  Only ``simulate`` has a model
configuration, resolved from built-in defaults, an optional
``key = value`` config file, and explicit flags (in that order of
precedence); re-running it with its manifest reproduces the output bytes
exactly.

Exit codes: 0 success, 2 configuration error, 3 input error, 4 empty result.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import shutil
import sys
import tempfile
import time
from contextlib import ExitStack, contextmanager
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from ._io import fmt, write_csv, write_json
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
    write_episode_rows,
    write_episodes_csv,
)
from .model import ModelParams, SimConfig, daily_returns, simulate_ensemble
from .returns import (
    Ensemble,
    load_prices,
    market_stats,
    price_files,
    read_returns_csv,
    to_returns,
    write_returns_csv,
    write_stats_json,
)
from .stats import (
    DEFAULT_BINS,
    DEFAULT_MIN_COUNT,
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


# The model's dataclass defaults are the only statement of the defaults.
DEFAULT_CONFIG = {**asdict(ModelParams()), **asdict(SimConfig())}
_INT_KEYS = tuple(k for k, v in DEFAULT_CONFIG.items() if isinstance(v, int))
_FLOAT_KEYS = tuple(k for k, v in DEFAULT_CONFIG.items() if isinstance(v, float))
CONFIG_KEYS = _FLOAT_KEYS + _INT_KEYS

# Smallest accepted value of each integer flag that is not a model key;
# model keys are checked by the model's dataclasses.
_FLAG_MINIMA = {"threads": 1, "bins": 1, "min_count": 1, "max_lag": 0}
# numpy makes no array of more than intp-max bytes, and --bins asks for bins + 1 edges.
_MAX_BINS = np.iinfo(np.intp).max // 8 - 1
# The longest file name, in bytes, that Linux, macOS and Windows all accept.
_MAX_NAME_BYTES = 255


class ConfigError(Exception):
    exit_code = EXIT_CONFIG


class InputError(Exception):
    exit_code = EXIT_INPUT


class EmptyResultError(Exception):
    exit_code = EXIT_EMPTY


@contextmanager
def _fault(kind: type[Exception], prefix: str = ""):
    """Raise a library's ValueError or FloatingPointError as ``kind``, the prefix before its message."""
    try:
        yield
    except (ValueError, FloatingPointError) as exc:
        raise kind(f"{prefix}{exc}") from None


def _parse_config_text(path: Path, text: str) -> dict:
    values = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {line_no}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}: line {line_no}: unknown key {key!r}")
        try:
            values[key] = int(value) if key in _INT_KEYS else float(value)
        except ValueError:
            raise ConfigError(f"{path}: line {line_no}: bad value for {key}: {value!r}") from None
    return values


def _parse_config_json(path: Path, text: str) -> dict:
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an integer too long or nesting too deep
        raise ConfigError(f"{path}: not valid JSON: {exc}") from None
    block = payload.get("config", payload) if isinstance(payload, dict) else payload
    if not isinstance(block, dict):
        raise ConfigError(f"{path}: expected a JSON object of config keys, got {type(block).__name__}")
    unknown = set(block) - set(CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
    values = {}
    for key, value in block.items():
        bad = f"{path}: bad value for {key}: {json.dumps(value)}"
        # JSON numbers only: true is not 1, and an integer key takes no 1.5.
        if isinstance(value, bool) or not isinstance(value, int if key in _INT_KEYS else (int, float)):
            raise ConfigError(bad)
        try:
            values[key] = value if key in _INT_KEYS else float(value)
        except OverflowError:  # an integer beyond the float range
            raise ConfigError(bad) from None
    return values


def load_config_file(path: str | Path) -> dict:
    """Read a ``key = value`` config file, or the config block of a manifest."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    if path.is_dir():
        raise ConfigError(f"{path}: is a directory, not a config file")
    with _fault(ConfigError, f"{path}: not UTF-8 text: "):  # a UnicodeDecodeError
        text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return _parse_config_json(path, text)
    return _parse_config_text(path, text)


def resolve_config(args: argparse.Namespace) -> dict:
    """Defaults, then config file, then explicit flags."""
    config = dict(DEFAULT_CONFIG)
    if args.config:
        config.update(load_config_file(args.config))
    flags = vars(args)
    config.update({key: flags[key] for key in CONFIG_KEYS if flags[key] is not None})
    return config


def build_model(config: dict) -> tuple[ModelParams, SimConfig]:
    with _fault(ConfigError):
        return tuple(cls(**{f.name: config[f.name] for f in fields(cls)}) for cls in (ModelParams, SimConfig))


def _check_flag_bounds(args: argparse.Namespace) -> None:
    if args.out == "":  # names no directory; None is a left-out --out
        raise ConfigError("--out must not be empty")
    # The directory (runs/ for a default one) is made after the compute: refuse now what would stop it.
    out = Path("runs" if args.out is None else args.out)
    existing = next(p for p in (out, *out.parents) if os.path.lexists(p))
    if not existing.is_dir():
        raise InputError(f"output directory {out}: {existing} is not a directory")
    if not os.access(existing, os.W_OK | os.X_OK):
        raise InputError(f"output directory {out}: {existing} is not writable")
    for key, lowest in _FLAG_MINIMA.items():
        value = getattr(args, key, None)
        if value is not None and value < lowest:
            raise ConfigError(f"--{key.replace('_', '-')} must be >= {lowest}, got {value}")
    if getattr(args, "bins", 0) > _MAX_BINS:
        raise ConfigError(f"--bins must be <= {_MAX_BINS}: numpy makes no larger array of bin edges, got {args.bins}")


def _sha256(path: Path) -> str:
    # Imported here, where a file is hashed: hashlib loads OpenSSL, about
    # 3.4 MB of RSS that a run which hashes no input need not hold.
    import hashlib

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _out_dir(out: str | None, seed: int | None) -> tuple[Path, Path | None]:
    """``--out``, or the first free name of ``runs/<timestamp>[-seed<seed>]``, ``-2``, ``-3``, ...

    Also returns the topmost directory this call made, if any, which a
    failed write removes.
    """
    if out is not None:
        path = Path(out)
        made = next((p for p in reversed([path, *path.parents]) if not p.exists()), None)
        path.mkdir(parents=True, exist_ok=True)
        return path, made
    stamp = time.strftime("%Y%m%d-%H%M%S")
    name = f"{stamp}-seed{seed}" if seed is not None else stamp
    for n in itertools.count(1):
        path = Path("runs") / (name if n == 1 else f"{name}-{n}")
        try:
            path.mkdir(parents=True)
            return path, path
        except FileExistsError:
            continue


def write_manifest(out: Path, subcommand: str, config: dict, inputs: list[Path], extra: dict) -> None:
    manifest = {
        "subcommand": subcommand,
        "tool_version": __version__,
        "config": config,
        "inputs": {str(p): _sha256(p) for p in inputs},
        **extra,
    }
    write_json(manifest, out / "manifest.json")


@dataclass
class Outcome:
    """What a subcommand computed, for ``main`` to write into the output directory.

    ``files`` holds ``(name, writer, args)`` in writing order; ``main``
    calls ``writer(*args, path)`` with a temporary ``path`` that it renames
    to ``out / name`` (see ``_write_outputs``).  ``config``, the settings
    the subcommand used, ``inputs`` and ``extra``, its results, go into
    the manifest; a seed in ``config`` (``simulate``'s) names a default output
    directory.  ``summary(out)`` is printed; an ``empty`` message marks an
    empty result, printed to stderr with exit code 4.  ``closing`` closes
    what the writers read from, such as analyze's spooled episode rows; it
    is closed when ``main`` is done with the outcome, on every path.
    """

    config: dict
    inputs: list[Path]
    files: list[tuple[str, Callable, tuple]]
    summary: Callable[[Path], str]
    extra: dict = field(default_factory=dict)
    empty: str | None = None
    closing: ExitStack = field(default_factory=ExitStack)


def _write_outputs(out: Path, subcommand: str, outcome: Outcome) -> None:
    """Write ``outcome``'s files and its manifest into ``out``: all of them, or none.

    Every file is written into a temporary directory inside ``out``, and
    only when every writer has succeeded are they renamed into ``out``, the
    manifest last.  The temporary directory is removed on every path,
    KeyboardInterrupt included, so a failed run leaves no cut file, and a
    file of the same name already in ``out`` is replaced only on success.
    """
    staging = Path(tempfile.mkdtemp(prefix=".volstab-", dir=out))
    try:
        for name, writer, data in outcome.files:
            try:
                writer(*data, staging / name)
            except OSError as exc:
                if exc.filename is None:  # as a full disk or a file size limit raises it
                    raise OSError(f"{out / name}: {exc}") from None
                if exc.filename == str(staging / name):
                    raise OSError(exc.errno, exc.strerror, str(out / name)) from None
                raise
        write_manifest(staging, subcommand, outcome.config, outcome.inputs, outcome.extra)
        for name in [name for name, _, _ in outcome.files] + ["manifest.json"]:
            os.replace(staging / name, out / name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)


# ---------------------------------------------------------------- simulate


def write_trajectories_csv(x: np.ndarray, v: np.ndarray, path: str | Path, threads: int = 1) -> None:
    """Write ``series,day,x,v`` rows of ``simulate_ensemble``'s state, one series at a time."""
    heads = [f",{d}," for d in range(x.shape[1])]
    write_csv(path, "series,day,x,v", [(str(i), heads, x[i], ",", v[i]) for i in range(x.shape[0])], threads)


def cmd_simulate(args: argparse.Namespace) -> Outcome:
    config = resolve_config(args)
    mp, cfg = build_model(config)
    trajectories = args.write_trajectories or cfg.days < 1
    with _fault(ConfigError):  # the integration blew up: a configuration fault
        x, v = simulate_ensemble(mp, cfg, threads=args.threads, variance=trajectories)
    files, sigma_bar, tail = [], None, ""
    if cfg.days >= 1:
        ensemble = daily_returns(x, [f"sim{i:04d}" for i in range(cfg.n_series)])
        stats = market_stats(ensemble)
        files += [("returns.csv", partial(write_returns_csv, threads=args.threads), (ensemble,)),
                  ("stats.json", write_stats_json, (stats,))]
        sigma_bar = stats.sigma_bar
        tail = f"\nsigma_bar = {fmt(sigma_bar)}"
    if trajectories:
        files.append(("trajectories.csv", partial(write_trajectories_csv, threads=args.threads), (x, v)))
    return Outcome(
        config, [Path(args.config)] if args.config else [], files,
        lambda out: f"simulate: {cfg.n_series} series x {cfg.days} days -> {out}{tail}",
        extra={"sigma_bar": sigma_bar},
    )


# ----------------------------------------------------------------- analyze


def _check_analyze_flags(args: argparse.Namespace) -> None:
    """Refuse a missing input, a flag the input or window leaves unused, and a manual window missing a theta."""
    if bool(args.returns) == bool(args.prices):
        raise ConfigError("exactly one of --returns or --prices is required")
    if args.layout and not args.prices:
        raise ConfigError("--layout applies only to --prices")
    manual = (args.theta_i, args.theta_f)
    if args.window == "manual" and None in manual:
        raise ConfigError("manual windows need --theta-i and --theta-f")
    if args.window != "manual" and manual != (None, None):
        raise ConfigError("--theta-i and --theta-f apply only to --window manual")


def _load_input_series(args: argparse.Namespace) -> tuple[Ensemble, list[Path]]:
    with _fault(InputError):
        if args.returns:
            path = Path(args.returns)
            return read_returns_csv(path), [path]
        path = Path(args.prices)
        tickers, prices, offsets = load_prices(path, layout=args.layout or "per-stock")
    if not tickers:
        raise InputError(f"{path}: no series with at least two valid prices")
    with _fault(InputError, f"{path}: "):  # names a ticker, not the input it came from
        return to_returns(tickers, prices, offsets), price_files(path)


def _resolve_windows(args: argparse.Namespace, sigma_bar: float) -> list[ThresholdWindow]:
    with _fault(ConfigError):
        if args.window == "manual":
            return [ThresholdWindow(args.theta_i, args.theta_f, sigma_bar)]
        return window_family(args.window, sigma_bar)


class _Binned(NamedTuple):
    """What a window's curve is built from: ``mfht_curve`` reads a table's window, fht and volatility only."""

    window: ThresholdWindow
    fht: np.ndarray
    volatility: np.ndarray


def _curve_files(tables: list[EpisodeTable] | list[_Binned], bins: int, min_count: int) -> list[tuple]:
    """Each table's curve file (none when no episode can be binned), then ``verdicts.json``."""
    files, verdicts = [], []
    for table in tables:
        window_id = table.window.window_id
        try:
            curve = mfht_curve(table, bins=bins, min_count=min_count)
            files.append((f"curve_{window_id}.csv", write_curve_csv, (curve,)))
        except ValueError:  # no episode with binnable volatility; an empty table has none
            curve = None
        verdicts.append(nonmonotonicity_verdict(curve, window_id=window_id))
    return files + [("verdicts.json", write_json, (verdicts,))]


def cmd_analyze(args: argparse.Namespace) -> Outcome:
    _check_analyze_flags(args)
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
    n_series = len(ensemble)
    # Every window scans one block of series before the next block is cut,
    # so only one block's prefix sums and masks are alive at a time, and
    # each block's rows are written out as text at once: to one unlinked
    # temporary file per window, which episodes.csv is made of.  Only the
    # hitting times and volatilities stay, for the curves.
    kept = [([], []) for _ in windows]
    try:
        with ExitStack() as stack:
            spools = [stack.enter_context(tempfile.TemporaryFile("w+", encoding="utf-8", newline=""))
                      for _ in windows]
            for block in ensemble.series_blocks():
                tables = [extract_table(block, w, entry_rule=args.entry_rule, vol_scope=args.vol_scope)
                          for w in windows]
                write_episode_rows(spools, tables)
                for (fht, vol), table in zip(kept, tables):
                    fht.append(table.fht)
                    vol.append(table.volatility)
            del ensemble, block  # the block is a view of the ensemble's values
            binned = [_Binned(w, np.concatenate(fht), np.concatenate(vol)) for w, (fht, vol) in zip(windows, kept)]
            files = [("episodes.csv", write_episodes_csv, (spools,))]
            files += _curve_files(binned, args.bins, args.min_count)
            total = sum(b.fht.size for b in binned)
            config = {name: getattr(args, name) for name in ("window", "entry_rule", "vol_scope", "bins", "min_count")}
            return Outcome(
                config, inputs, files,
                lambda out: f"analyze: {n_series} series, {len(windows)} window(s), {total} episodes -> {out}",
                {"sigma_bar": sigma_bar}, empty=None if total else "no episodes extracted", closing=stack.pop_all(),
            )
    except OSError as exc:  # a full disk, or a file size limit, where the spools are
        raise OSError(f"episodes.csv: temporary file in {tempfile.gettempdir()}: {exc}") from None


# ------------------------------------------------------- mfht / fht-pdf / acf


def _load_episode_tables(path_text: str) -> list[EpisodeTable]:
    path = Path(path_text)
    with _fault(InputError):
        tables = read_episodes_csv(path)
    if not tables:
        raise EmptyResultError(f"{path}: no episodes")
    return tables


def cmd_mfht(args: argparse.Namespace) -> Outcome:
    tables = _load_episode_tables(args.episodes)
    return Outcome(
        {"bins": args.bins, "min_count": args.min_count}, [Path(args.episodes)],
        _curve_files(tables, args.bins, args.min_count),
        lambda out: f"mfht: {len(tables)} window(s) -> {out}",
    )


def cmd_fht_pdf(args: argparse.Namespace) -> Outcome:
    tables = _load_episode_tables(args.episodes)
    files = [
        (f"fht_pdf_{table.window.window_id}.csv", write_histogram_csv, (fht_pdf(table, bins=args.bins),))
        for table in tables
    ]
    return Outcome(
        {"bins": args.bins}, [Path(args.episodes)], files,
        lambda out: f"fht-pdf: {len(tables)} window(s) -> {out}",
    )


def cmd_acf(args: argparse.Namespace) -> Outcome:
    with _fault(InputError):
        ensemble = read_returns_csv(Path(args.returns))
    with _fault(InputError, f"{args.returns}: "):  # a series too short for max_lag, or of zero variance
        result = ensemble_acf(ensemble, args.max_lag, absolute=args.absolute)
    name = "acf_abs.csv" if args.absolute else "acf.csv"
    return Outcome(
        {"max_lag": args.max_lag, "absolute": args.absolute}, [Path(args.returns)],
        [(name, write_acf_csv, (result,))],
        lambda out: f"acf: {len(ensemble)} series, lags 0..{args.max_lag} -> {out / name}",
    )


# ----------------------------------------------------------------- compare


def cmd_compare(args: argparse.Namespace) -> Outcome:
    paths = [Path(args.empirical), Path(args.model)]
    with _fault(InputError):
        curves = [read_curve_csv(path) for path in paths]
    for path, curve in zip(paths, curves):
        if not curve.populated.any():  # compare_curves' own error would name neither file
            raise InputError(f"{path}: curve has no populated bins")
    with _fault(InputError):
        comparison = compare_curves(*curves)
    report = comparison.report
    files = [("compare.csv", write_comparison_csv, (comparison,)), ("compare.json", write_json, (report,))]
    bins, offset = report["bins_compared"], report["peak_offset_bins"]
    return Outcome(
        {}, paths, files,
        lambda out: f"compare: {bins} common bins, peak offset {offset} -> {out}",
    )


# ------------------------------------------------------------------ parser


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    for key in _FLOAT_KEYS:
        p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=float, default=None)
    for key in _INT_KEYS:
        if key != "seed":  # added next to --config
            p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="volstab",
        description="Hitting-time stability analysis of daily returns, simulated or empirical.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"volstab {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name: str, func, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary, allow_abbrev=False)  # flag names must be exact
        # A value such as -1e-3 is a negative number, not a flag; the pattern
        # argparse itself uses on some Python releases has no exponent form.
        p._negative_number_matcher = re.compile(r"^-\.?\d")
        p.add_argument("--out", help="output directory (default: runs/<timestamp>[-seed<seed>])")
        p.set_defaults(func=func, error=p.error)
        return p

    p = add("simulate", cmd_simulate, "generate a return ensemble from the model")
    p.add_argument("--config", help="key = value config file, or a manifest .json to replay")
    p.add_argument("--seed", type=int, default=None, help="master seed")
    p.add_argument("--threads", type=int, default=2,
                   help="processes to split the series among, at most one per usable CPU and series: "
                        "each draws, steps and writes the rows of its own series (default 2); the output "
                        "does not depend on it")
    _add_model_flags(p)
    p.add_argument("--write-trajectories", action="store_true",
                   help="also export series,day,x,v rows")

    p = add("analyze", cmd_analyze, "extract episodes and build hitting-time curves")
    p.add_argument("--returns", help="returns CSV (ticker,day_index,return)")
    p.add_argument("--prices", help="price CSV file or directory")
    p.add_argument("--layout", choices=("per-stock", "wide"))
    p.add_argument("--window", choices=WINDOW_FAMILIES + ("manual",), default="fig1a")
    p.add_argument("--theta-i", dest="theta_i", type=float, default=None)
    p.add_argument("--theta-f", dest="theta_f", type=float, default=None)
    p.add_argument("--sigma-bar", dest="sigma_bar", type=float, default=None,
                   help="override the market volatility computed from the input data")
    p.add_argument("--bins", type=int, default=DEFAULT_BINS)
    p.add_argument("--min-count", dest="min_count", type=int, default=DEFAULT_MIN_COUNT)
    p.add_argument("--entry-rule", dest="entry_rule", choices=ENTRY_RULES, default=DEFAULT_ENTRY_RULE)
    p.add_argument("--vol-scope", dest="vol_scope", choices=VOL_SCOPES, default=DEFAULT_VOL_SCOPE)
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
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:  # reported by the subcommand, whose usage names its flags
        args.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        _check_flag_bounds(args)
        outcome = args.func(args)  # reads and computes all, so a fault ends the run before any output exists
        with outcome.closing:
            for name, _, _ in outcome.files:
                if len(name.encode()) > _MAX_NAME_BYTES:
                    raise InputError(f"output file name longer than {_MAX_NAME_BYTES} bytes: {name}")
            out, made = _out_dir(args.out, outcome.config.get("seed"))
            try:
                _write_outputs(out, args.subcommand, outcome)
            except BaseException:
                if made:
                    shutil.rmtree(made, ignore_errors=True)
                raise
    except (ConfigError, InputError, EmptyResultError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:  # a size too large for this machine
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(outcome.summary(out))
    if outcome.empty:
        print(outcome.empty, file=sys.stderr)
        return EXIT_EMPTY
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
