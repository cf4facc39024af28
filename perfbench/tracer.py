"""Run ``volstab.cli.main`` with a span around every call the CLI makes into a layer.

usage: python tracer.py SPANS_JSON RUN_ID CLI_ARG...

The names that cli.py bound with ``from .x import y`` are rebound in the
cli module's namespace before ``main`` runs, so the traced pipeline is the
one the untraced runs time and the package's files stay as they are.
Spans stay in memory and are written to SPANS_JSON when ``main`` returns.
All wrapped calls happen on the main thread, so one stack gives each
span its parent.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from pathlib import Path

# Name bound in volstab.cli -> the layer (module) it belongs to.
LAYERS = {
    "simulate_ensemble": "model",
    "daily_returns": "model",
    "write_returns_csv": "returns",
    "read_returns_csv": "returns",
    "load_prices": "returns",
    "to_returns": "returns",
    "market_stats": "returns",
    "write_stats_json": "returns",
    "extract_table": "episodes",
    "write_episodes_csv": "episodes",
    "mfht_curve": "stats",
    "nonmonotonicity_verdict": "stats",
    "write_curve_csv": "stats",
    "write_manifest": "cli",
    "_sha256": "cli",
}

def _size(path) -> int:
    return Path(path).stat().st_size


def _simulate(c, args, result):
    cfg = args[1]
    c["series_steps"] += cfg.n_series * cfg.days * cfg.steps_per_day
    c["state_bytes"] += 2 * 8 * cfg.n_series * (cfg.days + 1)  # x and v, float64


def _read_returns(c, args, result):
    c["read_bytes"] += _size(args[0])
    c["rows_read"] += sum(rs.returns.size for rs in result)


def _extract(c, args, result):
    c["windows"] += 1
    c["series_scans"] += len(args[0])
    c["episode_rows"] += len(result)


# Counters taken from a call's arguments and result, after its span closes.
COUNTERS = {
    "simulate_ensemble": _simulate,
    "write_returns_csv": lambda c, args, result: c.update(write_bytes=_size(args[1])),
    "read_returns_csv": _read_returns,
    "extract_table": _extract,
    "write_episodes_csv": lambda c, args, result: c.update(episodes_bytes=_size(args[1])),
    "mfht_curve": lambda c, args, result: c.update(binned=int(result.counts.sum())),
    "write_curve_csv": lambda c, args, result: c.update(curves=1),
    "_sha256": lambda c, args, result: c.update(hashed_bytes=_size(args[0])),
}


class Recorder:
    """Spans and counters of one traced run."""

    def __init__(self, run_id: str, t0: float):
        self.run_id = run_id
        self.t0 = t0
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.counter_errors: list[str] = []

    def wrap(self, name: str, layer: str, fn):
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "parent": self.stack[-1] if self.stack else None,
                "run": self.run_id,
                "name": name,
                "layer": layer,
                "start": time.perf_counter() - self.t0,
            }
            self.spans.append(span)
            self.stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter() - self.t0
                self.stack.pop()
            if count is not None:
                try:
                    count(self.counters, args, result)
                except Exception as exc:  # a counter must never change the run it observes
                    self.counter_errors.append(f"{name}: {exc!r}")
            return result

        return traced


def main() -> int:
    spans_path, run_id, argv = Path(sys.argv[1]), sys.argv[2], sys.argv[3:]
    t0 = time.perf_counter()
    import volstab.cli as cli

    import_s = time.perf_counter() - t0
    rec = Recorder(run_id, t0)
    missing = [name for name in LAYERS if not hasattr(cli, name)]
    for name, layer in LAYERS.items():
        if name not in missing:
            setattr(cli, name, rec.wrap(name, layer, getattr(cli, name)))
    code = 1
    try:
        code = rec.wrap("main", "cli", cli.main)(argv)
    finally:
        doc = {
            "run": run_id,
            "import_s": import_s,
            "exit_code": code,
            "spans": rec.spans,
            "counters": dict(rec.counters),
            "missing_names": missing,
            "counter_errors": rec.counter_errors,
        }
        spans_path.write_text(json.dumps(doc))
    return code


if __name__ == "__main__":
    sys.exit(main())
