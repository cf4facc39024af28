#!/usr/bin/env python3
"""Benchmark of the volstab CLI: three workloads timed end to end, traced per layer.

usage: python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

A workload is one `volstab` command on inputs generated from --seed.  It
runs as a child process with PYTHONPATH=<checkout>/src, again and again
for --seconds: a closed loop with one client and no concurrency beyond
the command's own --threads.  Outputs are checked after each run, never
inside the timed region.  --trace 0 prints the end-to-end metrics named in
BENCHMARK.json; --trace 1 also runs the command under tracer.py and prints
the per-layer metrics.  The last line of standard output is the result as
JSON; details, spans and the machine are stored under .perfbench_work/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

import checks
import inputs
from launch import calibrate

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
SPEC = ROOT / "BENCHMARK.json"

SETUPS = 3  # set-ups per run; setup_s is their median
TRACED_RUNS = 3  # per-layer metrics are medians over these
RUN_TIMEOUT_S = 150
# Normalised times are seconds on a nominal host where calibrate() takes
# CAL_REF_S: a measured time x CAL_REF_S / the calibration time next to it.
CAL_REF_S = 0.1
MB = 1e6
ENTRY = "import sys; from volstab.cli import main; sys.exit(main(sys.argv[1:]))"


class HarnessError(Exception):
    """The benchmark cannot measure this checkout."""


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # simulate or sweep
    n_series: int  # series simulated, or series in the returns CSV
    days: int
    threads: int = 1
    window: str = ""
    samples: int = 3  # series the checks compare against a reference


# simulate: the default model at the full 1071-series width (the per-step
# array width of the default run), fewer days; `model` dominates.
# simulate-threads: the only workload on simulate_ensemble's thread path.
# analyze-sweep: CSV parse, 26 scans per series and a large episodes.csv.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("simulate", "simulate", 1071, 100),
        Workload("simulate-threads", "simulate", 1071, 100, threads=2),
        Workload("analyze-sweep", "sweep", 1071, 500, window="fig1b", samples=16),
    )
}


@dataclass
class Run:
    cal: float  # mean of calibrate() just before and just after the command
    wall: float
    cpu: float
    rss_mb: float
    code: int
    digests: dict[str, str] = field(default_factory=dict)
    ok: bool = False


@dataclass
class Prepared:
    args: list[str]  # CLI arguments without --out
    data: inputs.AnalyzeInput | None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def check_package() -> None:
    """Stop unless the children import volstab from this checkout's src/."""
    probe = subprocess.run(
        [sys.executable, "-c", "import volstab; print(volstab.__file__)"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120,
    )
    if probe.returncode != 0:
        tail = probe.stderr.strip().splitlines()[-1:] or ["no output"]
        raise HarnessError(f"cannot import volstab from {ROOT / 'src'}: {tail[0]}")
    found = Path(probe.stdout.strip()).resolve()
    if not found.is_relative_to((ROOT / "src").resolve()):
        raise HarnessError(f"volstab resolves to {found}, outside {ROOT / 'src'}")


def cli_command(args: list[str]) -> list[str]:
    """The `volstab` console script, run from the checkout's sources."""
    return [sys.executable, "-c", ENTRY, *args]


def simulate_args(w: Workload, seed: int, threads: int) -> list[str]:
    return ["simulate", "--seed", str(seed), "--n-series", str(w.n_series),
            "--days", str(w.days), "--threads", str(threads)]


def prepare(w: Workload, seed: int, directory: Path) -> Prepared:
    """Write the workload's inputs into ``directory``."""
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    rel = directory.relative_to(ROOT)
    if w.kind == "simulate":
        return Prepared(simulate_args(w, seed, w.threads), None)
    data = inputs.write_returns_csv(directory / "returns.csv", seed, w.n_series, w.days)
    return Prepared(["analyze", "--returns", str(rel / "returns.csv"), "--window", w.window], data)


def sample(w: Workload, seed: int) -> list[int]:
    rng = np.random.default_rng([seed, 1])
    return sorted(rng.choice(w.n_series, size=min(w.samples, w.n_series), replace=False).tolist())


def digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


class Launcher:
    """The small process that starts and times every command (see launch.py)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launch.py")],
            cwd=ROOT, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=RUN_TIMEOUT_S + 30)

    def run(self, cmd: list[str], logs: Path) -> dict:
        request = {"cmd": cmd, "stdout": str(logs / "stdout.txt"), "stderr": str(logs / "stderr.txt"),
                   "timeout": RUN_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise HarnessError("the launcher process ended")
        return json.loads(reply)


def run_cli(launcher: Launcher, cmd: list[str], out: Path, logs: Path) -> Run:
    """One command, timed from spawn to exit, writing into ``out``."""
    shutil.rmtree(out, ignore_errors=True)
    done = launcher.run(cmd + ["--out", str(out.relative_to(ROOT))], logs)
    return Run(
        cal=done["cal"],
        wall=done["wall"],
        cpu=done["cpu"],
        rss_mb=done["maxrss_kb"] * 1024 / MB,
        code=done["code"],
        digests=digests(out) if out.is_dir() else {},
    )


def verify(w: Workload, seed: int, prepared: Prepared, out: Path,
           launcher: Launcher, work: Path) -> list[str]:
    """Problems with one run's output; empty when it is correct."""
    if w.kind != "simulate":
        return checks.check_analyze(out, prepared.data, w.window, sample(w, seed))
    problems = checks.check_simulate(out, seed, w.n_series, w.days, sample(w, seed))
    if w.threads != 1:
        ref = work / "threads1"
        one = run_cli(launcher, cli_command(simulate_args(w, seed, 1)), ref, work)
        if one.code != 0 or (ref / "returns.csv").read_bytes() != (out / "returns.csv").read_bytes():
            problems.append("returns.csv differs from the --threads 1 output")
    return problems


def _span_times(doc: dict) -> tuple[dict[str, float], dict[str, float]]:
    """Total time per span name, and self time per layer.

    Wrapped calls run one at a time on the main thread, so the children of
    a span never overlap and the time they cover is the sum of theirs.
    """
    covered: dict[int, float] = defaultdict(float)
    for s in doc["spans"]:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for s in doc["spans"]:
        total[s["name"]] += s["end"] - s["start"]
        own[s["layer"]] += s["end"] - s["start"] - covered[s["id"]]
    return total, own


def _per(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_values(doc: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run (those taken from spans and counters)."""
    t, own = _span_times(doc)
    c = Counter(doc["counters"])
    steps, rows = c["series_steps"], c["episode_rows"]
    return {
        "model.simulate_s": t["simulate_ensemble"],
        "model.daily_returns_s": t["daily_returns"],
        "model.series_steps": steps,
        "model.normals": 2 * steps,
        "model.ns_per_series_step": _per(t["simulate_ensemble"] * 1e9, steps),
        "model.state_mb": c["state_bytes"] / MB,
        "model.self_s": own["model"],
        "returns.write_s": t["write_returns_csv"],
        "returns.write_mb": c["write_bytes"] / MB,
        "returns.write_mb_per_s": _per(c["write_bytes"] / MB, t["write_returns_csv"]),
        "returns.read_s": t["read_returns_csv"],
        "returns.read_mb": c["read_bytes"] / MB,
        "returns.read_mb_per_s": _per(c["read_bytes"] / MB, t["read_returns_csv"]),
        "returns.rows_read": c["rows_read"],
        "returns.market_stats_s": t["market_stats"],
        "returns.self_s": own["returns"],
        "episodes.extract_s": t["extract_table"],
        "episodes.windows": c["windows"],
        "episodes.series_scans": c["series_scans"],
        "episodes.us_per_series_scan": _per(t["extract_table"] * 1e6, c["series_scans"]),
        "episodes.rows": rows,
        "episodes.write_s": t["write_episodes_csv"],
        "episodes.write_mb": c["episodes_bytes"] / MB,
        "episodes.rows_per_s": _per(rows, t["write_episodes_csv"]),
        "episodes.self_s": own["episodes"],
        "stats.curve_s": t["mfht_curve"] + t["nonmonotonicity_verdict"],
        "stats.write_s": t["write_curve_csv"],
        "stats.curves": c["curves"],
        "stats.binned_frac": _per(c["binned"], rows),
        "stats.self_s": own["stats"],
        "cli.import_s": doc["import_s"],
        "cli.main_s": t["main"],
        "cli.manifest_s": t["write_manifest"],
        "cli.hashed_mb": c["hashed_bytes"] / MB,
        "cli.self_s": own["cli"],
        "trace.spans": len(doc["spans"]),
    }


def timed_loop(launcher: Launcher, cmd: list[str], seconds: float, work: Path) -> tuple[Run, Path, list[Run]]:
    """An untimed warm-up run, whose output is kept for the checks, then runs of ``cmd`` for ``seconds``."""
    kept = work / "out" / "warmup"
    warmup = run_cli(launcher, cmd, kept, work)
    runs: list[Run] = []
    deadline = time.perf_counter() + seconds
    while not runs or time.perf_counter() < deadline:
        out = work / "out" / "run"
        runs.append(run_cli(launcher, cmd, out, work))
        shutil.rmtree(out, ignore_errors=True)
    return warmup, kept, runs


def traced_runs(launcher: Launcher, w: Workload, seed: int, args: list[str],
                work: Path) -> tuple[list[Run], list[Run], list[dict]]:
    """TRACED_RUNS runs under tracer.py, each right after an untraced run, and their spans.

    The host's speed drifts over minutes, so trace.overhead_s compares
    each traced run with the untraced run just before it.
    """
    untraced, traced, docs = [], [], []
    for k in range(TRACED_RUNS):
        out = work / "out" / f"pair{k}"
        untraced.append(run_cli(launcher, cli_command(args), out, work))
        spans = work / f"spans{k}.json"
        cmd = [sys.executable, str(BENCH / "tracer.py"), str(spans), f"{w.name}-{seed}-{k}", *args]
        traced.append(run_cli(launcher, cmd, out, work))
        shutil.rmtree(out, ignore_errors=True)
        if spans.exists():
            docs.append(json.loads(spans.read_text()))
            for note in docs[-1]["missing_names"] + docs[-1]["counter_errors"]:
                print(f"warning: tracer: {note}", file=sys.stderr)
    return untraced, traced, docs


def measure(w: Workload, seed: int, seconds: float, trace: bool, launcher: Launcher) -> dict:
    """Set up, run, check and trace one workload; the metric values and the details."""
    work = WORK / f"{w.name}-seed{seed}-pid{os.getpid()}"
    try:
        setups = []  # (calibration, set-up) seconds, calibrated as in launch.py
        for _ in range(SETUPS):
            before = calibrate()
            t0 = time.perf_counter()
            check_package()
            prepared = prepare(w, seed, work / "in")
            elapsed = time.perf_counter() - t0
            setups.append(((before + calibrate()) / 2, elapsed))

        warmup, kept, runs = timed_loop(launcher, cli_command(prepared.args), seconds, work)
        paired, traced, docs = traced_runs(launcher, w, seed, prepared.args, work) if trace else ([], [], [])
        all_runs = [warmup] + runs + paired + traced
        if warmup.code != 0:
            problems = [f"the warm-up run exited with {warmup.code}"]
        else:
            problems = verify(w, seed, prepared, kept, launcher, work)
            for r in all_runs:
                r.ok = not problems and r.code == 0 and r.digests == warmup.digests
            if not problems and any(r.code == 0 and not r.ok for r in all_runs):
                problems.append("outputs differ between runs, traced or not, of the same inputs")

        good = [r for r in runs if r.ok] or runs
        wall = statistics.median(r.wall for r in good)
        # Total command time over total calibration time of the same runs:
        # drift of the host's speed within and between runs cancels.
        norm_wall = CAL_REF_S * sum(r.wall for r in good) / sum(r.cal for r in good)
        if trace:
            per_run = [layer_values(d) for d in docs] or [layer_values({"spans": [], "counters": {}, "import_s": 0.0})]
            values = {k: statistics.median(v[k] for v in per_run) for k in per_run[0]}
            cpu = statistics.median(r.cpu for r in good)
            values["cli.cpu_s"] = cpu
            values["cli.cpu_util"] = cpu / wall
            values["trace.overhead_s"] = statistics.median(t.wall - u.wall for u, t in zip(paired, traced))
        else:
            values = {
                "norm_wall_s": norm_wall,
                "series_days_per_norm_s": w.n_series * w.days / norm_wall,
                "peak_rss_mb": statistics.median(r.rss_mb for r in good),
                "setup_s": statistics.median(CAL_REF_S * t / cal for cal, t in setups),
                "ok_frac": sum(r.ok for r in runs) / len(runs),
            }
        return {
            "workload": w.name,
            "sizes": asdict(w),
            "seed": seed,
            "trace": int(trace),
            "correct": not problems and all(r.ok for r in all_runs),
            "attempted": len(all_runs),
            "failed": sum(not r.ok for r in all_runs),
            "values": values,
            "problems": problems,
            "setups_s": [t for _, t in setups],
            "setup_cal_s": [cal for cal, _ in setups],
            "wall_median_s": wall,
            "warmup_run": asdict(warmup),
            "runs": [asdict(r) for r in runs],
            "paired_runs": [asdict(r) for r in paired],
            "traced_runs": [asdict(r) for r in traced],
            "traces": docs,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def tree_digest(directory: Path) -> str:
    """sha256 over the relative paths and bytes of every .py file, to name the code measured."""
    h = hashlib.sha256()
    for p in sorted(directory.rglob("*.py")):
        h.update(str(p.relative_to(directory)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def environment() -> dict:
    """The machine and code a result belongs to; never compare results across machines."""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
        "src_sha256": tree_digest(ROOT / "src"),
    }


def load_spec() -> dict:
    try:
        spec = json.loads(SPEC.read_text())
    except (OSError, ValueError) as exc:
        raise HarnessError(f"cannot read {SPEC}: {exc}") from None
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        raise HarnessError("the workloads in BENCHMARK.json differ from those in run.py")
    return spec


def report(result: dict, spec: dict, env: dict) -> dict:
    """Print a readable summary, store the details, and return the contract's result object."""
    names = spec["per_layer"] if result["trace"] else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in names}
    values = result["values"]
    if set(values) != set(units):
        raise HarnessError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"runs={result['attempted']} failed={result['failed']}")
    print("# env " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        print(f"{result['workload']:17s} {name:28s} {m['value']:16.6g} {m['unit']}")
    if not result["trace"]:
        print(f"# median wall {result['wall_median_s']:.4g} s over {len(result['runs'])} timed runs, not normalised")
    if result["trace"] and values["cli.main_s"]:
        shares = {layer: values[f"{layer}.self_s"] / values["cli.main_s"]
                  for layer in ("model", "returns", "episodes", "stats", "cli")}
        print("# self time / main span: " + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
    for problem in result["problems"]:
        print(f"# problem: {problem}")

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = results / f"{result['workload']}-seed{result['seed']}-trace{result['trace']}-{stamp}.json"
    path.write_text(json.dumps({"env": env, "metrics": metrics, **result}, indent=1))
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        spec = load_spec()
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        if not seconds > 0:
            parser.error("--seconds must be positive")
        env = environment()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        cpus = os.sched_getaffinity(0)
        results = {}
        for n in names:
            w = WORKLOADS[n]
            # The command gets one CPU per thread, and the calibration next
            # to it runs one thread on each of them, so both see the same
            # contention.  The launcher, its children and the set-ups
            # inherit this process's affinity.
            os.sched_setaffinity(0, set(sorted(cpus)[-w.threads:]))
            with Launcher() as launcher:
                results[n] = report(measure(w, args.seed, seconds, bool(args.trace), launcher), spec, env)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
