#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

usage: python3 perfbench/selftest.py

Runs every workload once untraced and once traced, and requires a correct
result that carries every metric of BENCHMARK.json with its unit.  Then
it changes one digit of returns.csv and of episodes.csv and requires the
output checks to count each as a failure, and it requires run.py to fail
without a result in a directory that holds only the benchmark.  Exits
with 1 on the first failure.
"""

from __future__ import annotations

import math
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import run

TINY = {
    "simulate": dict(n_series=12, days=6),
    "simulate-threads": dict(n_series=12, days=6),
    "analyze-sweep": dict(n_series=40, days=300, samples=4),
}
SEED = 7


def fail(message: str) -> None:
    print(f"selftest: FAIL: {message}")
    sys.exit(1)


def check_result(name: str, trace: int, result: dict, spec: dict) -> None:
    if not (result["correct"] and result["attempted"] >= 1 and result["failed"] == 0):
        fail(f"{name} trace={trace}: {result['correct']=} {result['attempted']=} {result['failed']=}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    if got != want:
        fail(f"{name} trace={trace}: metrics or units differ from BENCHMARK.json")
    if not all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"]) for m in result["metrics"].values()):
        fail(f"{name} trace={trace}: a metric value is not a finite number")


def change_digit(path: Path, line: int, field: int, pick) -> None:
    """Replace the digit chosen by ``pick`` in one field of one CSV line."""
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[line].rstrip("\n").split(",")
    text = cells[field]
    i = pick(text)
    cells[field] = text[:i] + str(int(text[i]) % 9 + 1) + text[i + 1:]
    lines[line] = ",".join(cells) + "\n"
    path.write_text("".join(lines))


def first_significant(text: str) -> int:
    return re.search(r"[1-9]", text).start()


def last_digit(text: str) -> int:
    return len(text) - 1


def corrupted_outputs_fail(launcher: run.Launcher) -> None:
    work = run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    cases = [
        ("simulate", "returns.csv", 2, first_significant),  # a return value
        ("analyze-sweep", "episodes.csv", 5, last_digit),  # a hitting time
        ("analyze-sweep", "episodes.csv", 6, first_significant),  # a volatility
    ]
    try:
        for name, filename, field, pick in cases:
            w = replace(run.WORKLOADS[name], **TINY[name])
            prepared = run.prepare(w, SEED, work / "in")
            out = work / "out"
            done = run.run_cli(launcher, run.cli_command(prepared.args), out, work)
            if done.code != 0 or run.verify(w, SEED, prepared, out, launcher, work):
                fail(f"{name}: the uncorrupted output does not pass")
            rows = len((out / filename).read_text().splitlines())
            change_digit(out / filename, rows // 2, field, pick)
            if not run.verify(w, SEED, prepared, out, launcher, work):
                fail(f"{name}: a changed digit in field {field} of {filename} passed the checks")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def bare_directory_fails() -> None:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(run.SPEC, bare / run.SPEC.name)
        shutil.copytree(run.BENCH, bare / run.BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "simulate", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
        if done.returncode == 0 or done.stdout.strip():
            fail("run.py succeeded or printed a result without the package's sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = run.load_spec()
    env = run.environment()
    with run.Launcher() as launcher:
        for name, size in TINY.items():
            for trace in (0, 1):
                w = replace(run.WORKLOADS[name], **size)
                check_result(name, trace, run.report(run.measure(w, SEED, 0.5, bool(trace), launcher), spec, env), spec)
        corrupted_outputs_fail(launcher)
    bare_directory_fails()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
