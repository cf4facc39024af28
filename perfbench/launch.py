"""Start, time and reap the benchmark's child processes.

usage: python launch.py   (driven by run.py over stdin and stdout)

Reads one JSON request per line:
    {"cmd": [...], "stdout": path, "stderr": path, "timeout": seconds}
and answers each with one JSON line:
    {"cal": s, "wall": s, "cpu": s, "maxrss_kb": n, "code": n}

"cal" is the mean time of a fixed loop run just before and just after the
command (see calibrate), so that run.py can take out the host's changing
speed.

Linux seeds a child's maximum RSS with its parent's peak, so children
started by run.py would report run.py's own peak (generated inputs,
output checks) instead of theirs.  This process imports only the standard
library and stays smaller than any command it starts, so the RSS that
wait4 reports is the command's own.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time

CAL_LOOPS = 1_000_000


def _spin(n: int) -> None:
    acc = 0
    for i in range(n):
        acc += i * i % 7


def calibrate() -> float:
    """Seconds this process takes for a fixed pure-Python loop.

    The host lends its cores to other tenants, and its speed for the same
    work drifts by tens of per cent over seconds to minutes.  Timed right
    next to each command, the loop sees the same drift.  The loop is split
    over one thread per CPU this process may use, which its children
    inherit, so that it meets the contention, and the handing over of the
    interpreter lock, that a command running on those CPUs meets.
    """
    n = len(os.sched_getaffinity(0))
    workers = [threading.Thread(target=_spin, args=(CAL_LOOPS // n,)) for _ in range(n)]
    t0 = time.perf_counter()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    return time.perf_counter() - t0


def run(request: dict) -> dict:
    before = calibrate()
    with open(request["stdout"], "w") as so, open(request["stderr"], "w") as se:
        t0 = time.perf_counter()
        proc = subprocess.Popen(request["cmd"], stdout=so, stderr=se)
        killer = threading.Timer(request["timeout"], proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "cal": (before + calibrate()) / 2,
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "code": proc.returncode,
    }


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
