"""Work split into contiguous parts, one forked process per part.

The integrator and the CSV writer share this: each process works on its
own range of rows, so the result does not depend on how many there are.
The parts share nothing but what the caller put into memory before the
fork: an anonymous shared mapping for results, or files made beforehand.
"""

from __future__ import annotations

import errno
import mmap
import os
import signal
import warnings
from typing import Callable

import numpy as np


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def part_bounds(n: int, threads: int) -> list[int]:
    """Bounds of k contiguous parts of ``range(n)``, the first ``n % k`` one longer.

    k is the least of ``threads``, the usable CPUs and ``n``, and 1 where
    ``os.fork`` does not exist.
    """
    k = max(1, min(threads, _usable_cpus(), n)) if hasattr(os, "fork") else 1
    return [p * (n // k) + min(p, n % k) for p in range(k + 1)]


def shared_doubles(count: int) -> np.ndarray:
    """``count`` float64 zeros in an anonymous mapping that forked processes share."""
    nbytes = 8 * count
    try:
        mapping = mmap.mmap(-1, nbytes)
    except OSError as exc:
        if exc.errno == errno.ENOMEM:
            raise MemoryError(f"cannot map {nbytes} bytes: {exc.strerror}") from None
        raise
    return np.frombuffer(mapping)


def run_parts(bounds: list[int], work: Callable[[int, int], None], what: str) -> None:
    """Run ``work(lo, hi)`` for each part: the first here, every other in a forked process.

    Each child leaves by ``os._exit``: with 0 when its part is done, with
    the errno of an OSError it raised, and with 255 after any other
    exception.  The caller waits for all of them.  A child's errno is
    raised here as that OSError, and any other end as an OSError naming
    the part as ``the process that <what> lo-hi``.  Every child is killed
    and reaped on every path, KeyboardInterrupt included.
    """
    parts = list(zip(bounds[:-1], bounds[1:]))
    pids: dict[int, tuple[int, int]] = {}
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns when a process with more than one OS thread
            # forks, and numpy's OpenBLAS starts a thread at import.  A child
            # is safe: it computes into its own rows, takes no lock that
            # another thread may hold, and leaves by os._exit.
            warnings.filterwarnings(
                "ignore", r"This process \(pid=\d+\) is multi-threaded, use of fork\(\)", DeprecationWarning
            )
            for lo, hi in parts[1:]:
                pid = os.fork()
                if pid == 0:
                    status = 255
                    try:
                        work(lo, hi)
                        status = 0
                    except OSError as exc:
                        status = exc.errno if 0 < (exc.errno or 0) < 255 else 255
                    finally:
                        # never unwind into the caller's stack or flush its stdio
                        os._exit(status)
                pids[pid] = (lo, hi)
        work(*parts[0])
        for pid, (lo, hi) in list(pids.items()):
            _, status = os.waitpid(pid, 0)
            del pids[pid]
            code = os.waitstatus_to_exitcode(status)
            if 0 < code < 255:
                raise OSError(code, os.strerror(code))
            if code:
                how = f"was killed by signal {-code}" if code < 0 else "failed"
                raise OSError(f"the process that {what} {lo}-{hi - 1} {how}")
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
