"""Print the peak resident set size of one command, run in a fresh child process.

usage: python tools/peak_rss.py CMD [ARG...]

The command is started with ``os.posix_spawnp`` and reaped with
``os.wait4``, whose ``ru_maxrss`` is the child's peak.  Linux starts a
child's count at its parent's peak, so this process imports the standard
library only and stays small.  The peak is printed to stdout as ``peak_rss_mb N``,
in MB of 10^6 bytes as the benchmark reports ``peak_rss_mb``.  The
command's own output passes through, and its exit code is returned.
Standard library only.
"""

from __future__ import annotations

import os
import sys

MB = 1e6


def peak_rss(argv: list[str]) -> tuple[int, float]:
    """Run ``argv`` to its end; its exit code and its peak resident set size in MB."""
    pid = os.posix_spawnp(argv[0], argv, os.environ)
    _, status, usage = os.wait4(pid, 0)
    # Linux reports ru_maxrss in KiB, macOS in bytes.
    scale = 1 if sys.platform == "darwin" else 1024
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss * scale / MB


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    try:
        code, mb = peak_rss(argv)
    except OSError as exc:  # no such command, or not executable
        print(f"peak_rss: {argv[0]}: {exc.strerror}", file=sys.stderr)
        return 127
    print(f"peak_rss_mb {mb:.2f}", flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
