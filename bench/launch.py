"""Run one command and print its own wall time, peak RSS and exit code.

    python3 -S -I bench/launch.py <program> [args...]

A child's ``ru_maxrss`` starts at the RSS of the process it was forked
from, so a command spawned straight from the benchmark (numpy and scipy
loaded) would report the benchmark's RSS.  This small launcher starts the
command from a fresh, small interpreter instead and times it from spawn to
exit.  The command's stdout goes to /dev/null; stderr is inherited.
"""

import os
import sys
import time


def main() -> int:
    argv = sys.argv[1:]
    devnull = os.open(os.devnull, os.O_WRONLY)
    t0 = time.perf_counter()
    pid = os.posix_spawnp(argv[0], argv, os.environ,
                          file_actions=[(os.POSIX_SPAWN_DUP2, devnull, 1)])
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    print(f"{wall!r} {usage.ru_maxrss} {os.waitstatus_to_exitcode(status)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
