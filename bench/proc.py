"""Child processes: one at a time, timed, with per-child peak RSS."""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

LAUNCHER = Path(__file__).with_name("launch.py")


@dataclass(frozen=True)
class Child:
    wall_s: float
    code: int
    rss_kb: int
    stderr: str


def _communicate(proc, timeout_s: float):
    """Wait for proc; kill its whole process group if it outlives timeout_s."""
    try:
        return proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        return proc.communicate()


def run_child(argv, cwd, env, timeout_s: float) -> Child:
    """Run argv through launch.py, which reports the command's own wall time and peak RSS."""
    proc = subprocess.Popen([sys.executable, "-S", "-I", str(LAUNCHER), *argv], cwd=cwd, env=env,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    out, err = _communicate(proc, timeout_s)
    stderr = err.decode("utf-8", "replace")
    try:
        wall, rss_kb, code = out.split()
        return Child(float(wall), int(code), int(rss_kb), stderr)
    except ValueError:
        return Child(float("nan"), proc.returncode or -1, 0, stderr or "launcher failed")


def time_until_ready(argv, cwd, env, timeout_s: float) -> tuple[float, int, str]:
    """Seconds from spawn until argv prints its first stdout line; also exit code and stderr."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    if select.select([proc.stdout], [], [], timeout_s)[0]:
        proc.stdout.readline()
    wall = time.perf_counter() - t0
    _, err = _communicate(proc, timeout_s)
    return wall, proc.returncode, err.decode("utf-8", "replace")
