"""Shared machinery of the benchmark: paths, statistics, processes, timing.

Nothing here imports :mod:`repro`; the workloads do, after the set-up
clock has started, so that import cost lands in ``setup_s``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import selectors
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

#: The checkout root (the parent of this directory) and its sources.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Native thread pools pinned to one thread in every benchmark process:
#: the box has two cores, one for the load generator and one for the
#: server, and an oversubscribed BLAS pool would make timings depend on
#: the scheduler.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10

#: Longest wait for a child process to start or to stop, in seconds.
PROCESS_TIMEOUT_S = 60.0


def pin_threads() -> None:
    """Pin native thread pools to one thread (call before numpy loads)."""
    os.environ.update(THREAD_ENV)


def child_env() -> dict:
    """Environment for benchmark child processes: sources on the path,
    native thread pools pinned."""
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


# -- statistics -----------------------------------------------------------
def median(samples) -> float:
    """Median of a non-empty sample."""
    return float(statistics.median(samples))


def tail_percentile(samples, q: float, min_beyond: int = MIN_BEYOND):
    """The ``q``-th percentile (nearest rank), or ``None`` when fewer than
    ``min_beyond`` samples lie beyond it.

    A tail percentile read off too few samples is one or two outliers,
    not a distribution, so it is withheld rather than reported.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return None
    rank = max(1, math.ceil(n * q / 100.0))
    if n - rank < min_beyond:
        return None
    return float(ordered[rank - 1])


def highest_tail(samples, candidates=(99.9, 99.0, 95.0, 90.0, 75.0)):
    """``(q, value)`` of the highest candidate percentile with enough
    samples beyond it, or ``None``."""
    for q in candidates:
        value = tail_percentile(samples, q)
        if value is not None:
            return q, value
    return None


# -- processes ------------------------------------------------------------
def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def timed_child(argv: list[str]) -> float:
    """Run a Python child to completion; its wall time in seconds."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT,
                          env=child_env(), timeout=PROCESS_TIMEOUT_S,
                          stdout=subprocess.DEVNULL)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} exited with {proc.returncode}")
    return elapsed


class ServerProcess:
    """A control-plane server in a child process of its own.

    Started from ``argv`` (Python arguments), it announces
    ``... listening on <url>`` on its first stdout line.  :meth:`stop`
    interrupts it (the server's own clean shutdown path), waits for it
    to exit and fails loudly if it does not exit cleanly.
    """

    def __init__(self, argv: list[str]) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, *argv], cwd=ROOT, env=child_env(),
            stdout=subprocess.PIPE, text=True)
        try:
            line = self._first_line()
            if "listening on " not in line:
                raise RuntimeError(f"server did not start: {line!r}")
            self.url = line.rsplit("listening on ", 1)[1].strip()
        except BaseException:
            self.kill()
            raise

    def _first_line(self) -> str:
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout=PROCESS_TIMEOUT_S):
                raise RuntimeError("server did not announce its address")
        return self.proc.stdout.readline()

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def get_json(self, path: str) -> dict:
        with urllib.request.urlopen(self.url + path, timeout=30) as resp:
            return json.loads(resp.read().decode("utf-8"))

    def stop(self) -> None:
        """Interrupt, wait and check the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=PROCESS_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.kill()
                raise RuntimeError("server ignored SIGINT; killed")
        self.proc.stdout.close()
        if self.proc.returncode != 0:
            raise RuntimeError(f"server exited with {self.proc.returncode}")

    def kill(self) -> None:
        """Last-resort cleanup: kill and reap, never raise."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if not self.proc.stdout.closed:
            self.proc.stdout.close()

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, exc_type, *_exc) -> bool:
        if exc_type is None:
            self.stop()
        else:
            self.kill()
        return False


def plain_server_argv() -> list[str]:
    """The shipped server entry point on a free port."""
    return ["-m", "repro.service", "--port", "0"]


def traced_server_argv() -> list[str]:
    """The same server with the benchmark's layer tracing installed."""
    return [str(Path(__file__).with_name("traced_server.py")), "--port", "0"]


# -- the timed window -----------------------------------------------------
class Window:
    """Busy-time window of a closed loop.

    The loop times each operation by itself; inputs are made between
    operations and do not count.  The window closes once ``seconds`` of
    operation time have passed *and* at least ``min_ops`` operations ran,
    so fixed-work readings (peak RSS after ``min_ops``) always exist,
    and only after a whole round of ``round_ops`` operations, so a
    workload cycling through several inputs times each equally often.
    """

    def __init__(self, seconds: float, min_ops: int,
                 round_ops: int = 1) -> None:
        self.seconds = float(seconds)
        self.min_ops = int(min_ops)
        self.round_ops = int(round_ops)
        self.busy_s = 0.0
        self.ops = 0

    def open(self, share: float = 1.0) -> bool:
        """Whether the window, or its first ``share`` of time, is open."""
        if self.ops % self.round_ops:
            return True
        if self.busy_s < self.seconds * share:
            return True
        return share >= 1.0 and self.ops < self.min_ops

    def add(self, elapsed_s: float) -> None:
        self.busy_s += elapsed_s
        self.ops += 1


# -- results --------------------------------------------------------------
def source_rev() -> str:
    """The git revision, or a digest of ``src/`` outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                return ref_file.read_text().strip()
        else:
            return ref
    digest = hashlib.sha1()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return "src-sha1:" + digest.hexdigest()[:16]
