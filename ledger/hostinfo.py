"""Host fingerprint and process accounting (measured from outside)."""

from __future__ import annotations

import multiprocessing
import os
import platform
import resource
import signal
import statistics
import sys
from multiprocessing import resource_tracker
from time import perf_counter
from typing import Any, Dict, List, Optional

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def fingerprint(workers: int) -> Dict[str, Any]:
    """What produced a number: CPUs this process may run on, interpreter,
    platform, 1-minute load at start, and whether ``workers`` worker
    processes plus the parent outnumber the CPUs."""
    cpus = len(os.sched_getaffinity(0))
    return {
        "cpus": cpus,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "load1_at_start": os.getloadavg()[0],
        "workers": workers,
        "oversubscribed": workers + 1 > cpus,
    }


#: Seconds one calibration unit takes on the reference host.  Normalised
#: times are reported as if the host ran at this speed (see HostClock).
REF_UNIT_SECONDS = 0.000125
#: Calibration units run at each edge of a measured window.
EDGE_UNITS = 6
_POOL = bytes(600)


def calibration_unit() -> int:
    """A fixed piece of pure-Python work of the kind the system under test
    does: 512-byte slices, dict stores and lookups, integer arithmetic.  It
    allocates no container the garbage collector tracks, so it never pays
    for a collection of the workload's objects."""
    table: Dict[int, bytes] = {}
    total = 0
    pool = _POOL
    for i in range(400):
        body = pool[i & 63 : (i & 63) + 512]
        table[i] = body
        total += len(table[i ^ 1 if i & 1 else i]) + i * i % 7
    return total


class HostClock:
    """Measures how fast the host is *while* a workload runs on it.

    The sizing host's speed swings by up to 2x over seconds to minutes
    (other tenants): the same fixed loop takes 21-43 ms, CPU time equal to
    wall time.  No length of run averages that out, so a CPU-bound metric is
    reported at reference host speed instead.  The driver calls :meth:`tick`
    wherever it already loops; at most once per ``interval`` seconds a tick
    runs one :func:`calibration_unit` and times it.  :meth:`slowdown` is the
    median unit time over a window divided by ``REF_UNIT_SECONDS``; a time
    measured in that window is divided by it, a rate multiplied.

    With ``pause`` (single-process workloads, where nothing else can run
    meanwhile) :meth:`now` stands still during a unit, so calibration is in
    no measured time.  Without it (worker processes keep running) ``now`` is
    ``perf_counter`` and the units are driver overhead, about 3 % of the
    parent's time.  ``interval=None`` turns calibration off: ``slowdown`` is
    1 and every value is as measured.
    """

    def __init__(self, interval: Optional[float], pause: bool) -> None:
        self.interval = interval
        self.pause = pause
        self.paused = 0.0
        #: Seconds each calibration unit took, in order.
        self.samples: List[float] = []
        self._next = 0.0

    def now(self) -> float:
        return perf_counter() - self.paused

    def tick(self, units: int = 0) -> None:
        """One calibration unit if one is due; ``units`` of them regardless."""
        if self.interval is None:
            return
        start = perf_counter()
        if not units:
            if start < self._next:
                return
            units = 1
        last = start
        for _ in range(units):
            calibration_unit()
            end = perf_counter()
            self.samples.append(end - last)
            last = end
        if self.pause:
            self.paused += last - start
        self._next = last + self.interval

    def mark(self) -> int:
        """Opens a window for :meth:`slowdown`.  Both edges of a window run
        ``EDGE_UNITS`` units, so even a window of a few milliseconds (a
        single-process set-up) rests on a dozen samples."""
        opened = len(self.samples)
        self.tick(EDGE_UNITS)
        return opened

    def slowdown(self, since: int) -> float:
        """Host slowdown against the reference over the window since ``since``."""
        if self.interval is None:
            return 1.0
        self.tick(EDGE_UNITS)
        return statistics.median(self.samples[since:]) / REF_UNIT_SECONDS


def peak_rss_mb() -> float:
    """Parent's peak resident set plus the largest reaped child's (MB).

    ``RUSAGE_CHILDREN.ru_maxrss`` is the maximum over children that have
    been waited for, i.e. the largest worker once the runtime is stopped.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # Linux reports KiB


def process_cpu_seconds(pid: int) -> float:
    """utime + stime of ``pid`` from ``/proc`` (clock-tick resolution)."""
    with open(f"/proc/{pid}/stat", "rb") as handle:
        # The command name is parenthesised and may contain spaces.
        fields = handle.read().rsplit(b")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def child_pids() -> List[int]:
    """Pids whose parent is this process (from ``/proc``)."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                fields = handle.read().rsplit(b")", 1)[1].split()
        except OSError:
            continue  # ended while we were looking
        if int(fields[1]) == me:
            pids.append(int(entry))
    return pids


def stop_children() -> None:
    """Stop every process this one started and wait until each has ended.

    ``MultiprocRuntime.stop()`` reaps its workers, but ``multiprocessing``'s
    "spawn" start method also starts a resource-tracker process that
    otherwise outlives this process by a moment (it only exits once it
    reads end-of-file on a pipe this process holds open until it ends).
    Called on every path out of ``run.py``.
    """
    for child in multiprocessing.active_children():  # a runtime that never stopped
        child.kill()
        child.join()
    tracker = resource_tracker._resource_tracker
    fd, pid = tracker._fd, tracker._pid
    if fd is not None:
        # Closing the "alive" descriptor ends the tracker's main loop.
        tracker._fd = tracker._pid = None
        os.close(fd)
        if pid is not None:
            os.waitpid(pid, 0)
    for pid in child_pids():  # nothing should be left; never leave it running
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
