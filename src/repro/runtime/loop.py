"""Deterministic discrete-event loop shared by every runtime.

Both the instant-delivery :class:`~repro.runtime.local.LocalRuntime` (used by
tests and applications) and the capacity-modelling
:class:`~repro.sim.kernel.SimRuntime` (used by benchmarks) schedule their
work on this loop, so protocol code behaves identically under both — only
*when* events fire differs.

Determinism: events at equal times fire in scheduling order (a monotonically
increasing sequence number breaks ties), so a fixed workload plus fixed seeds
always replays identically.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, List, Optional, Tuple

from ..core.errors import ConfigurationError, RuntimeExhaustedError


class EventHandle:
    """Cancellable handle returned by :meth:`EventLoop.schedule`."""

    __slots__ = ("time", "seq", "callback", "cancelled")

    def __init__(self, time: float, seq: int, callback: Callable[[], None]) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class EventLoop:
    """A minimal, fast event heap with simulated time."""

    def __init__(self) -> None:
        self._now: float = 0.0
        self._heap: List[Tuple[float, int, EventHandle]] = []
        self._seq = itertools.count()
        self._events_processed = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def schedule(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Run ``callback`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise ConfigurationError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> EventHandle:
        """Run ``callback`` at absolute simulated time ``time``."""
        if time < self._now:
            raise ConfigurationError(
                f"cannot schedule at {time} before current time {self._now}"
            )
        handle = EventHandle(time, next(self._seq), callback)
        heapq.heappush(self._heap, (time, handle.seq, handle))
        return handle

    def run(
        self,
        until_time: Optional[float] = None,
        max_events: Optional[int] = None,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> float:
        """Drain events until the heap empties or a stop condition is hit.

        ``until_time`` advances the clock to exactly that time even if the
        heap empties first (so rate measurements have a defined window).
        Returns the simulated time at which the run stopped.
        """
        processed = 0
        while self._heap:
            if stop_when is not None and stop_when():
                return self._now
            if max_events is not None and processed >= max_events:
                return self._now
            time, _seq, handle = self._heap[0]
            if until_time is not None and time > until_time:
                self._now = until_time
                return self._now
            heapq.heappop(self._heap)
            if handle.cancelled:
                continue
            self._now = time
            handle.callback()
            processed += 1
            self._events_processed += 1
        if until_time is not None and until_time > self._now:
            self._now = until_time
        return self._now

    def run_until(self, predicate: Callable[[], bool], timeout: float = math.inf) -> float:
        """Run until ``predicate`` holds; raise if the events run out or
        ``timeout`` simulated seconds pass first."""
        deadline = self._now + timeout
        self.run(stop_when=lambda: predicate() or self._now > deadline)
        if not predicate():
            raise RuntimeExhaustedError(
                f"event loop drained or {timeout}s passed ({self._events_processed} "
                "events processed) before the awaited condition became true"
            )
        return self._now
