"""Workload generation for the benchmark harness (§7 experimental setup).

:class:`LoadClient` reproduces the paper's client machines: they construct
records of a configured size and push them to the system at a *target
throughput*.  Generation itself costs CPU on the client's machine (building
and serialising records is real work), so a client machine's own capacity
bounds its offered load — exactly the effect §7.2 observes when the clients,
not the pipeline, are the bottleneck of the basic deployment.

Pacing uses a tick timer at the target rate with a small bound on
outstanding generation jobs, so an overloaded client degrades to its CPU
capacity instead of accumulating an unbounded self-queue.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

from ..core.errors import ConfigurationError
from ..runtime.actor import Actor

#: Factory signature: (client_name, batch_index, n_records) -> message.
BatchFactory = Callable[[str, int, int], Any]


@dataclass
class _MakeBatch:
    """Self-message representing the CPU work of building one batch."""

    n_records: int

    def record_count(self) -> int:
        # Building a batch costs the same per-record CPU as processing one.
        return self.n_records

    def wire_size(self, record_size: int = 512) -> int:
        return 0  # never crosses the network; self-addressed


class LoadClient(Actor):
    """A client machine generating record batches at a target rate.

    Parameters
    ----------
    name:
        Actor name (also the metrics source name).
    targets:
        Destination actor names; batches round-robin across them (the
        paper's clients pick a maintainer "randomly or intelligibly").
    batch_factory:
        Builds the protocol message for one batch (an ``AppendRequest`` for
        FLStore benchmarks, a draft-record batch for pipeline benchmarks).
    target_rate:
        Offered load in records/second.
    batch_size:
        Records per batch.
    total_records:
        Stop after generating this many records (None = run forever).
    max_outstanding:
        Bound on queued generation jobs (pacing backpressure).
    """

    def __init__(
        self,
        name: str,
        targets: Sequence[str],
        batch_factory: BatchFactory,
        target_rate: float,
        batch_size: int = 500,
        total_records: Optional[int] = None,
        max_outstanding: int = 4,
    ) -> None:
        super().__init__(name)
        if not targets:
            raise ConfigurationError("LoadClient needs at least one target")
        if target_rate <= 0 or batch_size < 1:
            raise ConfigurationError("target_rate and batch_size must be positive")
        self.targets = list(targets)
        self.batch_factory = batch_factory
        self.target_rate = target_rate
        self.batch_size = batch_size
        self.total_records = total_records
        self.max_outstanding = max_outstanding
        self.records_generated = 0
        self.batches_sent = 0
        self._outstanding = 0
        self._batch_index = itertools.count()
        self._target_cycle = itertools.cycle(self.targets)
        self._timer = None

    # ------------------------------------------------------------------ #

    def set_targets(self, targets: Sequence[str]) -> None:
        """Re-point the client (e.g. after elastic expansion, §6.3)."""
        if not targets:
            raise ConfigurationError("LoadClient needs at least one target")
        self.targets = list(targets)
        self._target_cycle = itertools.cycle(self.targets)

    def on_start(self) -> None:
        interval = self.batch_size / self.target_rate

        def tick() -> None:
            if self._finished():
                if self._timer is not None:
                    self._timer.cancel()
                return
            if self._outstanding >= self.max_outstanding:
                return  # client CPU saturated; skip this tick (sheds load)
            self._outstanding += 1
            self.send(self.name, _MakeBatch(self._next_batch_size()))

        self._timer = self.set_timer(interval, tick, periodic=True)

    def on_message(self, sender: str, message: Any) -> None:
        if isinstance(message, _MakeBatch):
            self._outstanding -= 1
            if message.n_records <= 0 or self._finished():
                return
            batch = self.batch_factory(self.name, next(self._batch_index), message.n_records)
            self.send(next(self._target_cycle), batch)
            self.records_generated += message.n_records
            self.batches_sent += 1
        # Append acknowledgements and other replies need no client action.

    # ------------------------------------------------------------------ #

    def _next_batch_size(self) -> int:
        if self.total_records is None:
            return self.batch_size
        remaining = self.total_records - self.records_generated
        return max(0, min(self.batch_size, remaining))

    def _finished(self) -> bool:
        return self.total_records is not None and self.records_generated >= self.total_records


class SinkActor(Actor):
    """Counts whatever arrives; used to terminate flows in micro-benchmarks."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.messages: List[Any] = []
        self.records_received = 0

    def on_message(self, sender: str, message: Any) -> None:
        self.messages.append(message)
        counter = getattr(message, "record_count", None)
        if callable(counter):
            self.records_received += counter()
