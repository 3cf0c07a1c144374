"""Centralised sequencer: the CORFU-style baseline's point of contention.

CORFU/Tango (§2.1) pre-assign log positions: a client asks the sequencer
for the next offsets, then writes the records to the storage units mapped
to those offsets.  The sequencer is off the data path (it hands out numbers,
not data), which is why CORFU beats single-server logs — but every append in
the cluster still crosses this one machine, so cluster throughput is capped
by the sequencer's request rate.  FLStore's post-assignment removes exactly
this component; the ablation benchmarks measure the difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..core.errors import ConfigurationError
from ..runtime.actor import Actor


@dataclass
class SequencerRequest:
    """Client → sequencer: reserve ``count`` consecutive log positions."""

    request_id: int
    count: int = 1


@dataclass
class ReservedRange:
    """Sequencer → client: positions ``[start, start + count)`` are yours."""

    request_id: int
    start: int
    count: int


class Sequencer(Actor):
    """Hands out dense log position ranges; trivially correct, inherently serial."""

    def __init__(self, name: str, grant_cost: Optional[float] = None) -> None:
        super().__init__(name)
        self._next = 0
        self.grants_issued = 0
        #: Optional explicit CPU cost per grant request (overrides the
        #: machine profile's control-message cost under the simulator).
        self._grant_cost = grant_cost

    def service_cost(self, message: Any) -> Optional[float]:
        if self._grant_cost is not None and isinstance(message, SequencerRequest):
            return self._grant_cost
        return None

    def on_message(self, sender: str, message: Any) -> None:
        if not isinstance(message, SequencerRequest):
            return
        if message.count < 1:
            raise ConfigurationError(f"cannot reserve {message.count} positions")
        start = self._next
        self._next += message.count
        self.grants_issued += 1
        self.send(sender, ReservedRange(message.request_id, start, message.count))
