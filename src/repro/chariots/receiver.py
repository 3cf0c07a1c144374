"""Receivers: the remote-ingest side of stage 1 (§6.2).

Receivers accept replication shipments from other datacenters, acknowledge
them and forward the records — lone, and runs as shipped — to the local
batchers (round-robin).  They never see the Awareness Table, which the GC
coordinators gossip among themselves.  Receivers are completely independent
of one another — scaling the stage is coordination-free (§6.3).
"""

from __future__ import annotations

from typing import Any, List, Optional

from ..core.config import PipelineConfig
from ..core.record import DatacenterId
from ..runtime.actor import Actor
from .messages import FilterBatch, ReplicationShipment, ShipmentAck


class Receiver(Actor):
    """Ingests shipments from remote senders into the local pipeline."""

    def __init__(
        self,
        name: str,
        dc_id: DatacenterId,
        batchers: List[str],
        config: Optional[PipelineConfig] = None,
    ) -> None:
        super().__init__(name)
        self.dc_id = dc_id
        self.batchers = list(batchers)
        self.config = config or PipelineConfig()
        #: Index in ``batchers`` of the next shipment's batcher.
        self._next_batcher = 0
        self.records_received = 0
        self.shipments_received = 0

    def add_batcher(self, name: str) -> None:
        """Elasticity: include a newly added batcher in the fan-out (§6.3)."""
        if name not in self.batchers:
            self.batchers.append(name)
            self._next_batcher = 0

    def on_message(self, sender: str, message: Any) -> None:
        if not isinstance(message, ReplicationShipment):
            return
        self.shipments_received += 1
        self.send(
            sender,
            ShipmentAck(
                maintainer=message.maintainer,
                ship_seq=message.ship_seq,
                upto_lid=message.upto_lid,
                from_dc=self.dc_id,
            ),
        )
        if message.records:
            self.records_received += message.record_count()
            index = self._next_batcher
            self._next_batcher = (index + 1) % len(self.batchers)
            self.send(self.batchers[index], FilterBatch(externals=list(message.records)))
