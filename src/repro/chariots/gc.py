"""Garbage collection coordinator (§6.1, "Garbage collection").

A record may be collected at a datacenter only once *every* datacenter is
known to have it.  The coordinator maintains the datacenter's Awareness
Table: its own row comes from the queues' ``FrontierUpdate`` broadcasts, the
peers' rows from the knowledge vectors attached to inbound replication
shipments.  On each sweep it computes the per-host GC frontier (the minimum
over all rows) and instructs the maintainers to truncate covered prefixes;
their reports then let it prune the indexers.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional

from ..core.atable import AwarenessTable
from ..core.config import PipelineConfig
from ..core.record import DatacenterId, KnowledgeVector
from ..flstore.messages import GcReport, PruneIndexBelow, TruncateBelow
from ..runtime.actor import Actor
from .messages import AtableSnapshot, FrontierUpdate, PeerVector


class GcCoordinator(Actor):
    """Per-datacenter Awareness Table keeper and GC driver."""

    def __init__(
        self,
        name: str,
        dc_id: DatacenterId,
        datacenters: Iterable[DatacenterId],
        maintainers: List[str],
        indexers: Optional[List[str]] = None,
        senders: Optional[List[str]] = None,
        config: Optional[PipelineConfig] = None,
        snapshot_interval: float = 0.05,
    ) -> None:
        super().__init__(name)
        self.dc_id = dc_id
        self.atable = AwarenessTable(dc_id, datacenters)
        self.maintainers = list(maintainers)
        self.indexers = list(indexers or [])
        self.senders = list(senders or [])
        self.snapshot_interval = snapshot_interval
        self.config = config or PipelineConfig()
        self._floors = {m: -1 for m in self.maintainers}
        self.sweeps = 0

    def on_start(self) -> None:
        if self.config.gc_interval > 0:
            self.set_timer(self.config.gc_interval, self.sweep, periodic=True)
        if self.senders:
            self.set_timer(self.snapshot_interval, self._broadcast_atable, periodic=True)

    def _broadcast_atable(self) -> None:
        """Hand the senders the current ATable so their shipments carry it
        (the abstract solution propagates the table with every snapshot,
        §6.1) — required for GC convergence over partial topologies."""
        snapshot = AtableSnapshot(self.atable.as_matrix())
        for sender in self.senders:
            self.send(sender, snapshot)

    def on_message(self, sender: str, message: Any) -> None:
        if isinstance(message, FrontierUpdate):
            self.atable.note_peer_knowledge(self.dc_id, message.vector)
        elif isinstance(message, PeerVector):
            self.atable.note_peer_knowledge(message.peer, message.vector)
            if message.matrix:
                self.atable.merge(message.peer, message.matrix)
        elif isinstance(message, GcReport):
            if message.maintainer in self._floors:
                self._floors[message.maintainer] = max(
                    self._floors[message.maintainer], message.gc_floor
                )
            self._prune_indexers()

    # ------------------------------------------------------------------ #

    def gc_vector(self) -> KnowledgeVector:
        """Per-host frontier of records known by every datacenter."""
        return self.atable.gc_vector()

    def sweep(self) -> None:
        """One GC round: tell every maintainer the current frontier."""
        self.sweeps += 1
        frontier = self.gc_vector()
        if not any(frontier.values()):
            return
        message = TruncateBelow(toid_frontier=frontier)
        for maintainer in self.maintainers:
            self.send(maintainer, message)

    def _prune_indexers(self) -> None:
        if not self.indexers:
            return
        floor = min(self._floors.values())
        if floor <= 0:
            return
        for indexer in self.indexers:
            self.send(indexer, PruneIndexBelow(floor))
