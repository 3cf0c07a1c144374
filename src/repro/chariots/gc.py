"""Garbage collection coordinator (§6.1, "Garbage collection").

A record may be collected at a datacenter only once *every* datacenter is
known to have it.  The coordinator keeps the datacenter's Awareness Table:
its own row comes from the queues' ``FrontierUpdate`` messages, at most
once per ``replication_interval`` from each queue; every other row from
the tables its peers' coordinators gossip.  Every
``replication_interval`` it sends its whole table to each peer coordinator,
along the replication topology, and merges what it receives (element-wise
max: a cell only grows).  Like the maintainers' ``GossipHL`` it sends even
when nothing changed, so a lost snapshot is replaced by the next one.  A
cell ``T[Y, h]`` therefore only ever holds a value Y's queues reported.  On
each sweep the coordinator computes the per-host GC frontier (the minimum
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
from .messages import AtableSnapshot, FrontierUpdate


class GcCoordinator(Actor):
    """Per-datacenter Awareness Table keeper and GC driver."""

    def __init__(
        self,
        name: str,
        dc_id: DatacenterId,
        datacenters: Iterable[DatacenterId],
        maintainers: List[str],
        indexers: Optional[List[str]] = None,
        config: Optional[PipelineConfig] = None,
    ) -> None:
        super().__init__(name)
        self.dc_id = dc_id
        self.atable = AwarenessTable(dc_id, datacenters)
        self.maintainers = list(maintainers)
        self.indexers = list(indexers or [])
        #: The peer datacenters' coordinators this one gossips its table to.
        self.peers: List[str] = []
        self.config = config or PipelineConfig()
        self._floors = {m: -1 for m in self.maintainers}
        self.sweeps = 0

    def on_start(self) -> None:
        if self.config.gc_interval > 0:
            self.set_timer(self.config.gc_interval, self.sweep, periodic=True)
        self.set_timer(self.config.replication_interval, self._gossip, periodic=True)

    def _gossip(self) -> None:
        snapshot = AtableSnapshot(self.atable.as_matrix())
        for peer in self.peers:
            self.send(peer, snapshot)

    def on_message(self, sender: str, message: Any) -> None:
        if isinstance(message, FrontierUpdate):
            self.atable.note_peer_knowledge(self.dc_id, message.vector)
        elif isinstance(message, AtableSnapshot):
            self.atable.merge(message.matrix)
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
