"""Direct (in-process) backend: the abstract solution behind the client API.

For unit tests, prototypes, and notebooks, the full pipeline is overkill —
the §6.1 abstract solution already implements the complete semantics.
:class:`DirectDeployment` wraps one :class:`~repro.chariots.abstract.AbstractChariots`
per datacenter and exposes clients with the *same* blocking interface as
:class:`~repro.chariots.client.BlockingChariotsClient` (``append``,
``read``, ``read_lid``, ``head``), so every application in ``repro.apps``
runs unchanged on either backend.  Replication is an explicit
:meth:`DirectDeployment.replicate` pump.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..core.record import (
    AppendResult,
    DatacenterId,
    LogEntry,
    ReadRules,
)
from .abstract import AbstractChariots, AbstractDeployment


@dataclass
class _ReadReplyShim:
    """Matches the ``ReadReply`` surface application code consumes."""

    entries: List[LogEntry]
    error: Optional[str] = None


class DirectClient:
    """Blocking client over one datacenter's abstract instance."""

    def __init__(self, dc: AbstractChariots, deployment: "DirectDeployment") -> None:
        self._dc = dc
        self._deployment = deployment

    @property
    def datacenter(self) -> DatacenterId:
        return self._dc.dc_id

    def append(
        self,
        body: Any,
        tags: Optional[Mapping[str, Any]] = None,
        deps: Optional[Mapping[DatacenterId, int]] = None,
    ) -> AppendResult:
        result = self._dc.append(body, tags=tags, deps=deps)
        if self._deployment.auto_replicate:
            self._deployment.replicate()
        return result

    def read(self, rules: ReadRules) -> List[LogEntry]:
        return self._dc.read_rules(rules)

    def read_lid(self, lid: int) -> _ReadReplyShim:
        try:
            return _ReadReplyShim([self._dc.read(lid)])
        except Exception as exc:  # matches the actor client's error reply
            return _ReadReplyShim([], error=str(exc))

    def head(self) -> int:
        return self._dc.head_lid()


class DirectDeployment:
    """Multi-datacenter abstract deployment with the application client API.

    ``auto_replicate=True`` propagates after every append — convenient for
    sequential examples.  Turn it off to stage concurrent appends and
    deliver them later with :meth:`replicate` (how the conflict tests drive
    Message Futures).
    """

    def __init__(
        self,
        datacenters: Sequence[DatacenterId],
        auto_replicate: bool = False,
    ) -> None:
        self.abstract = AbstractDeployment(list(datacenters))
        self.datacenters = list(datacenters)
        self.auto_replicate = auto_replicate

    def client(self, dc: DatacenterId) -> DirectClient:
        return DirectClient(self.abstract[dc], self)

    def replicate(self, rounds: int = 64) -> None:
        """Propagate all-pairs until no datacenter learns anything new."""
        self.abstract.sync(max_rounds=rounds)

    def exchange(self, src: DatacenterId, dst: DatacenterId) -> int:
        """One directed propagation step (for adversarial schedules)."""
        return self.abstract.exchange(src, dst)

    def logs(self) -> Dict[DatacenterId, List[LogEntry]]:
        return {dc: self.abstract[dc].entries() for dc in self.datacenters}
