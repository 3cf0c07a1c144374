"""Protocol messages for the Chariots multi-datacenter pipeline (§6.2)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from ..core.record import DatacenterId, KnowledgeVector, Record, RecordId
from ..runtime.messages import Payload


class DraftRecord(NamedTuple):
    """A locally-appended record before the queue assigns its TOId/LId.

    The paper's abstract solution constructs the final record (host id,
    TOId, causality) at append time (§6.1); in the distributed pipeline that
    construction happens at the queue stage, so what flows from clients
    through batchers and filters is this draft.  ``(client, seq)`` is dense
    per client and lets the filters guarantee exactly-once admission and
    per-client FIFO.

    An immutable ``NamedTuple`` value, like :class:`~repro.core.record.Record`:
    a draft equals the plain tuple of its fields, and the hot path builds it
    with ``tuple.__new__``.
    """

    client: str
    seq: int
    body: Any
    tags: Tuple[Tuple[str, Any], ...] = ()
    deps: Tuple[Tuple[DatacenterId, int], ...] = ()

    def size_bytes(self, default_body_size: int = 512) -> int:
        if isinstance(self.body, bytes):
            body = len(self.body)
        elif isinstance(self.body, str):
            body = len(self.body.encode("utf-8"))
        else:
            body = default_body_size
        return body + 32


@dataclass(slots=True)
class DraftBatch(Payload):
    """Client → batcher: locally created records entering the pipeline."""

    drafts: List[DraftRecord] = field(default_factory=list)

    def record_count(self) -> int:
        return len(self.drafts)

    def wire_size(self, record_size: int = 512) -> int:
        return 64 + sum(d.size_bytes(record_size) for d in self.drafts)


@dataclass(slots=True)
class FilterBatch(Payload):
    """Batcher → filter: mixed batch for the filter's championed slices."""

    drafts: List[DraftRecord] = field(default_factory=list)
    externals: List[Record] = field(default_factory=list)

    def record_count(self) -> int:
        return len(self.drafts) + len(self.externals)

    def wire_size(self, record_size: int = 512) -> int:
        return 64 + sum(d.size_bytes(record_size) for d in self.drafts) + sum(
            r.size_bytes(record_size) for r in self.externals
        )


@dataclass(slots=True)
class AdmittedBatch(Payload):
    """Filter → queue: records that passed uniqueness/order checks."""

    drafts: List[DraftRecord] = field(default_factory=list)
    externals: List[Record] = field(default_factory=list)

    def record_count(self) -> int:
        return len(self.drafts) + len(self.externals)

    def wire_size(self, record_size: int = 512) -> int:
        return 64 + sum(d.size_bytes(record_size) for d in self.drafts) + sum(
            r.size_bytes(record_size) for r in self.externals
        )


@dataclass(slots=True)
class Token:
    """The queue-stage token (§6.2, "Queues").

    Carries the datacenter's incorporation frontier (max contiguous TOId per
    host datacenter), the next LId to assign, and a bounded set of deferred
    records whose causal dependencies were unsatisfied at the last holder.
    """

    frontier: KnowledgeVector = field(default_factory=dict)
    next_lid: int = 0
    deferred: List[Record] = field(default_factory=list)


@dataclass(slots=True)
class TokenPass(Payload):
    """Queue → next queue: hand over the token (round-robin, §6.2)."""

    token: Token

    def record_count(self) -> int:
        return len(self.token.deferred)

    def wire_size(self, record_size: int = 512) -> int:
        vector_bytes = 16 * max(1, len(self.token.frontier))
        return 64 + vector_bytes + sum(r.size_bytes(record_size) for r in self.token.deferred)


@dataclass(slots=True)
class DraftCommitted:
    """Queue → client: a draft's assigned identity (the append ack of §3)."""

    client: str
    seq: int
    rid: RecordId
    lid: int


@dataclass(slots=True)
class DraftCommitBatch:
    """Queue → client: assigned identities for a batch of the client's drafts."""

    commits: List[DraftCommitted] = field(default_factory=list)


@dataclass(slots=True)
class FrontierUpdate:
    """Queue → senders / GC coordinator: latest incorporation state."""

    vector: KnowledgeVector


@dataclass(slots=True)
class ReplicationShipment(Payload):
    """Sender → remote receiver: records plus our knowledge state.

    ``ship_seq`` orders shipments per (sender, maintainer) stream so the ack
    protocol can retransmit losslessly; duplicate delivery is harmless — the
    remote filters enforce exactly-once admission.  ``atable`` optionally
    carries the sending datacenter's full Awareness Table (the abstract
    solution ships it with every propagation, §6.1), which lets garbage
    collection converge even over partial replication topologies.
    """

    from_dc: DatacenterId
    sender: str
    maintainer: str
    ship_seq: int
    records: List[Record] = field(default_factory=list)
    vector: KnowledgeVector = field(default_factory=dict)
    upto_lid: int = -1
    atable: Optional[Dict[DatacenterId, Dict[DatacenterId, int]]] = None


@dataclass(slots=True)
class AtableSnapshot:
    """GC coordinator → local senders: the current Awareness Table."""

    matrix: Dict[DatacenterId, Dict[DatacenterId, int]] = field(default_factory=dict)


@dataclass(slots=True)
class ShipmentAck:
    """Receiver → sender: shipment received and handed to the batchers."""

    maintainer: str
    ship_seq: int
    upto_lid: int
    from_dc: DatacenterId = ""


@dataclass(slots=True)
class PeerVector:
    """Receiver → GC coordinator: a peer datacenter's knowledge state."""

    peer: DatacenterId
    vector: KnowledgeVector = field(default_factory=dict)
    matrix: Optional[Dict[DatacenterId, Dict[DatacenterId, int]]] = None
