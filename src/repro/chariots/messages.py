"""Protocol messages for the Chariots multi-datacenter pipeline (§6.2)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Tuple

from ..core.record import DatacenterId, KnowledgeVector, Record, RecordItem, count_records
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
    """Batcher → filter: mixed batch for the filter's championed slices.

    ``externals`` are lone records and record runs, as shipped."""

    drafts: List[DraftRecord] = field(default_factory=list)
    externals: List[RecordItem] = field(default_factory=list)

    def record_count(self) -> int:
        return len(self.drafts) + count_records(self.externals)

    def wire_size(self, record_size: int = 512) -> int:
        return 64 + sum(d.size_bytes(record_size) for d in self.drafts) + sum(
            r.size_bytes(record_size) for r in self.externals
        )


@dataclass(slots=True)
class AdmittedBatch(Payload):
    """Filter → queue: records that passed uniqueness/order checks."""

    drafts: List[DraftRecord] = field(default_factory=list)
    externals: List[RecordItem] = field(default_factory=list)

    def record_count(self) -> int:
        return len(self.drafts) + count_records(self.externals)

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
class DraftCommitBatch:
    """Queue → client: the assigned identities of the client's drafts one
    queue round sequenced (the append acks of §3), as runs.

    Each run ``[first_seq, first_toid, count]`` gives drafts ``first_seq``
    to ``first_seq + count - 1`` the TOIds ``first_toid`` onwards at
    ``host``; within a round a record's LId is its TOId plus
    ``lid_offset``."""

    host: DatacenterId = ""
    lid_offset: int = 0
    runs: List[List[int]] = field(default_factory=list)


@dataclass(slots=True)
class FrontierUpdate:
    """Queue → GC coordinator: the datacenter's incorporation frontier, its
    own row of the Awareness Table."""

    vector: KnowledgeVector


@dataclass(slots=True)
class ReplicationShipment(Payload):
    """Sender → remote receiver: records read from one maintainer's log.

    ``ship_seq`` orders shipments per (sender, maintainer) stream so the ack
    protocol can retransmit losslessly; duplicate delivery is harmless — the
    remote filters enforce exactly-once admission.  ``upto_lid`` is the LId
    the stream's cursor moves to once the peer acks.
    """

    from_dc: DatacenterId
    sender: str
    maintainer: str
    ship_seq: int
    #: Lone records and record runs, as the maintainer's log cut them.
    records: List[RecordItem] = field(default_factory=list)
    upto_lid: int = -1

    def record_count(self) -> int:
        return count_records(self.records)


@dataclass(slots=True)
class AtableSnapshot:
    """GC coordinator → peer GC coordinator: the whole Awareness Table,
    gossiped every ``replication_interval`` and merged by element-wise max."""

    matrix: Dict[DatacenterId, Dict[DatacenterId, int]] = field(default_factory=dict)


@dataclass(slots=True)
class ShipmentAck:
    """Receiver → sender: shipment received and handed to the batchers."""

    maintainer: str
    ship_seq: int
    upto_lid: int
    from_dc: DatacenterId = ""
