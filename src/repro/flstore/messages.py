"""Protocol messages for FLStore (client ↔ maintainer ↔ indexer ↔ controller).

All payload-bearing messages derive from :class:`~repro.runtime.messages.Payload`
so the capacity simulator can charge CPU and NIC time for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.record import AppendResult, DatacenterId, LogEntry, ReadRules, Record
from ..runtime.messages import Payload

# --------------------------------------------------------------------- #
# Appends
# --------------------------------------------------------------------- #


@dataclass(slots=True)
class AppendRequest(Payload):
    """Client → maintainer: append these records (post-assignment, §5.2).

    ``min_lid`` implements explicit order requests (§5.4): the maintainer
    must assign every record in this request a LId strictly greater than
    ``min_lid``, buffering if necessary.
    """

    request_id: int
    records: List[Record] = field(default_factory=list)
    min_lid: Optional[int] = None
    #: False = fire-and-forget: the reply carries only a count, which spares
    #: the maintainer building per-record results under load generation.
    want_results: bool = True


@dataclass(slots=True)
class AppendReply(Payload):
    """Maintainer → client: assigned TOIds/LIds for an append request."""

    request_id: int
    results: List[AppendResult] = field(default_factory=list)
    count: int = 0
    error: Optional[str] = None


@dataclass(slots=True)
class PlaceRecords(Payload):
    """Queue → maintainer: store records at pre-assigned LIds (Chariots mode)."""

    placements: List[Tuple[int, Record]] = field(default_factory=list)

    def record_count(self) -> int:
        return len(self.placements)

    def wire_size(self, record_size: int = 512) -> int:
        return 64 + sum(8 + record.size_bytes(record_size) for _lid, record in self.placements)


# --------------------------------------------------------------------- #
# Reads
# --------------------------------------------------------------------- #


@dataclass(slots=True)
class ReadRequest(Payload):
    """Client → maintainer: read by LId, or rule-scan the maintainer's slice."""

    request_id: int
    lid: Optional[int] = None
    rules: Optional[ReadRules] = None


@dataclass(slots=True)
class ReadReply(Payload):
    request_id: int
    entries: List[LogEntry] = field(default_factory=list)
    error: Optional[str] = None

    def record_count(self) -> int:
        return len(self.entries)

    def wire_size(self, record_size: int = 512) -> int:
        return 64 + sum(8 + e.record.size_bytes(record_size) for e in self.entries)


@dataclass(slots=True)
class ReadNewRequest(Payload):
    """Sender → maintainer: entries with LId > ``after_lid`` that are safe
    to ship (assigned, in owner order).  Used by replication senders (§6.2).

    ``host`` narrows the reply to records created at that datacenter — a
    sender ships only its datacenter's *local* records (§6.2), so it need
    not be sent the external ones; ``None`` asks for every record
    (transitive shipping).
    """

    request_id: int
    after_lid: int = -1
    limit: int = 4096
    host: Optional[DatacenterId] = None


@dataclass(slots=True)
class ReadNewReply(Payload):
    request_id: int
    entries: List[LogEntry] = field(default_factory=list)
    #: Highest contiguously-assigned owned LId at the maintainer.
    upto: int = -1

    def record_count(self) -> int:
        return len(self.entries)

    def wire_size(self, record_size: int = 512) -> int:
        return 64 + sum(8 + e.record.size_bytes(record_size) for e in self.entries)


# --------------------------------------------------------------------- #
# Head-of-log gossip (§5.4)
# --------------------------------------------------------------------- #


@dataclass(slots=True)
class GossipHL:
    """Maintainer → maintainer: my next unassigned LId (fixed-size, §5.4)."""

    maintainer: str
    next_unassigned_lid: int


@dataclass(slots=True)
class HeadRequest:
    """Client → maintainer: what is the head of the log (HL)?"""

    request_id: int


@dataclass(slots=True)
class HeadReply:
    request_id: int
    head_lid: int


# --------------------------------------------------------------------- #
# Indexing (§5.3)
# --------------------------------------------------------------------- #


@dataclass(slots=True)
class IndexUpdate(Payload):
    """Maintainer → indexer: tag postings for newly stored records."""

    #: (tag key, tag value, lid) triples.
    postings: List[Tuple[str, object, int]] = field(default_factory=list)

    def record_count(self) -> int:
        return len(self.postings)

    def wire_size(self, record_size: int = 512) -> int:
        return 64 + 24 * len(self.postings)


@dataclass(slots=True)
class LookupRequest:
    """Client → indexer: find LIds matching a tag rule (§5.3)."""

    request_id: int
    tag_key: str
    tag_value: Optional[object] = None
    tag_min_value: Optional[object] = None
    limit: Optional[int] = None
    most_recent: bool = True
    max_lid: Optional[int] = None


@dataclass(slots=True)
class LookupReply:
    request_id: int
    lids: List[int] = field(default_factory=list)
    error: Optional[str] = None


# --------------------------------------------------------------------- #
# Control plane (§5.1)
# --------------------------------------------------------------------- #


@dataclass(slots=True)
class SessionRequest:
    """Client → controller: initiate a session (§5.1)."""

    request_id: int


@dataclass(slots=True)
class SessionInfo:
    """Controller → client: cluster metadata for the session.

    Carries maintainer/indexer addresses, the ownership journal, and the
    approximate record count the paper mentions.
    """

    request_id: int
    maintainers: List[str] = field(default_factory=list)
    indexers: List[str] = field(default_factory=list)
    batch_size: int = 1000
    approx_records: int = 0
    #: Serialised epoch journal: (start_lid, batch_size, maintainer tuple).
    epochs: List[Tuple[int, int, Tuple[str, ...]]] = field(default_factory=list)
    #: Load-balancing hint from the controller's load reports (§5.2).
    suggested_maintainer: Optional[str] = None


@dataclass(slots=True)
class LoadReport:
    """Maintainer → controller: approximate load feedback (§5.2)."""

    maintainer: str
    records_stored: int
    appends_per_second: float = 0.0


@dataclass(slots=True)
class PruneIndexBelow:
    """GC coordinator → indexer: drop postings for collected positions."""

    below_lid: int


@dataclass(slots=True)
class GcReport:
    """Maintainer → GC coordinator: my collection floor after a truncate."""

    maintainer: str
    gc_floor: int


@dataclass(slots=True)
class TruncateBelow:
    """GC coordinator → maintainer/indexer: drop state below the frontier.

    ``toid_frontier`` maps host datacenter → highest GC-eligible TOId; the
    maintainer truncates the longest owned prefix entirely covered by it.
    """

    toid_frontier: Dict[str, int] = field(default_factory=dict)
    #: Never truncate at or above this LId even if eligible (retention floor).
    keep_from_lid: Optional[int] = None
