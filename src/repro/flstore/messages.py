"""Protocol messages for FLStore (client ↔ maintainer ↔ indexer ↔ controller).

All payload-bearing messages derive from :class:`~repro.runtime.messages.Payload`
so the capacity simulator can charge CPU and NIC time for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.record import (
    AppendResult,
    DatacenterId,
    LogEntry,
    ReadRules,
    Record,
    RecordItem,
    count_records,
)
from ..runtime.messages import Payload


def _placed_count(placements: List[Tuple[int, RecordItem]]) -> int:
    """Records in ``(lid, item)`` placements (a run counts its records)."""
    return count_records(item for _lid, item in placements)


def _placed_size(placements: List[Tuple[int, RecordItem]], record_size: int) -> int:
    """64 bytes, then 8 per record (its LId) plus the record's size."""
    return 64 + 8 * _placed_count(placements) + sum(
        item.size_bytes(record_size) for _lid, item in placements
    )

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
    """Queue → maintainer: store records at pre-assigned LIds (Chariots mode).

    A placement ``(lid, run)`` places the run's records at LIds ``lid``
    onwards; ``(lid, record)`` places one record."""

    placements: List[Tuple[int, RecordItem]] = field(default_factory=list)

    def record_count(self) -> int:
        return _placed_count(self.placements)

    def wire_size(self, record_size: int = 512) -> int:
        return _placed_size(self.placements, record_size)


# --------------------------------------------------------------------- #
# Reads
# --------------------------------------------------------------------- #


@dataclass(slots=True)
class ReadRequest(Payload):
    """Client → maintainer: read these owned LIds, or rule-scan its slice."""

    request_id: int
    lids: List[int] = field(default_factory=list)
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
    """Maintainer → sender: the entries past ``after_lid``, as ``(lid,
    item)`` pairs cut from the log's columns — a run wherever host, deps
    and TOIds continue, else a lone record (a ``LogEntry`` is such a pair)."""

    request_id: int
    entries: List[Tuple[int, RecordItem]] = field(default_factory=list)
    #: Highest contiguously-assigned owned LId at the maintainer.
    upto: int = -1

    def record_count(self) -> int:
        return _placed_count(self.entries)

    def wire_size(self, record_size: int = 512) -> int:
        return _placed_size(self.entries, record_size)


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
