"""Record model for the shared log.

The paper (§3, "Data model") gives each record three pieces of metadata:

* **LId** — the record copy's position in one datacenter's shared log.  Every
  datacenter assigns its own LId to its copy, so the LId is *not* part of the
  immutable record; it belongs to the per-datacenter :class:`LogEntry`.
* **TOId** — the total-order id of the record with respect to its *host*
  datacenter (the datacenter whose application client created it).  All
  copies of a record share the same TOId.
* **Tags** — key/value pairs attached by the application and visible to the
  system (used by the indexers); the record *body* is opaque.

In addition each record carries a **dependency vector**: the appending
client's knowledge of every datacenter's records at append time, expressed as
``{datacenter: max TOId seen}``.  This is the causality metadata used by the
abstract solution (§6.1) and the queue stage (§6.2) to decide when a record
may be incorporated into a local log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from .errors import ConfigurationError

#: Datacenters are identified by short strings ("A", "B", "us-east", ...).
DatacenterId = str

#: Mapping from datacenter id to the highest TOId known from it.
KnowledgeVector = Dict[DatacenterId, int]


@dataclass(frozen=True, order=True, slots=True)
class RecordId:
    """Globally unique, immutable identity of a record: ``(host, TOId)``.

    TOIds start at 1 (the paper initialises ATable entries to zero so that
    "the first record of each node has a TOId of 1").
    """

    host: DatacenterId
    toid: int

    def __post_init__(self) -> None:
        if self.toid < 1:
            raise ConfigurationError(f"TOIds start at 1, got {self.toid}")

    def predecessor(self) -> Optional["RecordId"]:
        """The record that precedes this one in its host's total order."""
        if self.toid == 1:
            return None
        return RecordId(self.host, self.toid - 1)

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return f"<{self.host},{self.toid}>"


def freeze_tags(tags: Optional[Mapping[str, Any]]) -> Tuple[Tuple[str, Any], ...]:
    """Normalise a tag mapping into a hashable, order-stable tuple."""
    if not tags:
        return ()
    return tuple(sorted(tags.items()))


@dataclass(frozen=True, slots=True)
class Record:
    """An immutable shared-log record.

    Records are created once by an application client at their host
    datacenter and replicated verbatim; only the LId differs between copies.
    """

    rid: RecordId
    body: Any
    tags: Tuple[Tuple[str, Any], ...] = ()
    deps: Tuple[Tuple[DatacenterId, int], ...] = ()
    internal: bool = False  # True for system records (no-op gap fillers etc.)

    @classmethod
    def make(
        cls,
        host: DatacenterId,
        toid: int,
        body: Any,
        tags: Optional[Mapping[str, Any]] = None,
        deps: Optional[Mapping[DatacenterId, int]] = None,
        internal: bool = False,
    ) -> "Record":
        """Build a record from friendly mapping arguments."""
        dep_items = tuple(sorted((deps or {}).items()))
        return cls(
            rid=RecordId(host, toid),
            body=body,
            tags=freeze_tags(tags),
            deps=dep_items,
            internal=internal,
        )

    @property
    def host(self) -> DatacenterId:
        return self.rid.host

    @property
    def toid(self) -> int:
        return self.rid.toid

    def tag_dict(self) -> Dict[str, Any]:
        """The record's tags as a plain dictionary."""
        return dict(self.tags)

    def dep_vector(self) -> KnowledgeVector:
        """The record's causal dependency vector as a plain dictionary.

        The implicit dependency on the previous record from the same host is
        *included*: a record ``<A, t>`` always depends on ``<A, t-1>``.
        """
        vector = dict(self.deps)
        vector[self.host] = max(vector.get(self.host, 0), self.toid - 1)
        return vector

    def depends_on(self, other: RecordId) -> bool:
        """Whether ``other`` is in this record's (direct) dependency set."""
        rid = self.rid
        if other.host == rid.host and rid.toid - 1 >= other.toid:
            return True  # the implicit dependency on the host predecessor
        for host, toid in self.deps:
            if host == other.host and toid >= other.toid:
                return True
        return False

    def size_bytes(self, default_body_size: int = 512) -> int:
        """Approximate wire size of the record.

        Used by the simulator's bandwidth accounting.  String and bytes
        bodies are measured; other bodies fall back to ``default_body_size``
        (the paper's experiments use 512-byte records).
        """
        if isinstance(self.body, bytes):
            body = len(self.body)
        elif isinstance(self.body, str):
            body = len(self.body.encode("utf-8"))
        else:
            body = default_body_size
        tag_overhead = sum(len(str(k)) + len(str(v)) for k, v in self.tags)
        dep_overhead = 12 * len(self.deps)
        return body + tag_overhead + dep_overhead + 24  # 24B fixed header


@dataclass(frozen=True, slots=True)
class LogEntry:
    """One datacenter's copy of a record: the record plus its local LId.

    LIds start at 0 and are dense: position ``i`` in a datacenter's shared
    log always holds exactly one record once the head of the log has passed
    ``i``.
    """

    lid: int
    record: Record

    def __post_init__(self) -> None:
        if self.lid < 0:
            raise ConfigurationError(f"LIds are non-negative, got {self.lid}")

    @property
    def rid(self) -> RecordId:
        return self.record.rid


@dataclass(frozen=True, slots=True)
class AppendResult:
    """Returned to the application client after a successful append (§3).

    Carries the assigned TOId and LId as the paper's ``Append`` API promises.
    """

    rid: RecordId
    lid: int

    @property
    def toid(self) -> int:
        return self.rid.toid


@dataclass(slots=True)
class ReadRules:
    """Predicate object for ``Read(in: rules, out: records)`` (§3).

    A rule may constrain LIds, TOIds (per host datacenter), and tags.  All
    supplied constraints must hold (conjunction).  ``limit`` with
    ``most_recent`` implements the indexer's "return the most recent x
    records" lookups (§5.3).
    """

    min_lid: Optional[int] = None
    max_lid: Optional[int] = None
    host: Optional[DatacenterId] = None
    min_toid: Optional[int] = None
    max_toid: Optional[int] = None
    tag_key: Optional[str] = None
    tag_value: Optional[Any] = None
    tag_min_value: Optional[Any] = None
    limit: Optional[int] = None
    most_recent: bool = True
    include_internal: bool = False
    extra: Dict[str, Any] = field(default_factory=dict)

    def matches(self, entry: LogEntry) -> bool:
        """Whether a log entry satisfies every constraint in this rule."""
        record = entry.record
        if record.internal and not self.include_internal:
            return False
        if self.min_lid is not None and entry.lid < self.min_lid:
            return False
        if self.max_lid is not None and entry.lid > self.max_lid:
            return False
        if self.host is not None and record.host != self.host:
            return False
        if self.min_toid is not None and record.toid < self.min_toid:
            return False
        if self.max_toid is not None and record.toid > self.max_toid:
            return False
        if self.tag_key is not None:
            tags = record.tag_dict()
            if self.tag_key not in tags:
                return False
            if self.tag_value is not None and tags[self.tag_key] != self.tag_value:
                return False
            if self.tag_min_value is not None and tags[self.tag_key] < self.tag_min_value:
                return False
        return True
