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

:class:`RecordId`, :class:`Record`, :class:`LogEntry` and
:class:`AppendResult` are immutable ``NamedTuple`` values: construction,
hashing, equality and ordering are the tuple's own, in C, so two values with
equal fields are equal (a ``RecordId`` equals its plain ``(host, toid)``
pair).  The id range checks run in ``__new__``, also when unpickling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .errors import ConfigurationError

#: Datacenters are identified by short strings ("A", "B", "us-east", ...).
DatacenterId = str

#: Mapping from datacenter id to the highest TOId known from it.
KnowledgeVector = Dict[DatacenterId, int]

_tuple_new = tuple.__new__


# A NamedTuple class may not define ``__new__``, so the two types whose
# fields have a range check subclass a private field tuple and check there.
class _RecordIdFields(NamedTuple):
    host: DatacenterId
    toid: int


class RecordId(_RecordIdFields):
    """Globally unique, immutable identity of a record: ``(host, TOId)``.

    TOIds start at 1 (the paper initialises ATable entries to zero so that
    "the first record of each node has a TOId of 1").
    """

    __slots__ = ()

    def __new__(cls, host: DatacenterId, toid: int) -> "RecordId":
        if toid < 1:
            raise ConfigurationError(f"TOIds start at 1, got {toid}")
        return _tuple_new(cls, (host, toid))

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return f"<{self.host},{self.toid}>"


def freeze_tags(tags: Optional[Mapping[str, Any]]) -> Tuple[Tuple[str, Any], ...]:
    """Normalise a tag mapping into a hashable, order-stable tuple."""
    if not tags:
        return ()
    return tuple(sorted(tags.items()))


class Record(NamedTuple):
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


@dataclass(slots=True)
class RecordRun:
    """Records one queue round sequenced together, as columns.

    A run is ``len(bodies)`` records of one ``host`` with consecutive TOIds
    from ``first_toid``, one shared ``deps`` tuple (the queue computes it
    once per round) and the ``bodies`` and ``tags`` columns (lists, one
    entry per record).  It is the unit of work from the queue to the remote
    datacenter's maintainer — sequenced, placed, stored, shipped and
    admitted whole, the way a Kafka record batch is a base offset plus
    deltas.  :meth:`records` splits it back into :class:`Record` values,
    which only the read API, the oracle and the applications build.
    A run holds at least one record, and never an internal one.
    """

    host: DatacenterId
    first_toid: int
    deps: Tuple[Tuple[DatacenterId, int], ...]
    bodies: List[Any]
    tags: List[Tuple[Tuple[str, Any], ...]]

    def __post_init__(self) -> None:
        if self.first_toid < 1:
            raise ConfigurationError(f"TOIds start at 1, got {self.first_toid}")
        if not self.bodies:
            raise ConfigurationError("a record run holds at least one record")

    def __len__(self) -> int:
        return len(self.bodies)

    @property
    def end_toid(self) -> int:
        """The TOId after the run's last record."""
        return self.first_toid + len(self.bodies)

    def records(self) -> List[Record]:
        """The run's records, in TOId order."""
        host = self.host
        deps = self.deps
        new = _tuple_new
        return [
            new(Record, (new(RecordId, (host, toid)), body, tags, deps, False))
            for toid, body, tags in zip(
                range(self.first_toid, self.end_toid), self.bodies, self.tags
            )
        ]

    def slice(self, start: int, stop: int) -> "RecordRun":
        """Records ``start`` to ``stop - 1`` of the run, as a run."""
        return RecordRun(
            self.host,
            self.first_toid + start,
            self.deps,
            self.bodies[start:stop],
            self.tags[start:stop],
        )

    def size_bytes(self, default_body_size: int = 512) -> int:
        """The sum of :meth:`Record.size_bytes` over the run's records."""
        body = 0
        for value in self.bodies:
            if isinstance(value, bytes):
                body += len(value)
            elif isinstance(value, str):
                body += len(value.encode("utf-8"))
            else:
                body += default_body_size
        tag_overhead = sum(len(str(k)) + len(str(v)) for tags in self.tags for k, v in tags)
        return body + tag_overhead + (12 * len(self.deps) + 24) * len(self.bodies)


#: What carries records between stages: a lone record, or a run of them.
RecordItem = Union[Record, RecordRun]


def count_records(items: Iterable[RecordItem]) -> int:
    """How many records ``items`` hold (a run counts its records)."""
    return sum(len(item) if isinstance(item, RecordRun) else 1 for item in items)


def split_runs(items: Iterable[RecordItem]) -> List[Record]:
    """``items`` as lone records, runs split in place."""
    records: List[Record] = []
    for item in items:
        if isinstance(item, RecordRun):
            records += item.records()
        else:
            records.append(item)
    return records


def split_placements(
    placements: Iterable[Tuple[int, RecordItem]]
) -> Iterator[Tuple[int, Record]]:
    """``(lid, item)`` placements as ``(lid, record)`` pairs: a run placed
    at ``lid`` holds LIds ``lid`` to ``lid + len(run) - 1``."""
    for lid, item in placements:
        if isinstance(item, RecordRun):
            yield from zip(range(lid, lid + len(item)), item.records())
        else:
            yield lid, item


class _LogEntryFields(NamedTuple):
    lid: int
    record: Record


class LogEntry(_LogEntryFields):
    """One datacenter's copy of a record: the record plus its local LId.

    LIds start at 0 and are dense: position ``i`` in a datacenter's shared
    log always holds exactly one record once the head of the log has passed
    ``i``.
    """

    __slots__ = ()

    def __new__(cls, lid: int, record: Record) -> "LogEntry":
        if lid < 0:
            raise ConfigurationError(f"LIds are non-negative, got {lid}")
        return _tuple_new(cls, (lid, record))

    @property
    def rid(self) -> RecordId:
        return self.record.rid


class AppendResult(NamedTuple):
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

    def merge_indexed(self, lids: Sequence[int], entries: Iterable[LogEntry]) -> List[LogEntry]:
        """An indexed read's answer: ``entries`` in lookup order ``lids``,
        skipping unreadable LIds, filtered by :meth:`matches`, up to ``limit``."""
        found = {entry.lid: entry for entry in entries}
        merged = [found[lid] for lid in lids if lid in found and self.matches(found[lid])]
        return merged if self.limit is None else merged[: self.limit]

    def merge_scan(self, entries: Iterable[LogEntry]) -> List[LogEntry]:
        """A scan's answer: every maintainer's ``entries``, sorted by LId in
        the rules' direction, up to ``limit``."""
        merged = sorted(entries, key=lambda entry: entry.lid, reverse=self.most_recent)
        return merged if self.limit is None else merged[: self.limit]
