"""The abstract single-node solution of §6.1.

This is the paper's reference model: each datacenter is "a machine"
manipulating a log, an Awareness Table, and a priority queue of deferred
records under a single thread of control.  The distributed pipeline (§6.2)
must be observationally equivalent to this model — :func:`check_logs` is
the one judge of that, for the test suite and the scenario invariants alike.

It is also a perfectly usable small-scale backend: the application layer
(Hyksos, the stream processor, Message Futures/Helios) runs against either
this or the full pipeline through the same shared-log interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..core.atable import AwarenessTable
from ..core.causality import CausalFrontier, DeferredQueue, first_violation
from ..core.errors import GarbageCollectedError, LidOutOfRangeError
from ..core.record import (
    AppendResult,
    DatacenterId,
    KnowledgeVector,
    LogEntry,
    ReadRules,
    Record,
    RecordId,
)


class AbstractChariots:
    """One datacenter of the abstract solution: log + ATable + deferred queue."""

    def __init__(self, dc_id: DatacenterId, datacenters: Iterable[DatacenterId]) -> None:
        self.dc_id = dc_id
        self.atable = AwarenessTable(dc_id, datacenters)
        self.frontier = CausalFrontier()
        self.deferred = DeferredQueue()
        self._log: List[Record] = []
        self._base_lid = 0  # first LId still present (advances under GC)

    # ------------------------------------------------------------------ #
    # Event 2: Append (§6.1)
    # ------------------------------------------------------------------ #

    def append(
        self,
        body: Any,
        tags: Optional[Mapping[str, Any]] = None,
        deps: Optional[Mapping[DatacenterId, int]] = None,
    ) -> AppendResult:
        """Append a locally-generated record.

        The record's causality metadata is the datacenter's incorporation
        frontier at append time (everything earlier in this log happens
        before it), merged with any explicit dependencies the caller read
        elsewhere.
        """
        toid = self.atable.get(self.dc_id, self.dc_id) + 1
        vector = self.frontier.snapshot()
        vector.pop(self.dc_id, None)  # implicit via the TOId chain
        for host, dep_toid in (deps or {}).items():
            if host != self.dc_id and dep_toid > vector.get(host, 0):
                vector[host] = dep_toid
        record = Record.make(self.dc_id, toid, body, tags=tags, deps=vector)
        self.atable.record_appended(toid)
        self.frontier.advance(record)
        self._log.append(record)
        return AppendResult(record.rid, self.head_lid())

    # ------------------------------------------------------------------ #
    # Event 3: Read (§6.1)
    # ------------------------------------------------------------------ #

    def read(self, lid: int) -> LogEntry:
        if lid < self._base_lid:
            raise GarbageCollectedError(lid, self._base_lid)
        index = lid - self._base_lid
        if index >= len(self._log):
            raise LidOutOfRangeError(lid, self.head_lid())
        return LogEntry(lid, self._log[index])

    def read_rules(self, rules: ReadRules) -> List[LogEntry]:
        span = range(len(self._log))
        order = reversed(span) if rules.most_recent else iter(span)
        matches: List[LogEntry] = []
        for index in order:
            entry = LogEntry(self._base_lid + index, self._log[index])
            if rules.matches(entry):
                matches.append(entry)
                if rules.limit is not None and len(matches) >= rules.limit:
                    break
        return matches

    def head_lid(self) -> int:
        """LId of the newest record (-1 when the log is empty)."""
        return self._base_lid + len(self._log) - 1

    def entries(self) -> List[LogEntry]:
        return [LogEntry(self._base_lid + i, r) for i, r in enumerate(self._log)]

    def __len__(self) -> int:
        return len(self._log)

    # ------------------------------------------------------------------ #
    # Event 4: Propagate (§6.1)
    # ------------------------------------------------------------------ #

    def snapshot_for(
        self, peer: DatacenterId
    ) -> Tuple[List[Record], Dict[DatacenterId, Dict[DatacenterId, int]]]:
        """Records ``peer`` lacks (per our ATable) plus our ATable snapshot.

        Shipping is transitive (Replicated Dictionary style): records from
        *any* host the peer has not seen are included, so partial topologies
        still converge.
        """
        missing = [
            record
            for record in self._log
            if not self.atable.peer_knows(peer, record.rid)
        ]
        return missing, self.atable.as_matrix()

    # ------------------------------------------------------------------ #
    # Event 5: Reception (§6.1, Figure 5)
    # ------------------------------------------------------------------ #

    def receive(
        self,
        sender: DatacenterId,
        records: Sequence[Record],
        matrix: Optional[Dict[DatacenterId, Dict[DatacenterId, int]]] = None,
    ) -> List[Record]:
        """Incorporate a propagation: staging buffer → log or deferred queue.

        Returns the records incorporated into the log by this reception (in
        incorporation order).  Duplicates are ignored; records with
        unsatisfied dependencies park in the deferred priority queue.
        """
        incorporated: List[Record] = []
        for record in records:
            if self.frontier.is_duplicate(record) or record.rid in self.deferred:
                continue
            if self.frontier.admissible(record):
                self.frontier.advance(record)
                self._incorporate(record)
                incorporated.append(record)
            else:
                self.deferred.push(record)
        for record in self.deferred.drain(self.frontier):
            self._incorporate(record)
            incorporated.append(record)
        if matrix is not None:
            self.atable.merge(sender, matrix)
        return incorporated

    def _incorporate(self, record: Record) -> None:
        self._log.append(record)
        self.atable.record_incorporated(record.rid)

    # ------------------------------------------------------------------ #
    # Garbage collection (§6.1)
    # ------------------------------------------------------------------ #

    def collect_garbage(self, keep_records: int = 0) -> int:
        """Drop the longest prefix in which every record is known everywhere.

        ``keep_records`` retains at least that many newest records
        regardless.  Returns the number of records collected.
        """
        gc_vector = self.atable.gc_vector()
        limit = len(self._log) - keep_records
        dropped = 0
        while dropped < limit:
            record = self._log[dropped]
            if gc_vector.get(record.host, 0) < record.toid:
                break
            dropped += 1
        if dropped:
            del self._log[:dropped]
            self._base_lid += dropped
        return dropped

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def base_lid(self) -> int:
        return self._base_lid

    def knowledge(self) -> KnowledgeVector:
        return self.frontier.snapshot()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<AbstractChariots {self.dc_id!r} len={len(self._log)}>"


class AbstractDeployment:
    """A set of abstract datacenters plus a manual replication pump.

    ``sync()`` propagates snapshots pairwise until no datacenter learns
    anything new — a fixed point where all logs hold the same record set.
    Tests use :meth:`exchange` for single-step, adversarially-ordered
    deliveries.
    """

    def __init__(self, datacenters: Sequence[DatacenterId]) -> None:
        if len(set(datacenters)) != len(datacenters):
            raise ValueError("duplicate datacenter ids")
        self.dcs: Dict[DatacenterId, AbstractChariots] = {
            dc: AbstractChariots(dc, datacenters) for dc in datacenters
        }

    def __getitem__(self, dc: DatacenterId) -> AbstractChariots:
        return self.dcs[dc]

    def exchange(self, src: DatacenterId, dst: DatacenterId) -> int:
        """One propagation from ``src`` to ``dst``; returns records learned."""
        records, matrix = self.dcs[src].snapshot_for(dst)
        incorporated = self.dcs[dst].receive(src, records, matrix)
        return len(incorporated)

    def sync(self, max_rounds: int = 64) -> None:
        """Propagate all-pairs until convergence."""
        for _ in range(max_rounds):
            learned = 0
            for src in self.dcs:
                for dst in self.dcs:
                    if src != dst:
                        learned += self.exchange(src, dst)
            if learned == 0:
                return
        raise RuntimeError("abstract deployment failed to converge")


@dataclass(frozen=True)
class LogVerdict:
    """What :func:`check_logs` found; ``ok`` when it found nothing.

    Per datacenter: the first stored LId (``None`` if empty), the first entry
    that repeats an LId, breaks the consecutive run or is causally
    inadmissible, and the records missing from / unexpected in its log; per
    misplaced ack, what its LId holds instead.  The repr names the
    datacenter, LId and record of every problem.
    """

    first_lid: Dict[DatacenterId, Optional[int]]
    repeated_lid: Dict[DatacenterId, LogEntry]
    lid_gap: Dict[DatacenterId, LogEntry]
    causal_violation: Dict[DatacenterId, LogEntry]
    missing: Dict[DatacenterId, FrozenSet[RecordId]]
    unexpected: Dict[DatacenterId, FrozenSet[RecordId]]
    misplaced_acks: Dict[AppendResult, Optional[RecordId]]

    @property
    def ok(self) -> bool:
        return not self._problems()

    def _problems(self) -> List[str]:
        per_entry = (
            ("repeats an earlier LId", self.repeated_lid),
            ("breaks the consecutive LId run", self.lid_gap),
            ("is causally inadmissible", self.causal_violation),
        )
        lines: List[str] = []
        for what, firsts in per_entry:
            lines += [f"{dc}: {e.rid} at LId {e.lid} {what}" for dc, e in firsts.items()]
        for what, sets in (("missing", self.missing), ("unexpected", self.unexpected)):
            lines += [f"{dc}: {len(r)} {what}, first {min(r)}" for dc, r in sets.items()]
        lines += [
            f"{ack.rid.host}: ack of {ack.rid} names LId {ack.lid}, which holds {found}"
            for ack, found in self.misplaced_acks.items()
        ]
        return lines

    def __repr__(self) -> str:
        return f"LogVerdict({'; '.join(self._problems()) or 'ok'})"


def check_logs(
    logs: Mapping[DatacenterId, Sequence[LogEntry]],
    reference: Optional[Mapping[DatacenterId, Sequence[LogEntry]]] = None,
    acks: Iterable[AppendResult] = (),
) -> LogVerdict:
    """Judge datacenter logs (``{dc: entries in LId order}``, as
    ``ChariotsDeployment.logs()`` returns) against the abstract solution.

    Each log must hold unique LIds, consecutive from its first, and be a
    causal order walked from an empty frontier; every log must hold the
    record set of ``reference`` (typically the abstract solution's logs for
    the same workload), else the union of ``logs``; each ack must name the
    LId its record holds in its host's log.  The walk admits ``<h, t>`` only
    right after ``<h, t-1>``, so it also rejects a repeated record and a
    per-host gap or swap: equal sets plus the walk mean exactly-once
    placement and identical per-host total orders.
    """
    first_lid: Dict[DatacenterId, Optional[int]] = {}
    repeated: Dict[DatacenterId, LogEntry] = {}
    gap: Dict[DatacenterId, LogEntry] = {}
    causal: Dict[DatacenterId, LogEntry] = {}
    for dc, entries in logs.items():
        first_lid[dc] = entries[0].lid if entries else None
        seen: Set[int] = set()
        for position, entry in enumerate(entries):
            if entry.lid in seen:
                repeated.setdefault(dc, entry)
            if entry.lid != entries[0].lid + position:
                gap.setdefault(dc, entry)
            seen.add(entry.lid)
        bad = first_violation([entry.record for entry in entries])
        if bad is not None:
            causal[dc] = entries[bad]

    rids = {dc: {entry.rid for entry in entries} for dc, entries in logs.items()}
    expected = {e.rid for log in (logs if reference is None else reference).values() for e in log}
    missing = {dc: frozenset(expected - s) for dc, s in rids.items() if expected - s}
    unexpected = {dc: frozenset(s - expected) for dc, s in rids.items() if s - expected}

    held = {(dc, entry.lid): entry.rid for dc, entries in logs.items() for entry in entries}
    misplaced: Dict[AppendResult, Optional[RecordId]] = {}
    for ack in acks:
        found = held.get((ack.rid.host, ack.lid))
        if found != ack.rid:
            misplaced[ack] = found
    return LogVerdict(first_lid, repeated, gap, causal, missing, unexpected, misplaced)
