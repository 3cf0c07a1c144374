"""Log maintainers: post-assignment storage nodes of FLStore (§5.2).

A maintainer owns the LId ranges the :class:`~repro.flstore.range_map.OwnershipPlan`
assigns it.  In **post-assignment** mode (standalone FLStore) it assigns the
next free owned LId to each record it receives — no sequencer, no
coordination.  In **placed** mode (under the Chariots pipeline) the queue
stage pre-assigns LIds and the maintainer simply stores records — whole
runs of them — at the requested positions, tolerating out-of-order arrival.

The log is stored as one columnar segment per owned round (LogBase's log
segments): records go in as runs with one slice assignment per column,
and ``Record`` / ``LogEntry`` values are built only when they are read.

The maintainer also participates in the head-of-log gossip (§5.4), serves
reads, feeds tag postings to the indexers (§5.3), hands new entries to
replication senders as runs cut from the columns, and truncates
garbage-collected prefixes (§6.1).

``MaintainerCore`` is pure protocol logic (no I/O); :class:`LogMaintainer`
adapts it to the actor runtimes, and ``repro.net`` adapts it to asyncio TCP.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, Protocol, Tuple

from ..core.config import FLStoreConfig
from ..core.errors import (
    ConfigurationError,
    GapError,
    GarbageCollectedError,
    ImmutabilityError,
    LidOutOfRangeError,
    LogError,
    NotOwnerError,
)
from ..core.hashing import champion
from ..core.record import (
    AppendResult,
    DatacenterId,
    LogEntry,
    ReadRules,
    Record,
    RecordId,
    RecordItem,
    RecordRun,
)
from ..runtime.actor import Actor
from ..runtime.messages import RecordBatch
from .messages import (
    AppendReply,
    AppendRequest,
    GcReport,
    GossipHL,
    LoadReport,
    HeadReply,
    HeadRequest,
    IndexUpdate,
    PlaceRecords,
    ReadNewReply,
    ReadNewRequest,
    ReadReply,
    ReadRequest,
    TruncateBelow,
)
from .range_map import OwnershipPlan

_INF = float("inf")
_tuple_new = tuple.__new__

#: ``(lid, item)`` pairs: a record at ``lid``, or a run from ``lid`` on.
Placements = List[Tuple[int, RecordItem]]

_record_columns = attrgetter("rid.host", "rid.toid", "body", "tags", "deps", "internal")


class _Segment:
    """One owned round of the log, as columns: position ``i`` holds LId
    ``base + i``.

    The columns grow as far as the round is filled, up to ``end - base``
    positions.  A ``None`` host marks a hole (never placed, or collected).
    ``starts`` marks where each stored run or lone record begins, so a read
    cuts runs with C-level searches.  Whatever its length, a segment is a
    handful of objects the cyclic collector tracks: bodies are ``bytes``,
    tags and deps exact tuples of scalars, TOIds an ``array``.
    """

    __slots__ = ("base", "end", "hosts", "toids", "bodies", "tags", "deps", "internal", "starts")

    def __init__(self, base: int, end: int) -> None:
        self.base = base
        self.end = end
        self.hosts: List[Optional[DatacenterId]] = []
        self.toids = array("q")
        self.bodies: List[Any] = []
        self.tags: List[Any] = []
        self.deps: List[Any] = []
        self.internal = bytearray()
        self.starts = bytearray()

    def _grow(self, size: int) -> None:
        """Extend every column with holes to ``size`` positions."""
        k = size - len(self.hosts)
        if k > 0:
            self.hosts += [None] * k
            self.toids.frombytes(bytes(8 * k))
            self.bodies += [None] * k
            self.tags += [()] * k
            self.deps += [()] * k
            self.internal += bytes(k)
            self.starts += bytes(k)

    def write_run(self, off: int, run: RecordRun) -> None:
        """Fill the holes from ``off`` with ``run``: one slice assignment
        per column."""
        n = len(run.bodies)
        end = off + n
        self._grow(end)
        self.hosts[off:end] = [run.host] * n
        self.toids[off:end] = array("q", range(run.first_toid, run.first_toid + n))
        self.bodies[off:end] = run.bodies
        self.tags[off:end] = run.tags
        self.deps[off:end] = [run.deps] * n
        self.starts[off] = 1

    def write_records(self, off: int, records: List[Record]) -> None:
        """Fill the holes from ``off`` with lone ``records``."""
        end = off + len(records)
        self._grow(end)
        hosts, toids, bodies, tags, deps, internal = zip(*map(_record_columns, records))
        self.hosts[off:end] = hosts
        self.toids[off:end] = array("q", toids)
        self.bodies[off:end] = bodies
        self.tags[off:end] = tags
        self.deps[off:end] = deps
        self.internal[off:end] = bytes(internal)
        self.starts[off:end] = b"\x01" * len(records)

    def record(self, off: int) -> Record:
        new = _tuple_new
        rid = new(RecordId, (self.hosts[off], self.toids[off]))
        return new(
            Record,
            (rid, self.bodies[off], self.tags[off], self.deps[off], self.internal[off] == 1),
        )

    def clear(self, off: int) -> None:
        """Collect position ``off``: it becomes a hole."""
        self.hosts[off] = None
        self.toids[off] = 0
        self.bodies[off] = None
        self.tags[off] = ()
        self.deps[off] = ()
        self.internal[off] = 0
        self.starts[off] = 0


class RunSink(Protocol):
    """What a maintainer hands whole runs of placements: its journal and its
    cold-storage archive (:class:`~repro.flstore.archive.ArchiveStore`)."""

    def append_run(self, placements: Placements) -> None: ...


@dataclass(slots=True)
class _DeferredAppend:
    """An explicit-order append waiting for its minimum LId bound (§5.4)."""

    records: List[Record]
    min_lid: int
    context: Any = None  # opaque caller cookie (the actor stores sender/req)
    results: Optional[List[AppendResult]] = None

    def ready(self, next_unassigned: int) -> bool:
        return next_unassigned > self.min_lid


class MaintainerCore:
    """Pure-logic state machine for one log maintainer."""

    def __init__(
        self,
        name: str,
        plan: OwnershipPlan,
        config: Optional[FLStoreConfig] = None,
        journal: Optional[RunSink] = None,
        archive: Optional[RunSink] = None,
    ) -> None:
        self.name = name
        self.plan = plan
        self.config = config or FLStoreConfig()
        self.set_journal(journal)
        #: Cold storage (§6.1): each truncation's evicted records, as one run.
        self._archive = archive
        #: The stored log: one segment per owned round, in LId order, and
        #: their base LIds (for bisection).
        self._segments: List[_Segment] = []
        self._bases: List[int] = []
        self._stored = 0
        first = plan.first_owned_lid(name)
        #: First owned LId not yet filled (post-assign cursor / placed frontier).
        self._next_unassigned: Optional[int] = first
        #: First owned LId that has NOT been garbage collected.
        self._gc_floor: Optional[int] = first
        self._max_stored_lid = -1
        #: Gossip view: each maintainer's next unassigned LId (∞ = retired).
        self._hl_vector: Dict[str, float] = {}
        for peer in plan.maintainers():
            peer_first = plan.first_owned_lid(peer)
            self._hl_vector[peer] = _INF if peer_first is None else float(peer_first)
        self._round_end = -1
        self._refresh_round_end()
        self._sync_self_vector()
        self._deferred: List[_DeferredAppend] = []
        self._pending_postings: List[Tuple[str, object, int]] = []
        self._noop_counter = 0
        self.records_appended = 0
        self.records_placed = 0
        self.records_collected = 0

    def set_journal(self, journal: Optional[RunSink]) -> None:
        """Install (or replace) the journal of future placements: each
        :meth:`place_run` / :meth:`append` reaches it as one ``append_run``.

        Attach before traffic flows: only placements made while a journal is
        installed can be replayed by crash recovery.
        """
        self._journal_run: Optional[Callable[[Placements], None]] = (
            None if journal is None else journal.append_run
        )

    # ------------------------------------------------------------------ #
    # Appending (post-assignment, §5.2)
    # ------------------------------------------------------------------ #

    def append(
        self,
        records: List[Record],
        min_lid: Optional[int] = None,
        context: Any = None,
    ) -> Optional[List[AppendResult]]:
        """Assign the next owned LIds to ``records`` and store them.

        Returns the assigned positions, or ``None`` if the request carried a
        ``min_lid`` bound that cannot be satisfied yet (the request is
        buffered; collect it later via :meth:`flush_deferred`).
        """
        if min_lid is not None and not self._bound_satisfied(min_lid):
            if self.config.fill_gaps_with_noops:
                self._fill_own_gaps_past(min_lid)
            else:
                self._deferred.append(_DeferredAppend(records, min_lid, context))
                return None
        return self._do_append(records)

    def _bound_satisfied(self, min_lid: int) -> bool:
        return self._next_unassigned is not None and self._next_unassigned > min_lid

    def _bulk_run_start(self, count: int) -> Optional[int]:
        """First LId of a dense run of ``count`` free owned LIds, if one is
        available at the cursor without any plan or gap checks.

        Valid when no placed record sits at or beyond the cursor
        (``_max_stored_lid < cursor`` — an O(1) summary of "no holes ahead")
        and the whole run stays inside the cached owned round.
        """
        nxt = self._next_unassigned
        if (
            nxt is not None
            and self._max_stored_lid < nxt
            and nxt + count <= self._round_end
        ):
            return nxt
        return None

    def _finish_bulk_run(self, lid_after: int) -> None:
        """Move the cursor past a dense bulk run ending at ``lid_after - 1``."""
        if lid_after >= self._round_end:
            self._next_unassigned = self.plan.next_owned_lid(self.name, lid_after - 1)
            self._refresh_round_end()
        else:
            self._next_unassigned = lid_after
        self._sync_self_vector()

    def _assign(self, records: List[Record]) -> Placements:
        """Give ``records`` the next free owned LIds, store them and journal
        them as one run; returns the placements made.  If the maintainer
        retires part-way, the records placed before that stay (and are
        journaled) and :class:`NotOwnerError` propagates."""
        placements: Placements = []
        try:
            start = self._bulk_run_start(len(records))
            if start is not None and records:
                end = start + len(records)
                placements = list(zip(range(start, end), records))
                self._write_records(start, records)
                self._finish_bulk_run(end)
            else:
                for record in records:
                    lid = self._take_next_lid()
                    self._write(lid, record)
                    placements.append((lid, record))
        finally:
            self.records_appended += len(placements)
            if placements and self._journal_run is not None:
                self._journal_run(placements)
        return placements

    def _do_append(self, records: List[Record]) -> List[AppendResult]:
        return [AppendResult(record.rid, lid) for lid, record in self._assign(records)]

    def append_count(self, records: List[Record]) -> int:
        """Fire-and-forget bulk append: like :meth:`append` without building
        per-record results.  Used by load generators where only the count is
        acknowledged."""
        return len(self._assign(records))

    def _take_next_lid(self) -> int:
        if self._next_unassigned is None:
            raise NotOwnerError(-1, self.name)  # decommissioned maintainer
        lid = self._next_unassigned
        self._advance_cursor()
        return lid

    def _advance_cursor(self) -> None:
        """Move the cursor to the next owned LId after it that is not filled,
        skipping placed records that arrived ahead of the frontier."""
        assert self._next_unassigned is not None
        cursor: Optional[int] = self._next_unassigned + 1
        # Owned LIds are consecutive inside a round: find the round's next
        # hole with one scan of its hosts column, and pay the plan lookup
        # only when the walk leaves the cached round.
        while cursor is not None:
            if cursor >= self._round_end:
                cursor = self._next_unassigned = self.plan.next_owned_lid(self.name, cursor - 1)
                self._refresh_round_end()
                continue
            segment = self._segment_at(cursor)
            if segment is None:
                break
            hosts = segment.hosts
            off = cursor - segment.base
            if off >= len(hosts):
                break
            try:
                cursor = segment.base + hosts.index(None, off)
                break
            except ValueError:
                cursor = segment.base + len(hosts)
                if cursor < self._round_end:
                    break
        self._next_unassigned = cursor
        self._sync_self_vector()

    def _refresh_round_end(self) -> None:
        """Cache the exclusive end of the owned round holding the cursor.

        Epoch boundaries align with the previous epoch's round size, so a
        round never spans epochs and the cached bound stays valid until the
        cursor leaves the round.
        """
        if self._next_unassigned is None:
            self._round_end = -1
            return
        epoch = self.plan.epoch_for(self._next_unassigned)
        rel = self._next_unassigned - epoch.start_lid
        self._round_end = epoch.start_lid + (rel // epoch.batch_size + 1) * epoch.batch_size

    def _sync_self_vector(self) -> None:
        self._hl_vector[self.name] = (
            _INF if self._next_unassigned is None else float(self._next_unassigned)
        )

    def _fill_own_gaps_past(self, min_lid: int) -> None:
        """Append internal no-op records until the cursor passes ``min_lid``."""
        while self._next_unassigned is not None and self._next_unassigned <= min_lid:
            self._noop_counter += 1
            noop = Record.make(
                host=f"__noop__/{self.name}",
                toid=self._noop_counter,
                body=None,
                internal=True,
            )
            lid = self._take_next_lid()
            self._store(lid, noop)

    def flush_deferred(self) -> List[_DeferredAppend]:
        """Complete every buffered explicit-order append whose bound now holds."""
        completed: List[_DeferredAppend] = []
        remaining: List[_DeferredAppend] = []
        for deferred in self._deferred:
            if deferred.ready(self._next_unassigned if self._next_unassigned is not None else -1):
                deferred.results = self._do_append(deferred.records)
                completed.append(deferred)
            else:
                remaining.append(deferred)
        self._deferred = remaining
        return completed

    @property
    def deferred_count(self) -> int:
        return len(self._deferred)

    # ------------------------------------------------------------------ #
    # Placement (Chariots mode, §6.2)
    # ------------------------------------------------------------------ #

    def place(self, lid: int, record: Record) -> bool:
        """Store ``record`` at a queue-assigned LId.  Idempotent.

        Returns True if the record was newly stored, False if it was a
        duplicate placement (same record, same position) or already GC'd.
        """
        if self.plan.owner(lid) != self.name:
            raise NotOwnerError(lid, self.name)
        if self._gc_floor is not None and lid < self._gc_floor:
            return False  # already garbage collected; re-placement is a no-op
        existing = self.try_get(lid)
        if existing is not None:
            if existing.record.rid == record.rid:
                return False
            raise ImmutabilityError(lid)
        self._store(lid, record)
        self.records_placed += 1
        if lid == self._next_unassigned:
            self._advance_cursor()
        return True

    def place_run(self, placements: Placements) -> None:
        """Store a batch of queue-assigned placements: ``(lid, record)``
        pairs and ``(lid, run)`` runs.

        Same outcome as :meth:`place` on each record in turn (stored
        records, postings, cursor, and the error raised — with the records
        before it stored and journaled), but ownership is checked once per
        run of LIds with one owner, a run goes into its segment with one
        slice assignment per column, the cursor moves once per call, and the
        newly stored placements — runs as they came — reach the journal as
        one run: one block of a :class:`~repro.flstore.journal.FileJournal`,
        on the file before this returns.  A run is split only where
        ownership changes; duplicates and garbage-collected positions take
        the per-record path.
        """
        plan = self.plan
        name = self.name
        floor = self._gc_floor or 0
        run_start = run_end = -1  # LIds in [run_start, run_end) are owned
        stored: Placements = []
        placed = 0
        try:
            for lid, item in placements:
                n = len(item) if type(item) is RecordRun else 1
                done = 0
                while done < n:
                    at = lid + done
                    if not run_start <= at < run_end:
                        if plan.owner(at) != name:
                            raise NotOwnerError(at, name)
                        run_start, run_end = at, plan.owned_run_end(at)
                    take = min(n - done, run_end - at)
                    part: RecordItem = item
                    if take < n:
                        part = item.slice(done, done + take)  # type: ignore[union-attr]
                    done += take
                    if at >= floor and (at > self._max_stored_lid or self._holes(at, take)):
                        self._write(at, part)
                        stored.append((at, part))
                        placed += take
                        continue
                    records = part.records() if isinstance(part, RecordRun) else [part]
                    for pos, record in enumerate(records, at):
                        if pos < floor or self.try_get(pos) is not None:
                            self.place(pos, record)  # no-op, or ImmutabilityError
                            continue
                        self._write(pos, record)
                        stored.append((pos, record))
                        placed += 1
        finally:
            self.records_placed += placed
            cursor = self._next_unassigned
            if cursor is not None and self.try_get(cursor) is not None:
                self._advance_cursor()
            if stored and self._journal_run is not None:
                self._journal_run(stored)

    # ------------------------------------------------------------------ #
    # Segments
    # ------------------------------------------------------------------ #

    def _segment_at(self, lid: int) -> Optional[_Segment]:
        """The segment whose round holds ``lid``, if one exists."""
        index = bisect_right(self._bases, lid) - 1
        if index >= 0:
            segment = self._segments[index]
            if lid < segment.end:
                return segment
        return None

    def _segment_for(self, lid: int) -> _Segment:
        """The segment whose round holds the owned ``lid``, made if new."""
        segment = self._segment_at(lid)
        if segment is None:
            base = self.plan.owned_run_start(lid)
            segment = _Segment(base, self.plan.owned_run_end(lid))
            index = bisect_right(self._bases, base)
            self._bases.insert(index, base)
            self._segments.insert(index, segment)
        return segment

    def _holes(self, lid: int, count: int) -> bool:
        """Whether LIds ``lid`` to ``lid + count - 1`` (one round's) are all
        unfilled."""
        segment = self._segment_at(lid)
        if segment is None:
            return True
        off = lid - segment.base
        window = segment.hosts[off : off + count]
        return window.count(None) == len(window)

    def _write(self, lid: int, item: RecordItem) -> None:
        """Store ``item`` in the holes from ``lid`` (one round's)."""
        if isinstance(item, RecordRun):
            segment = self._segment_for(lid)
            segment.write_run(lid - segment.base, item)
            self._written(lid, item.tags)
        else:
            self._write_records(lid, [item])

    def _write_records(self, lid: int, records: List[Record]) -> None:
        """Store lone ``records`` in the holes from ``lid`` (one round's)."""
        segment = self._segment_for(lid)
        segment.write_records(lid - segment.base, records)
        self._written(lid, [record.tags for record in records])

    def _written(self, lid: int, tags: List[Any]) -> None:
        """Count the records just stored from ``lid``, whose tags are
        ``tags``, and queue their postings."""
        self._stored += len(tags)
        last = lid + len(tags) - 1
        if last > self._max_stored_lid:
            self._max_stored_lid = last
        postings = self._pending_postings
        for off in compress(range(len(tags)), tags):
            for key, value in tags[off]:
                postings.append((key, value, lid + off))

    def _store(self, lid: int, record: Record) -> None:
        self._write(lid, record)
        if self._journal_run is not None:
            self._journal_run([(lid, record)])

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #

    def get(self, lid: int) -> LogEntry:
        if self.plan.owner(lid) != self.name:
            raise NotOwnerError(lid, self.name)
        if self._gc_floor is not None and lid < self._gc_floor:
            # Distinguish "collected" from "we never owned it before epoch".
            if lid >= (self.plan.first_owned_lid(self.name) or 0):
                raise GarbageCollectedError(lid, self._gc_floor)
        entry = self.try_get(lid)
        if entry is not None:
            return entry
        if lid < self._max_stored_lid:
            raise GapError(lid)
        raise LidOutOfRangeError(lid, self._max_stored_lid)

    def read_lids(self, lids: List[int]) -> Tuple[List[LogEntry], Optional[str]]:
        """The readable entries of ``lids`` in request order, and why the
        first unreadable LId was not (``None`` when all were read)."""
        entries: List[LogEntry] = []
        error: Optional[str] = None
        for lid in lids:
            try:
                entries.append(self.get(lid))
            except LogError as exc:
                error = error or str(exc)
        return entries, error

    def try_get(self, lid: int) -> Optional[LogEntry]:
        segment = self._segment_at(lid)
        if segment is not None:
            off = lid - segment.base
            if off < len(segment.hosts) and segment.hosts[off] is not None:
                return _tuple_new(LogEntry, (lid, segment.record(off)))
        return None

    def read(self, rules: ReadRules) -> List[LogEntry]:
        """Rule-scan this maintainer's slice of the log, segment by segment
        in the rules' direction."""
        matches: List[LogEntry] = []
        backwards = rules.most_recent
        for segment in reversed(self._segments) if backwards else self._segments:
            hosts = segment.hosts
            base = segment.base
            offsets = range(len(hosts) - 1, -1, -1) if backwards else range(len(hosts))
            for off in offsets:
                if hosts[off] is None:
                    continue
                entry = _tuple_new(LogEntry, (base + off, segment.record(off)))
                if rules.matches(entry):
                    matches.append(entry)
                    if rules.limit is not None and len(matches) >= rules.limit:
                        return matches
        return matches

    def runs_after(
        self, after_lid: int, limit: int = 4096, host: Optional[DatacenterId] = None
    ) -> Tuple[Placements, int]:
        """Owned records with LId > ``after_lid``, below the placed
        frontier, as ``(lid, item)`` placements cut from the columns: a run
        wherever host, deps, TOIds and LIds continue (at most ``limit``
        records in all), an internal record alone.

        Only the gap-free owned prefix is returned so replication senders
        never ship around holes.  Returns (placements, highest safe LId).
        With ``host``, records created elsewhere are walked over (the safe
        LId advances past them) but not returned.  A collected prefix is
        stepped over: the peer has it.
        """
        items: Placements = []
        upto = after_lid
        plan = self.plan
        name = self.name
        next_un = self._next_unassigned
        floor = self._gc_floor
        lid = plan.next_owned_lid(name, after_lid)
        if lid is not None and lid < 0:  # a LogEntry's check; the walk only climbs
            raise ConfigurationError(f"LIds are non-negative, got {lid}")
        while lid is not None and floor is not None and lid < floor:
            run_end = plan.owned_run_end(lid)
            stop = min(run_end, floor)
            upto = stop - 1
            lid = stop if stop < run_end else plan.next_owned_lid(name, run_end - 1)
        count = 0
        #: The last run returned and the LId after it: a stored run that
        #: continues it (host, TOIds, deps, LIds) extends it.
        tail: Optional[RecordRun] = None
        tail_end = -1
        while lid is not None and count < limit:
            if next_un is not None and lid >= next_un:
                break
            segment = self._segment_at(lid)
            if segment is None:
                break  # a hole: stop at the frontier
            base = segment.base
            hosts = segment.hosts
            off = lid - base
            stop = len(hosts)
            if next_un is not None:
                stop = min(stop, next_un - base)
            else:
                try:
                    stop = hosts.index(None, off, stop)
                except ValueError:
                    pass
            if off >= stop:
                break
            starts = segment.starts
            while off < stop and count < limit:
                cut = starts.find(1, off + 1, stop)
                if cut < 0:
                    cut = stop
                record_host = hosts[off]
                if host is None or record_host == host:
                    at = base + off
                    if segment.internal[off]:
                        take = 1
                        items.append((at, segment.record(off)))
                        tail = None
                    else:
                        take = min(cut - off, limit - count)
                        first_toid = segment.toids[off]
                        deps = segment.deps[off]
                        bodies = segment.bodies[off : off + take]
                        tags = segment.tags[off : off + take]
                        if (
                            tail is not None
                            and tail_end == at
                            and tail.host == record_host
                            and tail.end_toid == first_toid
                            and tail.deps == deps
                        ):
                            tail.bodies += bodies
                            tail.tags += tags
                        else:
                            tail = RecordRun(record_host, first_toid, deps, bodies, tags)  # type: ignore[arg-type]
                            items.append((at, tail))
                        tail_end = at + take
                    count += take
                    off += take
                else:
                    off = cut
                upto = base + off - 1
            if off < segment.end - base:
                lid = base + off
            else:
                lid = plan.next_owned_lid(name, segment.end - 1)
        return items, upto

    # ------------------------------------------------------------------ #
    # Head-of-log gossip (§5.4)
    # ------------------------------------------------------------------ #

    def gossip_payload(self) -> GossipHL:
        next_lid = self._next_unassigned
        return GossipHL(self.name, -1 if next_lid is None else next_lid)

    def on_gossip(self, payload: GossipHL) -> None:
        value = _INF if payload.next_unassigned_lid < 0 else float(payload.next_unassigned_lid)
        current = self._hl_vector.get(payload.maintainer, 0.0)
        if value > current:
            self._hl_vector[payload.maintainer] = value

    def note_new_peer(self, peer: str) -> None:
        """Elasticity: include a newly added maintainer in the HL vector."""
        if peer not in self._hl_vector:
            first = self.plan.first_owned_lid(peer)
            self._hl_vector[peer] = _INF if first is None else float(first)

    def head_of_log(self) -> int:
        """Highest LId below which no gaps can exist anywhere (HL, §5.4)."""
        first_gap = min(self._hl_vector.values())
        if first_gap is _INF:  # pragma: no cover - all maintainers retired
            return self._max_stored_lid
        return int(first_gap) - 1

    # ------------------------------------------------------------------ #
    # Indexing support (§5.3)
    # ------------------------------------------------------------------ #

    def drain_postings(self) -> List[Tuple[str, object, int]]:
        postings = self._pending_postings
        self._pending_postings = []
        return postings

    # ------------------------------------------------------------------ #
    # Garbage collection (§6.1)
    # ------------------------------------------------------------------ #

    def truncate(self, toid_frontier: Dict[str, int]) -> int:
        """Drop the longest owned prefix fully covered by the GC frontier.

        A record is coverable when every datacenter already knows it:
        ``toid_frontier[host(r)] >= toid(r)``.  Internal no-op records are
        always coverable.  Returns the number of records dropped.  The
        evicted non-internal records reach the archive as one run.
        """
        archive = self._archive
        evicted: Optional[Placements] = None if archive is None else []
        dropped = 0
        lid = self._gc_floor
        while lid is not None:
            if self._next_unassigned is not None and lid >= self._next_unassigned:
                break
            segment = self._segment_at(lid)
            if segment is None:
                break
            off = lid - segment.base
            if off >= len(segment.hosts) or segment.hosts[off] is None:
                break
            internal = segment.internal[off]
            if not internal:
                if toid_frontier.get(segment.hosts[off], 0) < segment.toids[off]:  # type: ignore[arg-type]
                    break
                if evicted is not None:
                    evicted.append((lid, segment.record(off)))
                self.records_collected += 1
            segment.clear(off)
            self._stored -= 1
            dropped += 1
            lid = self.plan.next_owned_lid(self.name, lid)
        self._gc_floor = lid
        # The segments wholly below the floor are empty: drop them.
        if lid is None:
            emptied = len(self._segments)
        else:
            emptied = bisect_right(self._bases, lid)
            if emptied and self._segments[emptied - 1].end > lid:
                emptied -= 1
        del self._segments[:emptied]
        del self._bases[:emptied]
        if archive is not None and evicted:
            archive.append_run(evicted)
        return dropped

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def next_unassigned(self) -> Optional[int]:
        return self._next_unassigned

    @property
    def gc_floor(self) -> Optional[int]:
        return self._gc_floor

    @property
    def max_stored_lid(self) -> int:
        return self._max_stored_lid

    def stored_count(self) -> int:
        return self._stored

    def stored_entries(self) -> List[LogEntry]:
        """Every stored record, as entries in LId order."""
        new = _tuple_new
        return [
            new(LogEntry, (segment.base + off, segment.record(off)))
            for segment in self._segments
            for off, host in enumerate(segment.hosts)
            if host is not None
        ]


class LogMaintainer(Actor):
    """Actor adapter exposing a :class:`MaintainerCore` to the runtimes."""

    def __init__(
        self,
        name: str,
        plan: OwnershipPlan,
        peers: List[str],
        indexers: Optional[List[str]] = None,
        config: Optional[FLStoreConfig] = None,
        journal: Optional[RunSink] = None,
        archive: Optional[RunSink] = None,
        controller: Optional[str] = None,
    ) -> None:
        super().__init__(name)
        self.core = MaintainerCore(
            name, plan, config=config, journal=journal, archive=archive
        )
        self.peers = [p for p in peers if p != name]
        self.indexers = list(indexers or [])
        self.config = config or FLStoreConfig()
        self.controller = controller
        self._last_report_count = 0
        self._last_report_time = 0.0

    # -- lifecycle ------------------------------------------------------ #

    def on_start(self) -> None:
        self.set_timer(self.config.gossip_interval, self._gossip_tick, periodic=True)

    def add_peer(self, name: str) -> None:
        """Elasticity: gossip with (and track) a newly added maintainer."""
        if name != self.name and name not in self.peers:
            self.peers.append(name)
        self.core.note_new_peer(name)

    def _gossip_tick(self) -> None:
        payload = self.core.gossip_payload()
        for peer in self.peers:
            self.send(peer, payload)
        self._flush_postings()
        self._report_load()

    def _report_load(self) -> None:
        # Placed-mode maintainers (a Chariots pipeline, CORFU) serve no
        # client appends, so they have no load for the controller to steer.
        if self.controller is None or self.core.records_appended == 0:
            return
        stored = self.core.stored_count()
        elapsed = self.now - self._last_report_time
        appended = self.core.records_appended + self.core.records_placed
        rate = (appended - self._last_report_count) / elapsed if elapsed > 0 else 0.0
        self._last_report_count = appended
        self._last_report_time = self.now
        self.send(self.controller, LoadReport(self.name, stored, rate))

    def _flush_postings(self) -> None:
        if not self.indexers:
            self.core.drain_postings()
            return
        postings = self.core.drain_postings()
        if not postings:
            return
        buckets: Dict[str, List[Tuple[str, object, int]]] = {}
        for posting in postings:
            buckets.setdefault(champion(posting[0], self.indexers), []).append(posting)
        for indexer, bucket in buckets.items():
            self.send(indexer, IndexUpdate(postings=bucket))

    # -- message handling ------------------------------------------------ #

    def on_message(self, sender: str, message: Any) -> None:
        if isinstance(message, AppendRequest):
            self._handle_append(sender, message)
        elif isinstance(message, PlaceRecords):
            self.core.place_run(message.placements)
            self._complete_deferred()
        elif isinstance(message, ReadRequest):
            self._handle_read(sender, message)
        elif isinstance(message, ReadNewRequest):
            items, upto = self.core.runs_after(message.after_lid, message.limit, message.host)
            self.send(sender, ReadNewReply(message.request_id, items, upto))
        elif isinstance(message, HeadRequest):
            self.send(sender, HeadReply(message.request_id, self.core.head_of_log()))
        elif isinstance(message, RecordBatch):
            # Fire-and-forget ingest for the zero-copy wire path: a lazy
            # batch materialises its records here, straight into the
            # bulk-append fast path — no reply, no per-record results.
            self.core.append_count(message.records)
        elif isinstance(message, GossipHL):
            self.core.on_gossip(message)
        elif isinstance(message, TruncateBelow):
            self.core.truncate(message.toid_frontier)
            floor = self.core.gc_floor
            self.send(sender, GcReport(self.name, -1 if floor is None else floor))

    def _handle_append(self, sender: str, message: AppendRequest) -> None:
        if not message.want_results and message.min_lid is None:
            count = self.core.append_count(message.records)
            self.send(sender, AppendReply(message.request_id, [], count=count))
            return
        results = self.core.append(
            message.records,
            min_lid=message.min_lid,
            context=(sender, message.request_id),
        )
        if results is not None:
            self.send(sender, AppendReply(message.request_id, results))
        self._complete_deferred()

    def _complete_deferred(self) -> None:
        for deferred in self.core.flush_deferred():
            reply_to, request_id = deferred.context
            self.send(reply_to, AppendReply(request_id, deferred.results or []))

    def _handle_read(self, sender: str, message: ReadRequest) -> None:
        if message.rules is not None:
            self.send(sender, ReadReply(message.request_id, self.core.read(message.rules)))
        else:
            entries, error = self.core.read_lids(message.lids)
            self.send(sender, ReadReply(message.request_id, entries, error))
