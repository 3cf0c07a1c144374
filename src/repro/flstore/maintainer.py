"""Log maintainers: post-assignment storage nodes of FLStore (§5.2).

A maintainer owns the LId ranges the :class:`~repro.flstore.range_map.OwnershipPlan`
assigns it.  In **post-assignment** mode (standalone FLStore) it assigns the
next free owned LId to each record it receives — no sequencer, no
coordination.  In **placed** mode (under the Chariots pipeline) the queue
stage pre-assigns LIds and the maintainer simply stores records at the
requested positions, tolerating out-of-order arrival.

The maintainer also participates in the head-of-log gossip (§5.4), serves
reads, feeds tag postings to the indexers (§5.3), hands new entries to
replication senders, and truncates garbage-collected prefixes (§6.1).

``MaintainerCore`` is pure protocol logic (no I/O); :class:`LogMaintainer`
adapts it to the actor runtimes, and ``repro.net`` adapts it to asyncio TCP.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.config import FLStoreConfig
from ..core.errors import (
    GapError,
    GarbageCollectedError,
    ImmutabilityError,
    LidOutOfRangeError,
    NotOwnerError,
)
from ..core.hashing import stable_hash
from ..core.record import AppendResult, DatacenterId, LogEntry, ReadRules, Record, RecordId
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

Placements = List[Tuple[int, Record]]


def _journal_each(journal: Callable[[int, Record], None], placements: Placements) -> None:
    """``append_run`` for a journal that is a plain ``(lid, record)`` callable."""
    for lid, record in placements:
        journal(lid, record)


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
        journal: Optional[Callable[[int, Record], None]] = None,
        archive: Optional[Callable[[int, Record], None]] = None,
    ) -> None:
        self.name = name
        self.plan = plan
        self.config = config or FLStoreConfig()
        self.set_journal(journal)
        #: Cold-storage hook (§6.1): called with each record evicted by GC.
        self._archive = archive
        self._storage: Dict[int, Record] = {}
        self._by_rid: Dict[RecordId, int] = {}
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

    def set_journal(self, journal: Optional[Callable[[int, Record], None]]) -> None:
        """Install (or replace) the durability hook for future placements.

        Attach before traffic flows: only placements made while a journal is
        installed can be replayed by crash recovery.  A journal with an
        ``append_run(placements)`` method (:class:`~repro.flstore.journal.FileJournal`,
        :class:`~repro.flstore.journal.MemoryJournal`) gets each
        :meth:`place_run` / :meth:`append` as one call; a plain
        ``journal(lid, record)`` callable is called once per pair.
        """
        self._journal_run: Optional[Callable[[Placements], None]] = None
        if journal is not None:
            self._journal_run = getattr(journal, "append_run", None) or partial(
                _journal_each, journal
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
            if start is not None:
                end = start + len(records)
                placements = list(zip(range(start, end), records))
                storage = self._storage
                by_rid = self._by_rid
                postings = self._pending_postings
                for lid, record in placements:
                    storage[lid] = record
                    by_rid[record.rid] = lid
                    for key, value in record.tags:
                        postings.append((key, value, lid))
                self._max_stored_lid = end - 1
                self._finish_bulk_run(end)
            else:
                for record in records:
                    lid = self._take_next_lid()
                    self._put(lid, record)
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
        storage = self._storage
        cursor: Optional[int] = self._next_unassigned + 1
        # Owned LIds are consecutive inside a round: pay the plan lookup only
        # when the walk leaves the cached round.
        while cursor is not None:
            if cursor >= self._round_end:
                cursor = self._next_unassigned = self.plan.next_owned_lid(self.name, cursor - 1)
                self._refresh_round_end()
            elif cursor in storage:
                cursor += 1
            else:
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
        existing = self._storage.get(lid)
        if existing is not None:
            if existing.rid == record.rid:
                return False
            raise ImmutabilityError(lid)
        self._store(lid, record)
        self.records_placed += 1
        if lid == self._next_unassigned:
            self._advance_cursor()
        return True

    def place_run(self, placements: List[Tuple[int, Record]]) -> None:
        """Store a batch of queue-assigned placements.

        Same outcome as :meth:`place` on each pair in turn (stored records,
        postings, journaled pairs and their order, cursor, and the error
        raised — with the pairs before it stored and journaled), but
        ownership is checked once per run of LIds with one owner, the cursor
        moves once per call, and the newly stored pairs reach the journal as
        one run — one block of a :class:`~repro.flstore.journal.FileJournal`,
        on the file before this returns.  Duplicates and garbage-collected
        positions take the per-record path.
        """
        plan = self.plan
        storage = self._storage
        by_rid = self._by_rid
        postings = self._pending_postings
        floor = self._gc_floor or 0
        run_start = run_end = -1  # LIds in [run_start, run_end) are owned
        newest = self._max_stored_lid
        stored: Placements = []
        try:
            for pair in placements:
                lid, record = pair
                if not run_start <= lid < run_end:
                    if plan.owner(lid) != self.name:
                        raise NotOwnerError(lid, self.name)
                    run_start, run_end = lid, plan.owned_run_end(lid)
                if lid in storage or lid < floor:
                    self.place(lid, record)  # no-op, or ImmutabilityError
                    continue
                storage[lid] = record
                by_rid[record.rid] = lid
                if lid > newest:
                    newest = lid
                for key, value in record.tags:
                    postings.append((key, value, lid))
                stored.append(pair)
        finally:
            self._max_stored_lid = newest
            self.records_placed += len(stored)
            if self._next_unassigned in storage:
                self._advance_cursor()
            if stored and self._journal_run is not None:
                self._journal_run(stored)

    def _put(self, lid: int, record: Record) -> None:
        self._storage[lid] = record
        self._by_rid[record.rid] = lid
        if lid > self._max_stored_lid:
            self._max_stored_lid = lid
        for key, value in record.tags:
            self._pending_postings.append((key, value, lid))

    def _store(self, lid: int, record: Record) -> None:
        self._put(lid, record)
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
        record = self._storage.get(lid)
        if record is not None:
            return LogEntry(lid, record)
        if lid < self._max_stored_lid:
            raise GapError(lid)
        raise LidOutOfRangeError(lid, self._max_stored_lid)

    def try_get(self, lid: int) -> Optional[LogEntry]:
        record = self._storage.get(lid)
        return None if record is None else LogEntry(lid, record)

    def read(self, rules: ReadRules) -> List[LogEntry]:
        """Rule-scan this maintainer's slice of the log."""
        lids = sorted(self._storage, reverse=rules.most_recent)
        matches: List[LogEntry] = []
        for lid in lids:
            entry = LogEntry(lid, self._storage[lid])
            if rules.matches(entry):
                matches.append(entry)
                if rules.limit is not None and len(matches) >= rules.limit:
                    break
        return matches

    def entries_after(
        self, after_lid: int, limit: int = 4096, host: Optional[DatacenterId] = None
    ) -> Tuple[List[LogEntry], int]:
        """Owned entries with LId > ``after_lid``, below the placed frontier.

        Only the gap-free owned prefix is returned so replication senders
        never ship around holes.  Returns (entries, highest safe LId).
        With ``host``, entries of records created elsewhere are walked over
        (the safe LId advances past them) but not returned.
        """
        entries: List[LogEntry] = []
        upto = after_lid
        plan = self.plan
        storage = self._storage
        next_un = self._next_unassigned
        gc_floor = self._gc_floor
        lid = plan.next_owned_lid(self.name, after_lid)
        # Owned LIds are consecutive within a round, so walk runs with
        # ``lid += 1`` and pay the plan lookup only at run boundaries.
        while lid is not None and len(entries) < limit:
            run_end = plan.owned_run_end(lid)
            while lid < run_end and len(entries) < limit:
                if next_un is not None and lid >= next_un:
                    return entries, upto
                record = storage.get(lid)
                if record is None:
                    if gc_floor is not None and lid < gc_floor:
                        # Collected prefix: skip forward, the peer has it.
                        upto = lid
                        lid += 1
                        continue
                    return entries, upto  # hole: stop at the frontier
                if host is None or record.rid.host == host:
                    entries.append(LogEntry(lid, record))
                upto = lid
                lid += 1
            if lid >= run_end:
                lid = plan.next_owned_lid(self.name, run_end - 1)
        return entries, upto

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

    def truncate(
        self,
        toid_frontier: Dict[str, int],
        keep_from_lid: Optional[int] = None,
    ) -> int:
        """Drop the longest owned prefix fully covered by the GC frontier.

        A record is coverable when every datacenter already knows it:
        ``toid_frontier[host(r)] >= toid(r)``.  Internal no-op records are
        always coverable.  Returns the number of records dropped.
        """
        dropped = 0
        lid = self._gc_floor
        while lid is not None:
            if self._next_unassigned is not None and lid >= self._next_unassigned:
                break
            if keep_from_lid is not None and lid >= keep_from_lid:
                break
            record = self._storage.get(lid)
            if record is None:
                break
            if not record.internal:
                if toid_frontier.get(record.host, 0) < record.toid:
                    break
            if self._archive is not None and not record.internal:
                self._archive(lid, record)
            del self._storage[lid]
            self._by_rid.pop(record.rid, None)
            dropped += 1
            if not record.internal:
                self.records_collected += 1
            lid = self.plan.next_owned_lid(self.name, lid)
        self._gc_floor = lid
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
        return len(self._storage)

    def stored_entries(self) -> List[LogEntry]:
        return [LogEntry(lid, self._storage[lid]) for lid in sorted(self._storage)]

    def has_record(self, rid: RecordId) -> bool:
        return rid in self._by_rid


class LogMaintainer(Actor):
    """Actor adapter exposing a :class:`MaintainerCore` to the runtimes."""

    def __init__(
        self,
        name: str,
        plan: OwnershipPlan,
        peers: List[str],
        indexers: Optional[List[str]] = None,
        config: Optional[FLStoreConfig] = None,
        journal: Optional[Callable[[int, Record], None]] = None,
        archive: Optional[Callable[[int, Record], None]] = None,
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
        if self.controller is None:
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
        for key, value, lid in postings:
            indexer = self.indexers[stable_hash(key) % len(self.indexers)]
            buckets.setdefault(indexer, []).append((key, value, lid))
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
            entries, upto = self.core.entries_after(
                message.after_lid, message.limit, message.host
            )
            self.send(sender, ReadNewReply(message.request_id, entries, upto))
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
            self.core.truncate(message.toid_frontier, message.keep_from_lid)
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
        try:
            if message.lid is not None:
                entries = [self.core.get(message.lid)]
            elif message.rules is not None:
                entries = self.core.read(message.rules)
            else:
                entries = []
        except (GapError, GarbageCollectedError, LidOutOfRangeError, NotOwnerError) as exc:
            self.send(sender, ReadReply(message.request_id, [], error=str(exc)))
            return
        self.send(sender, ReadReply(message.request_id, entries))
