"""Filters: stage 3 of the Chariots pipeline (§6.2).

Each filter champions a slice of the record space and guarantees
*exactly-once, in-order* admission for it:

* **External records** — the championing scheme is the shared
  :class:`FilterMap` (also consulted by the batchers): each host datacenter
  maps to one or more filters, and when several filters share a host they
  split it by TOId residue (the paper's odd/even example).  Per championed
  (host, slice) the filter tracks the next expected TOId: the expected
  record is admitted, earlier ones are duplicates (dropped), later ones
  wait in a reorder buffer until the gap fills — WAN shipments arrive out
  of order and retransmissions duplicate.
* **Drafts** — per client, the same scheme over the client's dense
  sequence numbers: exactly-once admission and per-client FIFO.

Filters never talk to each other, which is what makes the stage seamlessly
scalable (§6.2).
"""

from __future__ import annotations

from itertools import groupby
from operator import attrgetter
from typing import Any, Dict, List, Optional, Tuple

from ..core.config import PipelineConfig
from ..core.errors import ConfigurationError
from ..core.hashing import stable_hash
from ..core.record import DatacenterId, Record
from ..runtime.actor import Actor
from .messages import AdmittedBatch, DraftRecord, FilterBatch

_host_of = attrgetter("rid.host")


class FilterMap:
    """Deterministic champion mapping shared by batchers and filters.

    In a physical deployment this mapping is distributed by the controller;
    here the datacenter's batchers and filters share one instance, which
    keeps them consistent by construction.

    External records: per host datacenter, an epoch list
    ``(effective_from_toid, champion filters)``; within an epoch, a host
    with ``k`` champions is split by TOId residue.  Reassignments are
    scheduled at a *future* TOId (§6.3, "future reassignment"), giving
    batchers time to learn the change before it takes effect.

    Drafts: clients are stickily assigned a champion on first sight
    (deterministic hash over the filters present at that moment), so a
    client's dedup state never migrates.
    """

    def __init__(self, filters: List[str]) -> None:
        if not filters:
            raise ConfigurationError("FilterMap needs at least one filter")
        self._filters = list(filters)
        self._host_epochs: Dict[DatacenterId, List[Tuple[int, List[str]]]] = {}
        self._client_champion: Dict[str, str] = {}

    @property
    def filters(self) -> List[str]:
        return list(self._filters)

    # -- configuration ---------------------------------------------------- #

    def assign_host(self, host: DatacenterId, filters: List[str]) -> None:
        """Initial championing of ``host`` (effective from TOId 1)."""
        self._validate_filters(filters)
        if host in self._host_epochs:
            raise ConfigurationError(f"host {host!r} already assigned; use reassign_host")
        self._host_epochs[host] = [(1, list(filters))]

    def reassign_host(
        self, host: DatacenterId, filters: List[str], from_toid: int
    ) -> None:
        """Future reassignment: ``host`` TOIds >= ``from_toid`` move to
        ``filters`` (§6.3)."""
        self._validate_filters(filters, allow_new=True)
        epochs = self._host_epochs.setdefault(host, [(1, list(self._filters))])
        if from_toid <= epochs[-1][0]:
            raise ConfigurationError(
                f"reassignment at TOId {from_toid} is not in the future "
                f"(last epoch starts at {epochs[-1][0]})"
            )
        epochs.append((from_toid, list(filters)))

    def add_filter(self, name: str) -> None:
        if name not in self._filters:
            self._filters.append(name)

    def _validate_filters(self, filters: List[str], allow_new: bool = False) -> None:
        if not filters:
            raise ConfigurationError("champion list cannot be empty")
        if allow_new:
            for name in filters:
                self.add_filter(name)
        else:
            unknown = [f for f in filters if f not in self._filters]
            if unknown:
                raise ConfigurationError(f"unknown filters {unknown}")

    # -- lookups ------------------------------------------------------------ #

    def _champions(self, host: DatacenterId, toid: int) -> List[str]:
        epochs = self._host_epochs.get(host)
        if not epochs:
            return self._filters
        candidates = epochs[0][1]
        for from_toid, filters in epochs:
            if toid >= from_toid:
                candidates = filters
            else:
                break
        return candidates

    def champions_for(self, host: DatacenterId, toid: int) -> List[str]:
        """All filters championing ``host`` at ``toid`` (the slice set)."""
        return list(self._champions(host, toid))

    def filter_for(self, host: DatacenterId, toid: int) -> str:
        """Champion filter of external record ``<host, toid>``."""
        candidates = self._champions(host, toid)
        if len(candidates) == 1:
            return candidates[0]
        return candidates[toid % len(candidates)]

    def filter_for_record(self, record: Record) -> str:
        return self.filter_for(record.host, record.toid)

    def route_externals(self, records: List[Record]) -> List[Tuple[str, List[Record]]]:
        """Champion filter of every record, as ``(filter, records)`` runs.

        The runs keep the records' order.  A run of one host's records
        whose host has a :meth:`sole_champion` costs one lookup; the records
        of a split or reassigned host are routed one by one with
        :meth:`filter_for`.
        """
        routed: List[Tuple[str, List[Record]]] = []
        for host, run in groupby(records, _host_of):
            champion = self.sole_champion(host)
            if champion is not None:
                routed.append((champion, list(run)))
            else:
                routed.extend((self.filter_for(*record.rid), [record]) for record in run)
        return routed

    def next_toid_for(self, host: DatacenterId, after_toid: int, filter_name: str) -> int:
        """Smallest TOId > ``after_toid`` of ``host`` championed by
        ``filter_name``.  This is the filter's expected-TOId stepping; it
        remains correct across residue slicing and epoch changes."""
        toid = after_toid + 1
        # The champion set has bounded size; a match occurs within one full
        # residue cycle of each epoch the scan crosses.
        for _ in range(1_000_000):  # defensive bound
            if self.filter_for(host, toid) == filter_name:
                return toid
            toid += 1
        raise ConfigurationError(  # pragma: no cover - defensive
            f"filter {filter_name!r} never champions host {host!r} past {after_toid}"
        )

    def filter_for_draft(self, draft: DraftRecord) -> str:
        champion = self._client_champion.get(draft.client)
        if champion is None:
            champion = self._filters[stable_hash(draft.client) % len(self._filters)]
            self._client_champion[draft.client] = champion
        return champion

    def sole_champion(self, host: DatacenterId) -> Optional[str]:
        """The one filter championing *every* TOId of ``host``, or ``None``.

        Only the unsplit, never-reassigned case qualifies (one epoch, one
        champion — or no epoch and a single filter overall).  In that case
        the host's championed TOIds are dense, which lets
        :meth:`FilterCore.offer_externals` admit in-order runs without the
        per-record ``next_toid_for`` stepping.
        """
        epochs = self._host_epochs.get(host)
        if epochs is None:
            return self._filters[0] if len(self._filters) == 1 else None
        if len(epochs) == 1 and len(epochs[0][1]) == 1:
            return epochs[0][1][0]
        return None


class FilterCore:
    """Pure-logic uniqueness/ordering state for one filter."""

    def __init__(self, name: str, filter_map: FilterMap) -> None:
        self.name = name
        self.filter_map = filter_map
        self._next_toid: Dict[DatacenterId, int] = {}
        self._reorder: Dict[DatacenterId, Dict[int, Record]] = {}
        self._next_seq: Dict[str, int] = {}
        self._draft_reorder: Dict[str, Dict[int, DraftRecord]] = {}
        #: Records this filter no longer champions (a future reassignment
        #: took effect); the stage forwards them to the current champion.
        self.misrouted: List[Record] = []
        self.duplicates_dropped = 0
        self.records_admitted = 0

    # -- external records ------------------------------------------------ #

    def _expected_toid(self, host: DatacenterId) -> int:
        """Next expected TOId for ``host``, revalidated against the
        (possibly reassigned) champion map."""
        expected = self._next_toid.get(host)
        if expected is None:
            expected = self.filter_map.next_toid_for(host, 0, self.name)
            self._next_toid[host] = expected
        if self.filter_map.filter_for(host, expected) != self.name:
            # A future reassignment moved our slice boundary: skip to our
            # next TOId under the new mapping and hand misplaced buffer
            # entries over to their new champions.
            expected = self.filter_map.next_toid_for(host, expected - 1, self.name)
            self._next_toid[host] = expected
            self._sweep_misrouted(host)
        return expected

    def _sweep_misrouted(self, host: DatacenterId) -> None:
        buffer = self._reorder.get(host)
        if not buffer:
            return
        for toid in list(buffer):
            if self.filter_map.filter_for(host, toid) != self.name:
                self.misrouted.append(buffer.pop(toid))

    def take_misrouted(self) -> List[Record]:
        """Drain records awaiting forwarding to their current champion."""
        out, self.misrouted = self.misrouted, []
        return out

    def offer_external(self, record: Record) -> List[Record]:
        """Admit ``record`` if it is next in its host's championed slice.

        Returns the records released (the offered one plus any buffered
        successors it unblocks), in slice order.  Records this filter does
        not champion (reassignment races) land in :meth:`take_misrouted`.
        """
        host = record.host
        expected = self._expected_toid(host)
        if self.filter_map.filter_for_record(record) != self.name:
            self.misrouted.append(record)
            return []
        if record.toid < expected:
            self.duplicates_dropped += 1
            return []
        buffer = self._reorder.setdefault(host, {})
        if record.toid > expected:
            if record.toid in buffer:
                self.duplicates_dropped += 1
            else:
                buffer[record.toid] = record
            return []
        released = [record]
        self.records_admitted += 1
        expected = self.filter_map.next_toid_for(host, expected, self.name)
        while expected in buffer:
            released.append(buffer.pop(expected))
            self.records_admitted += 1
            expected = self.filter_map.next_toid_for(host, expected, self.name)
        self._next_toid[host] = expected
        return released

    def offer_externals(self, records: List[Record]) -> List[Record]:
        """Batch form of :meth:`offer_external`.

        Dense in-order runs from a sole-champion host — the WAN replication
        hot path, where a shipment carries one host's records in TOId order —
        are admitted as a slice, skipping the per-record champion check,
        reorder-buffer probe and ``next_toid_for`` stepping.  Anything else
        falls back to the per-record path, so semantics are unchanged.
        """
        released: List[Record] = []
        i = 0
        n = len(records)
        fm = self.filter_map
        next_toid = self._next_toid
        while i < n:
            record = records[i]
            host, toid = record.rid
            if (
                fm.sole_champion(host) != self.name
                or toid != next_toid.get(host, 1)
                or self._reorder.get(host)
            ):
                released.extend(self.offer_external(record))
                i += 1
                continue
            j = i
            while j < n and records[j].rid == (host, toid):
                toid += 1
                j += 1
            released.extend(records[i:j])
            self.records_admitted += j - i
            next_toid[host] = toid
            i = j
        return released

    # -- drafts ----------------------------------------------------------- #

    def offer_draft(self, draft: DraftRecord) -> List[DraftRecord]:
        """Admit a local draft exactly once, in client-sequence order."""
        expected = self._next_seq.get(draft.client, 1)
        if draft.seq < expected:
            self.duplicates_dropped += 1
            return []
        buffer = self._draft_reorder.setdefault(draft.client, {})
        if draft.seq > expected:
            if draft.seq in buffer:
                self.duplicates_dropped += 1
            else:
                buffer[draft.seq] = draft
            return []
        released = [draft]
        self.records_admitted += 1
        expected += 1
        while expected in buffer:
            released.append(buffer.pop(expected))
            self.records_admitted += 1
            expected += 1
        self._next_seq[draft.client] = expected
        return released

    def offer_drafts(self, drafts: List[DraftRecord]) -> List[DraftRecord]:
        """Batch form of :meth:`offer_draft`.

        Consecutive drafts from the same client with dense, in-order
        sequence numbers — the local-append hot path — are admitted as a
        slice with one bookkeeping update; out-of-order or interleaved
        drafts fall back to the per-record path.
        """
        released: List[DraftRecord] = []
        i = 0
        n = len(drafts)
        next_seq = self._next_seq
        while i < n:
            draft = drafts[i]
            client = draft.client
            expected = next_seq.get(client, 1)
            if draft.seq != expected or self._draft_reorder.get(client):
                released.extend(self.offer_draft(draft))
                i += 1
                continue
            seq = expected
            j = i
            while j < n:
                d = drafts[j]
                if d.client != client or d.seq != seq:
                    break
                seq += 1
                j += 1
            released.extend(drafts[i:j])
            self.records_admitted += j - i
            next_seq[client] = seq
            i = j
        return released

    # -- introspection ----------------------------------------------------- #

    def buffered_count(self) -> int:
        return sum(len(b) for b in self._reorder.values()) + sum(
            len(b) for b in self._draft_reorder.values()
        )


class FilterStage(Actor):
    """Actor adapter for :class:`FilterCore`; fans admitted records to queues."""

    def __init__(
        self,
        name: str,
        filter_map: FilterMap,
        queues: List[str],
        config: Optional[PipelineConfig] = None,
    ) -> None:
        super().__init__(name)
        self.core = FilterCore(name, filter_map)
        self.queues = list(queues)
        self.config = config or PipelineConfig()
        #: Index in ``queues`` of the next admitted batch's queue.
        self._next_queue = 0

    def add_queue(self, name: str) -> None:
        """Elasticity: include a newly added queue in the fan-out (§6.3)."""
        if name not in self.queues:
            self.queues.append(name)
            self._next_queue = 0

    def on_message(self, sender: str, message: Any) -> None:
        if not isinstance(message, FilterBatch):
            return
        admitted = AdmittedBatch()
        if message.externals:
            admitted.externals.extend(self.core.offer_externals(message.externals))
        if message.drafts:
            admitted.drafts.extend(self.core.offer_drafts(message.drafts))
        if admitted.record_count() > 0:
            index = self._next_queue
            self._next_queue = (index + 1) % len(self.queues)
            self.send(self.queues[index], admitted)
        # Reassignment races: pass records we no longer champion onward.
        forwards: Dict[str, FilterBatch] = {}
        for record in self.core.take_misrouted():
            champion = self.core.filter_map.filter_for_record(record)
            forwards.setdefault(champion, FilterBatch()).externals.append(record)
        for champion, batch in forwards.items():
            self.send(champion, batch)
