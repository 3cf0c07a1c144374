"""Filters: stage 3 of the Chariots pipeline (§6.2).

Each filter champions a slice of the record space and guarantees
*exactly-once, in-order* admission for it:

* **External records** — the championing scheme is the shared
  :class:`FilterMap` (also consulted by the batchers): each host datacenter
  has an epoch journal naming one or more filters, and when several
  filters share a host they split it by TOId residue (the paper's
  odd/even example).  Per host the filter tracks the next TOId it
  champions: the expected record is admitted, earlier ones are duplicates
  (dropped), later ones wait in a reorder buffer until the gap fills — WAN
  shipments arrive out of order and retransmissions duplicate.
* **Drafts** — per client, the same walk over the client's dense
  sequence numbers: exactly-once admission and per-client FIFO.

Filters never talk to each other, which is what makes the stage seamlessly
scalable (§6.2).
"""

from __future__ import annotations

from itertools import groupby
from operator import attrgetter
from typing import Any, Dict, Iterator, List, Optional, Tuple, TypeVar

from ..core.config import PipelineConfig
from ..core.errors import ConfigurationError
from ..core.hashing import champion
from ..core.record import DatacenterId, Record, RecordItem, RecordRun, split_runs
from ..flstore.range_map import OwnershipPlan
from ..runtime.actor import Actor
from .messages import AdmittedBatch, DraftRecord, FilterBatch

_host_of = attrgetter("host")  # a record's, or a run's
_rid_of = attrgetter("rid")
_client_of = attrgetter("client")
_seq_of = attrgetter("seq")
_Item = TypeVar("_Item", Record, DraftRecord)


class FilterMap:
    """Deterministic champion mapping shared by batchers and filters.

    In a physical deployment this mapping is distributed by the controller;
    here the datacenter's batchers and filters share one instance, which
    keeps them consistent by construction.

    External records: per host datacenter, the maintainers' epoch journal
    (:class:`~repro.flstore.range_map.OwnershipPlan`) over TOIds, with
    rounds of one TOId.  Within an epoch a host with ``k`` champions is
    split by absolute TOId residue: TOId ``t`` goes to ``champions[t % k]``
    (the paper's odd/even example).  Reassignments are later epochs that
    take effect at a *future* TOId (§6.3, "future reassignment"), giving
    batchers time to learn the change before it takes effect.

    Drafts: clients are stickily assigned a champion on first sight
    (deterministic hash over the filters present at that moment), so a
    client's dedup state never migrates.
    """

    def __init__(self, filters: List[str]) -> None:
        if not filters:
            raise ConfigurationError("FilterMap needs at least one filter")
        self._filters = list(filters)
        self._plans: Dict[DatacenterId, OwnershipPlan] = {}
        self._client_champion: Dict[str, str] = {}
        #: The cores of this map's filters, by name, so that a reassignment
        #: re-homes what they buffered.  Not pickled: a core unpickled with
        #: the map joins it again.
        self._cores: Dict[str, FilterCore] = {}

    def __getstate__(self) -> Dict[str, Any]:
        return {**self.__dict__, "_cores": {}}

    @property
    def filters(self) -> List[str]:
        return list(self._filters)

    # -- configuration ---------------------------------------------------- #

    def assign_host(self, host: DatacenterId, filters: List[str]) -> None:
        """Initial championing of ``host``, from its first TOId."""
        unknown = [f for f in filters if f not in self._filters]
        if unknown:
            raise ConfigurationError(f"unknown filters {unknown}")
        if host in self._plans:
            raise ConfigurationError(f"host {host!r} already assigned; use reassign_host")
        # The first epoch starts at TOId 0, so its residues are absolute.
        self._plans[host] = OwnershipPlan(filters, batch_size=1)

    def reassign_host(
        self, host: DatacenterId, filters: List[str], from_toid: int
    ) -> None:
        """Future reassignment: ``host`` TOIds >= ``from_toid`` move to
        ``filters`` (§6.3).  Each filter's buffered records of ``host``
        that it no longer champions go to its :meth:`FilterCore.take_misrouted`
        at once."""
        if from_toid <= 1:
            raise ConfigurationError(f"reassignment at TOId {from_toid} is not in the future")
        if not filters:
            raise ConfigurationError("champion list cannot be empty")
        # The epoch counts rounds from its own start; rotating the list by
        # ``from_toid % k`` keeps TOId ``t`` with ``filters[t % k]``.
        shift = from_toid % len(filters)
        self.plan(host).add_epoch(from_toid, filters[shift:] + filters[:shift])
        for name in filters:
            self.add_filter(name)
        for core in self._cores.values():
            core.rehome(host)

    def add_filter(self, name: str) -> None:
        if name not in self._filters:
            self._filters.append(name)

    # -- lookups ------------------------------------------------------------ #

    def plan(self, host: DatacenterId) -> OwnershipPlan:
        """The epoch journal of ``host``'s TOIds.  A host no one assigned
        gets one at first lookup, over the filters present then."""
        plan = self._plans.get(host)
        if plan is None:
            plan = self._plans[host] = OwnershipPlan(self._filters, batch_size=1)
        return plan

    def champions_for(self, host: DatacenterId, toid: int) -> List[str]:
        """All filters championing ``host`` at ``toid`` (the slice set), in
        the order they were assigned."""
        epoch = self.plan(host).epoch_for(toid)
        members = epoch.maintainers
        shift = -epoch.start_lid % len(members)
        return list(members[shift:] + members[:shift])

    def filter_for(self, host: DatacenterId, toid: int) -> str:
        """Champion filter of external record ``<host, toid>``."""
        return self.plan(host).owner(toid)

    def filter_for_record(self, record: Record) -> str:
        return self.filter_for(*record.rid)

    def route_externals(self, items: List[RecordItem]) -> List[Tuple[str, List[RecordItem]]]:
        """Champion filter of every record, as ``(filter, items)`` groups.

        The groups keep the items' order.  A stretch of one host's records
        and runs whose host has a :meth:`sole_champion` costs one lookup and
        goes whole; the items of a split or reassigned host are split into
        records and routed one by one with :meth:`filter_for`.
        """
        routed: List[Tuple[str, List[RecordItem]]] = []
        for host, group in groupby(items, _host_of):
            champion = self.sole_champion(host)
            if champion is not None:
                routed.append((champion, list(group)))
            else:
                routed.extend(
                    (self.filter_for(*record.rid), [record]) for record in split_runs(group)
                )
        return routed

    def filter_for_draft(self, draft: DraftRecord) -> str:
        chosen = self._client_champion.get(draft.client)
        if chosen is None:
            chosen = self._client_champion[draft.client] = champion(draft.client, self._filters)
        return chosen

    def sole_champion(self, host: DatacenterId) -> Optional[str]:
        """The one filter championing *every* TOId of ``host``, or ``None``.

        Only the unsplit, never-reassigned case qualifies: one epoch (only
        the first starts at 0) of one champion.  Its TOIds are dense, which
        lets :class:`FilterCore` admit in-order runs of the host without
        stepping per record.
        """
        epoch = self.plan(host).current_epoch
        if epoch.start_lid == 0 and len(epoch.maintainers) == 1:
            return epoch.maintainers[0]
        return None


class FilterCore:
    """Pure-logic uniqueness/ordering state for one filter.

    Both streams go through one admission walk.  A stream key (a host, or a
    client) has a *floor*: every position below it that this filter
    champions has been admitted, so an offered position below it is a
    duplicate.  The next expected position is the first championed one at
    or past the floor (a client's sequence is dense, a host's TOIds step
    through its plan); later positions wait in the key's reorder buffer.
    """

    def __init__(self, name: str, filter_map: FilterMap) -> None:
        self.name = name
        self.filter_map = filter_map
        self._host_floor: Dict[DatacenterId, int] = {}
        self._reorder: Dict[DatacenterId, Dict[int, Record]] = {}
        self._client_floor: Dict[str, int] = {}
        self._draft_reorder: Dict[str, Dict[int, DraftRecord]] = {}
        #: Records this filter does not champion (a future reassignment
        #: took effect, or it left the host); the stage forwards them to
        #: the current champion.  Only a host's stream has a plan, so only
        #: records land here.
        self.misrouted: List[Any] = []
        self.duplicates_dropped = 0
        self.records_admitted = 0
        filter_map._cores[name] = self

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self.filter_map._cores[self.name] = self

    def rehome(self, host: DatacenterId) -> None:
        """Hand the buffered records of ``host`` that this filter no longer
        champions (a reassignment moved them) to :meth:`take_misrouted`."""
        buffer = self._reorder.get(host)
        if buffer:
            owner = self.filter_map.plan(host).owner
            for held in [toid for toid in buffer if owner(toid) != self.name]:
                self.misrouted.append(buffer.pop(held))

    def take_misrouted(self) -> List[Record]:
        """Drain records awaiting forwarding to their current champion."""
        out, self.misrouted = self.misrouted, []
        return out

    def offer_externals(self, items: List[RecordItem]) -> List[RecordItem]:
        """Admit each record next in its host's championed slice, with any
        buffered successors it unblocks; records this filter does not
        champion land in :meth:`take_misrouted`.

        A run is admitted whole when this filter wholly champions its host,
        it starts at the host's floor and the host's reorder buffer is
        empty; any other run is split into records for the walk."""
        released: List[RecordItem] = []
        records: List[Record] = []
        floors = self._host_floor
        for item in items:
            if type(item) is not RecordRun:
                records.append(item)  # type: ignore[arg-type]
                continue
            if records:
                released += self._walk_records(records)
                records = []
            host = item.host
            if (
                item.first_toid == floors.get(host, 1)
                and not self._reorder.get(host)
                and self.filter_map.sole_champion(host) == self.name
            ):
                released.append(item)
                floors[host] = item.end_toid
                self.records_admitted += len(item)
            else:
                released += self._walk_records(item.records())
        if records:
            released += self._walk_records(records)
        return released

    def _walk_records(self, records: List[Record]) -> List[Record]:
        return self._walk(
            records, map(_rid_of, records), self._host_floor, self._reorder, self.filter_map
        )

    def offer_drafts(self, drafts: List[DraftRecord]) -> List[DraftRecord]:
        """Admit local drafts exactly once, in client-sequence order."""
        idents = zip(map(_client_of, drafts), map(_seq_of, drafts))
        return self._walk(drafts, idents, self._client_floor, self._draft_reorder, None)

    def _walk(
        self,
        items: List[_Item],
        idents: Iterator[Tuple[Any, int]],
        floors: Dict[Any, int],
        buffers: Dict[Any, Dict[int, _Item]],
        plans: Optional[FilterMap],
    ) -> List[_Item]:
        """Admit ``items``, whose ``(key, position)`` pairs ``idents``
        yields in step, exactly once and in order per key.

        ``plans`` maps a key to the plan its positions step on; without one
        (drafts) every position is this filter's.  A dense in-order run of
        one key this filter wholly champions — a client's drafts, a
        sole-champion host's shipment — is admitted as one slice; anything
        else goes through :meth:`_offer` item by item.
        """
        released: List[_Item] = []
        name = self.name
        head = next(idents, None)
        i = 0
        while head is not None:
            key, pos = head
            head = None
            if (
                (plans is None or plans.sole_champion(key) == name)
                and pos == floors.get(key, 1)
                and not buffers.get(key)
            ):
                first = pos
                pos += 1
                for other, at in idents:
                    if at != pos or other != key:
                        head = other, at
                        break
                    pos += 1
                j = i + pos - first
                released += items[i:j]
                self.records_admitted += j - i
                floors[key] = pos
            else:
                plan = None if plans is None else plans.plan(key)
                released += self._offer(items[i], key, pos, plan, floors, buffers)
                head = next(idents, None)
                j = i + 1
            i = j
        return released

    def _offer(
        self,
        item: _Item,
        key: Any,
        pos: int,
        plan: Optional[OwnershipPlan],
        floors: Dict[Any, int],
        buffers: Dict[Any, Dict[int, _Item]],
    ) -> List[_Item]:
        name = self.name
        if plan is not None and plan.owner(pos) != name:
            self.misrouted.append(item)
            return []
        floor = floors.get(key, 1)
        if pos < floor:
            self.duplicates_dropped += 1
            return []
        # ``pos`` is ours and at or past the floor, so an expected one exists.
        expected = floor if plan is None else plan.next_owned_lid(name, floor - 1)
        buffer = buffers.get(key)
        if pos != expected:
            if buffer is None:
                buffer = buffers[key] = {}
            if pos in buffer:
                self.duplicates_dropped += 1
            else:
                buffer[pos] = item
            return []
        released = [item]
        while buffer:
            step = pos + 1 if plan is None else plan.next_owned_lid(name, pos)
            if step is None or step not in buffer:
                break
            pos = step
            released.append(buffer.pop(pos))
        floors[key] = pos + 1
        self.records_admitted += len(released)
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
        self.forward_misrouted()

    def forward_misrouted(self) -> None:
        """Reassignment races: pass records we no longer champion onward."""
        forwards: Dict[str, FilterBatch] = {}
        for record in self.core.take_misrouted():
            champion = self.core.filter_map.filter_for_record(record)
            forwards.setdefault(champion, FilterBatch()).externals.append(record)
        for champion, batch in forwards.items():
            self.send(champion, batch)
