"""CORFU-style shared log: sequencer pre-assignment over striped storage.

The comparison baseline (§2.1, §5.2).  Storage units are this library's log
maintainers operated in *placed* mode with the same deterministic
round-robin range map — the only architectural difference from FLStore is
that log positions are **pre-assigned by a centralised sequencer** instead
of post-assigned by the storage nodes.  That isolates the variable the
paper's design argument is about.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, Optional

from ..core.config import FLStoreConfig
from ..core.record import AppendResult, LogEntry, Record
from ..flstore.maintainer import LogMaintainer
from ..flstore.messages import PlaceRecords
from ..flstore.range_map import OwnershipPlan
from ..runtime.actor import Actor, Runtime
from .sequencer import ReservedRange, Sequencer, SequencerRequest

Placer = Callable[[Actor], None]


class CorfuClient(Actor):
    """Client-driven append: reserve positions, then write to the units."""

    def __init__(self, name: str, sequencer: str, plan: OwnershipPlan) -> None:
        super().__init__(name)
        self.sequencer = sequencer
        self.plan = plan
        self._request_ids = itertools.count(1)
        self._pending: Dict[int, List[Record]] = {}
        self._callbacks: Dict[int, Callable[[List[AppendResult]], None]] = {}
        self.records_written = 0

    def append_records(
        self,
        records: List[Record],
        on_done: Optional[Callable[[List[AppendResult]], None]] = None,
    ) -> None:
        request_id = next(self._request_ids)
        self._pending[request_id] = list(records)
        if on_done is not None:
            self._callbacks[request_id] = on_done
        self.send(self.sequencer, SequencerRequest(request_id, count=len(records)))

    def on_message(self, sender: str, message: Any) -> None:
        if not isinstance(message, ReservedRange):
            return
        records = self._pending.pop(message.request_id, None)
        if records is None:
            return
        placements: Dict[str, PlaceRecords] = {}
        results: List[AppendResult] = []
        for offset, record in enumerate(records):
            lid = message.start + offset
            owner = self.plan.owner(lid)
            placements.setdefault(owner, PlaceRecords()).placements.append((lid, record))
            results.append(AppendResult(record.rid, lid))
            self.records_written += 1
        for owner, batch in placements.items():
            self.send(owner, batch)
        callback = self._callbacks.pop(message.request_id, None)
        if callback is not None:
            callback(results)


class CorfuLog:
    """A deployed CORFU-style log: one sequencer plus striped storage units."""

    def __init__(
        self,
        runtime: Runtime,
        n_units: int = 3,
        batch_size: int = 1000,
        config: Optional[FLStoreConfig] = None,
        prefix: str = "corfu/",
        placer: Optional[Placer] = None,
        sequencer_grant_cost: Optional[float] = None,
    ) -> None:
        self.runtime = runtime
        self.config = config or FLStoreConfig()
        place = placer or (lambda actor: runtime.register(actor))

        unit_names = [f"{prefix}unit/{i}" for i in range(n_units)]
        self.plan = OwnershipPlan(unit_names, batch_size=batch_size)
        self.units: List[LogMaintainer] = []
        for name in unit_names:
            unit = LogMaintainer(name, self.plan, peers=unit_names, config=self.config)
            place(unit)
            self.units.append(unit)

        self.sequencer = Sequencer(f"{prefix}sequencer", grant_cost=sequencer_grant_cost)
        place(self.sequencer)
        self._client_count = 0
        self._prefix = prefix

    def client(self, name: Optional[str] = None) -> CorfuClient:
        self._client_count += 1
        client_name = name or f"{self._prefix}client/{self._client_count}"
        client = CorfuClient(client_name, self.sequencer.name, self.plan)
        self.runtime.register(client)
        return client

    # -- introspection ----------------------------------------------------- #

    def all_entries(self) -> List[LogEntry]:
        entries = [e for unit in self.units for e in unit.core.stored_entries()]
        entries.sort(key=lambda entry: entry.lid)
        return entries

    def total_records(self) -> int:
        return sum(unit.core.stored_count() for unit in self.units)

    def head_of_log(self) -> int:
        return min(unit.core.head_of_log() for unit in self.units)
