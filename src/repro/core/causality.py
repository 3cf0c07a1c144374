"""Causal-ordering primitives (§3 "Causality and log order", §6.1).

Causality in Chariots is tracked per *host datacenter* rather than per
record: a datacenter's knowledge is summarised by a vector
``{datacenter: max TOId incorporated}``.  Because records from one host form
a total order (TOIds are dense), knowing "A up to TOId 7" means every record
``<A, t≤7>`` is known.  This module provides:

* :class:`CausalFrontier` — a mutable knowledge vector with the admission
  test used by the abstract solution and the queue stage;
* :class:`DeferredQueue` — the priority queue of records whose dependencies
  are not yet satisfied (§6.1 step 5, Figure 5);
* :func:`first_violation` / :func:`causal_order_respected` — the causal
  walk over a record sequence that :func:`repro.chariots.check_logs` judges
  every datacenter log with.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .errors import DuplicateRecordError
from .record import DatacenterId, KnowledgeVector, Record, RecordId


class CausalFrontier:
    """A datacenter's extent of knowledge: max contiguous TOId per host.

    The frontier only ever advances by exactly one record at a time per host
    (TOIds are dense), which is what makes the vector summary sound.
    """

    def __init__(self, initial: Optional[KnowledgeVector] = None) -> None:
        self._max_toid: Dict[DatacenterId, int] = dict(initial or {})

    def known(self, rid: RecordId) -> bool:
        """Whether the record identified by ``rid`` has been incorporated."""
        return self._max_toid.get(rid.host, 0) >= rid.toid

    def max_toid(self, host: DatacenterId) -> int:
        """Highest TOId incorporated from ``host`` (0 if none)."""
        return self._max_toid.get(host, 0)

    def admissible(self, record: Record) -> bool:
        """Admission test for a record (§6.2, Queues).

        A record may be incorporated when (a) it is the *next* record from
        its host — preserving the per-host total order — and (b) every causal
        dependency is already incorporated.
        """
        rid = record.rid
        known = self._max_toid
        if known.get(rid.host, 0) != rid.toid - 1:
            return False
        for host, toid in record.deps:
            # A dependency on the record's own host is covered by the
            # next-record test above.
            if host != rid.host and known.get(host, 0) < toid:
                return False
        return True

    def is_duplicate(self, record: Record) -> bool:
        """Whether the record has already been incorporated."""
        rid = record.rid
        return self._max_toid.get(rid.host, 0) >= rid.toid

    def advance(self, record: Record) -> None:
        """Mark ``record`` incorporated.  Caller must check admissibility."""
        rid = record.rid
        self._max_toid[rid.host] = rid.toid

    def advance_host(self, host: DatacenterId, toid: int) -> None:
        """Bulk advance: every record from ``host`` up to ``toid`` is now
        incorporated.  Caller must guarantee the records exist and were
        admitted in order (the queue stage's draft batch does)."""
        self._max_toid[host] = toid

    def snapshot(self) -> KnowledgeVector:
        """An immutable copy of the vector, for tokens and ATable updates."""
        return dict(self._max_toid)

    def dominates(self, other: "CausalFrontier") -> bool:
        """Whether this frontier knows at least everything ``other`` does."""
        for host, toid in other._max_toid.items():
            if self._max_toid.get(host, 0) < toid:
                return False
        return True

    def copy(self) -> "CausalFrontier":
        return CausalFrontier(self._max_toid)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CausalFrontier):
            return NotImplemented
        mine = {h: t for h, t in self._max_toid.items() if t}
        theirs = {h: t for h, t in other._max_toid.items() if t}
        return mine == theirs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CausalFrontier({self._max_toid!r})"


def _host_order(record: Record) -> Tuple[DatacenterId, int]:
    rid = record.rid
    return rid.host, rid.toid


class DeferredQueue:
    """Priority queue of records awaiting their causal dependencies.

    Ordered by ``(host, toid)`` so that, per host, records drain in total
    order.  :meth:`drain` repeatedly releases every record whose dependencies
    a frontier now satisfies, advancing the frontier as it goes — this is the
    "check the priority queue frequently" loop of §6.1 (Figure 5, step 3).
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[DatacenterId, int, Record]] = []
        self._pending: Set[RecordId] = set()

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, record: Record) -> None:
        """Park a record whose dependencies are not yet satisfied."""
        if record.rid in self._pending:
            raise DuplicateRecordError(record.rid)
        self._pending.add(record.rid)
        heapq.heappush(self._heap, (record.host, record.toid, record))

    def __contains__(self, rid: RecordId) -> bool:
        return rid in self._pending

    def admit(self, arrivals: Iterable[Record], frontier: CausalFrontier) -> List[Record]:
        """Release what ``frontier`` admits of a batch of arrivals; park the rest.

        Yields exactly what pushing every arrival (skipping incorporated and
        repeated ones) and then :meth:`drain`-ing would — same release order,
        same frontier, same parked set — but walks the arrivals once in
        ``(host, toid)`` order and parks only the records that cannot be
        admitted on that walk, so an in-order batch never touches the heap.
        """
        released: List[Record] = []
        for record in sorted(arrivals, key=_host_order):
            if frontier.is_duplicate(record):
                continue
            if frontier.admissible(record):
                frontier.advance(record)
                released.append(record)
            elif record.rid not in self._pending:  # else: repeated arrival
                self.push(record)
        if self._heap and released:
            # A release above may have unlocked a record parked before it.
            released.extend(self.drain(frontier))
        return released

    def drain(self, frontier: CausalFrontier) -> List[Record]:
        """Release every deferred record the frontier can now admit.

        Advances ``frontier`` for each released record and keeps sweeping
        until a full pass releases nothing (release of one record can unlock
        another with a cross-host dependency on it).
        """
        released: List[Record] = []
        progress = True
        while progress and self._heap:
            progress = False
            still_deferred: List[Tuple[DatacenterId, int, Record]] = []
            while self._heap:
                host, toid, record = heapq.heappop(self._heap)
                if frontier.admissible(record):
                    frontier.advance(record)
                    self._pending.discard(record.rid)
                    released.append(record)
                    progress = True
                elif frontier.is_duplicate(record):
                    # Already incorporated through another path; drop.
                    self._pending.discard(record.rid)
                    progress = True
                else:
                    still_deferred.append((host, toid, record))
            for item in still_deferred:
                heapq.heappush(self._heap, item)
        return released

    def peek_all(self) -> List[Record]:
        """Records currently parked, in heap order (for token shipping)."""
        return [record for _, _, record in sorted(self._heap)]


def happened_before(earlier: Record, later: Record) -> bool:
    """Direct causal relation check: ``earlier → later`` (non-transitive).

    True when both records share a host and ``earlier`` precedes ``later``
    in the host's total order, or when ``later``'s dependency vector covers
    ``earlier``.
    """
    if earlier.host == later.host:
        return earlier.toid < later.toid
    return later.depends_on(earlier.rid)


def causal_order_respected(records: Sequence[Record]) -> bool:
    """Validate that a sequence of records is a causally consistent order."""
    return first_violation(records) is None


def first_violation(records: Sequence[Record]) -> Optional[int]:
    """Position of the first record that breaks causal order, if any.

    Checks, for each record in turn, that the prefix before it contains the
    record's full dependency set and the host predecessor.  Because the
    dependency vectors are transitive summaries, prefix-closure under the
    vector test implies transitive causal consistency.  Walking from an
    empty frontier also rejects a repeated record and a per-host TOId gap.
    """
    frontier = CausalFrontier()
    for index, record in enumerate(records):
        if not frontier.admissible(record):
            return index
        frontier.advance(record)
    return None


def topological_causal_sort(records: Iterable[Record]) -> List[Record]:
    """Produce *some* causally consistent order of ``records``.

    Deterministic (ties broken by ``(host, toid)``), used by tests to build
    reference orderings.  Raises ``ValueError`` if no causal order exists
    (a dependency is missing from the input set).
    """
    deferred = DeferredQueue()
    for record in records:
        deferred.push(record)
    frontier = CausalFrontier()
    ordered = deferred.drain(frontier)
    if len(deferred):
        missing = deferred.peek_all()[0]
        raise ValueError(
            f"no causal order exists: {missing.rid} has unsatisfiable dependencies"
        )
    return ordered
