"""Tango-style replicated data structures over the shared log.

The paper motivates the log as a substrate for "complex solutions like
stream processors and transaction managers" (§1, citing Tango).  This
module provides the Tango pattern: an in-memory object whose every mutation
is an appended log record and whose state is the deterministic replay of
the log — so any number of replicas of the object, at any datacenter,
converge to the same state once they have consumed the same records.

Each object family keys its records with a tag (``obj:<name>``), so
replicas read exactly their own mutation stream.  ``sync()`` pulls new
mutations up to the head of the log; mutations are applied in log order,
which the causal pipeline keeps consistent across datacenters.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from ..core.record import LogEntry, ReadRules, Record

OBJECT_TAG_PREFIX = "obj:"


class ReplicatedObject:
    """Base class: a state machine replayed from a tagged record stream."""

    def __init__(self, log: Any, name: str) -> None:
        self.log = log
        self.name = name
        self._tag = OBJECT_TAG_PREFIX + name
        self._cursor = -1
        self.mutations_applied = 0

    # -- the Tango pattern ------------------------------------------------ #

    def _append_mutation(self, op: str, **payload: Any) -> None:
        """Append one mutation record (the only way state ever changes)."""
        body = {"object": self.name, "op": op, **payload}
        self.log.append(body, tags={self._tag: op})

    def sync(self) -> int:
        """Apply every new mutation up to the head of the log.

        Returns the number applied.  Safe to call repeatedly; the cursor
        guarantees exactly-once application per replica.
        """
        head = self.log.head()
        if head <= self._cursor:
            return 0
        entries: List[LogEntry] = self.log.read(
            ReadRules(
                tag_key=self._tag,
                min_lid=self._cursor + 1,
                max_lid=head,
                most_recent=False,
            )
        )
        for entry in entries:
            self._apply(entry.record.body, entry.record)
            self.mutations_applied += 1
        self._cursor = head
        return len(entries)

    def _apply(self, body: Dict[str, Any], record: Record) -> None:
        raise NotImplementedError


class ReplicatedCounter(ReplicatedObject):
    """A convergent counter: increments/decrements commute."""

    def __init__(self, log: Any, name: str = "counter") -> None:
        super().__init__(log, name)
        self._value = 0

    def increment(self, by: int = 1) -> None:
        self._append_mutation("add", delta=by)

    @property
    def value(self) -> int:
        return self._value

    def _apply(self, body: Dict[str, Any], record: Record) -> None:
        self._value += body["delta"]


class ReplicatedSet(ReplicatedObject):
    """An add/remove set; operations resolve in log order."""

    def __init__(self, log: Any, name: str = "set") -> None:
        super().__init__(log, name)
        self._members: Set[Any] = set()

    def add(self, member: Any) -> None:
        self._append_mutation("add", member=member)

    def discard(self, member: Any) -> None:
        self._append_mutation("discard", member=member)

    def __contains__(self, member: Any) -> bool:
        return member in self._members

    def members(self) -> Set[Any]:
        return set(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def _apply(self, body: Dict[str, Any], record: Record) -> None:
        if body["op"] == "add":
            self._members.add(body["member"])
        else:
            self._members.discard(body["member"])


class ReplicatedDict(ReplicatedObject):
    """A key-value map with convergent conflict resolution.

    A write that causally follows the current winner always replaces it;
    concurrent writes are resolved by the deterministic ``(TOId, host)``
    tiebreak — the same rule at every datacenter, so replicas converge
    regardless of how concurrent mutations interleave in their local logs.
    """

    def __init__(self, log: Any, name: str = "dict") -> None:
        super().__init__(log, name)
        self._items: Dict[Any, Any] = {}
        self._winners: Dict[Any, Record] = {}

    def set(self, key: Any, value: Any) -> None:
        self._append_mutation("set", key=key, value=value)

    def get(self, key: Any, default: Any = None) -> Any:
        return self._items.get(key, default)

    def items(self) -> Dict[Any, Any]:
        return dict(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def _apply(self, body: Dict[str, Any], record: Record) -> None:
        key = body["key"]
        winner = self._winners.get(key)
        if winner is not None and not self._beats(record, winner):
            return
        self._winners[key] = record
        self._items[key] = body["value"]

    @staticmethod
    def _beats(challenger: Record, incumbent: Record) -> bool:
        if challenger.depends_on(incumbent.rid):
            return True  # causally later always wins
        if incumbent.depends_on(challenger.rid):
            return False
        # Concurrent: deterministic tiebreak.
        return (challenger.toid, challenger.host) > (incumbent.toid, incumbent.host)


class ReplicatedQueue(ReplicatedObject):
    """A FIFO work queue with exactly-once, log-arbitrated claims.

    ``claim_next()`` appends a claim record naming the item and the
    claimant; the log arbitrates races with a deterministic rule — the
    claim with the lowest ``(TOId, host)`` identity wins.  Because the rule
    is a pure function of the claim records (not of their interleaving),
    every datacenter resolves every race identically, with no locks.
    """

    def __init__(self, log: Any, name: str = "queue", claimant: str = "worker") -> None:
        super().__init__(log, name)
        self.claimant = claimant
        self._pending: List[Tuple[str, Any]] = []
        #: item -> (claim identity, claimant); lowest identity wins.
        self._claims: Dict[str, Tuple[Tuple[int, str], str]] = {}

    def enqueue(self, item_id: str, payload: Any) -> None:
        self._append_mutation("enqueue", item_id=item_id, payload=payload)

    def claim_next(self) -> Optional[Tuple[str, Any]]:
        """Attempt to claim the oldest unclaimed item.

        Returns the item optimistically; call :meth:`sync` afterwards and
        check :meth:`owner_of` to learn whether the claim won the race.
        """
        for item_id, payload in self._pending:
            if item_id not in self._claims:
                self._append_mutation("claim", item_id=item_id, claimant=self.claimant)
                return item_id, payload
        return None

    def owner_of(self, item_id: str) -> Optional[str]:
        claim = self._claims.get(item_id)
        return None if claim is None else claim[1]

    def _apply(self, body: Dict[str, Any], record: Record) -> None:
        if body["op"] == "enqueue":
            self._pending.append((body["item_id"], body["payload"]))
        elif body["op"] == "claim":
            identity = (record.toid, record.host)
            current = self._claims.get(body["item_id"])
            if current is None or identity < current[0]:
                self._claims[body["item_id"]] = (identity, body["claimant"])
