"""Message Futures: strongly consistent geo-transactions over the causal log
(§4.3, citing Nawab et al., CIDR 2013).

Every datacenter runs a transaction manager that is a **deterministic state
machine over the shared log**: transactions execute optimistically (reads
from the local committed snapshot, writes buffered) and commit by appending
a transaction record.  A transaction ``t`` hosted at datacenter ``A``
commits once every other datacenter's history up to ``t``'s log position
has arrived — detected causally: once a record from ``B`` whose dependency
vector covers ``t`` is observed, every ``B``-transaction concurrent with
``t`` must already be in the local log, because the replicated log ships
each host's records in TOId order.

Conflict rule: two transaction records are *concurrent* when neither's
dependency vector covers the other; concurrent transactions with
intersecting write sets conflict, and the one with the lower
``(TOId, host)`` pair wins.  The rule is a pure function of the records, so
every datacenter reaches the same commit/abort decision with no further
coordination — the essence of log-based commit protocols.

Managers append heartbeat records so the "B has seen t" evidence keeps
flowing even when a datacenter has no transactions of its own.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

from ..core.errors import TransactionAborted
from ..core.record import DatacenterId, LogEntry, RecordId

TXN_TAG = "mf.txn"
HEARTBEAT_TAG = "mf.heartbeat"


@dataclass
class Transaction:
    """An optimistically executing transaction (client side)."""

    txn_id: str
    manager: "MessageFuturesManager"
    reads: Dict[str, Any] = field(default_factory=dict)
    writes: Dict[str, Any] = field(default_factory=dict)

    def read(self, key: str) -> Any:
        """Read from buffered writes first, then the committed snapshot."""
        if key in self.writes:
            return self.writes[key]
        value = self.manager.committed_value(key)
        self.reads[key] = value
        return value

    def write(self, key: str, value: Any) -> None:
        self.writes[key] = value

    def commit(self) -> "PendingCommit":
        return self.manager.submit(self)


@dataclass
class PendingCommit:
    """Handle to a submitted transaction awaiting the global decision."""

    txn_id: str
    rid: RecordId
    manager: "MessageFuturesManager"

    @property
    def committed(self) -> bool:
        return self.manager.decision(self.txn_id) is True

    def result(self) -> bool:
        """The decision; raises :class:`TransactionAborted` on abort."""
        decision = self.manager.decision(self.txn_id)
        if decision is None:
            raise RuntimeError(f"transaction {self.txn_id} is still pending")
        if not decision:
            raise TransactionAborted(self.txn_id)
        return True


@dataclass
class TxnRecord:
    """A transaction record observed in the log (ours or a peer's)."""

    txn_id: str
    rid: RecordId
    deps: Dict[DatacenterId, int]
    writes: Dict[str, Any]
    lid: int

    def covers(self, other: "TxnRecord") -> bool:
        """Whether this record causally follows ``other``."""
        if self.rid.host == other.rid.host:
            return self.rid.toid > other.rid.toid
        return self.deps.get(other.rid.host, 0) >= other.rid.toid

    def concurrent_with(self, other: "TxnRecord") -> bool:
        return not self.covers(other) and not other.covers(self)

    def conflicts_with(self, other: "TxnRecord") -> bool:
        return self.concurrent_with(other) and bool(set(self.writes) & set(other.writes))

    def beats(self, other: "TxnRecord") -> bool:
        """Deterministic conflict winner: lower (TOId, host) wins."""
        return (self.rid.toid, self.rid.host) < (other.rid.toid, other.rid.host)


class MessageFuturesManager:
    """One datacenter's transaction manager over a blocking log client."""

    def __init__(self, dc_id: DatacenterId, log: Any, datacenters: List[DatacenterId]) -> None:
        self.dc_id = dc_id
        self.log = log
        self.datacenters = list(datacenters)
        self.peers = [p for p in self.datacenters if p != dc_id]
        self._txn_counter = itertools.count(1)
        self._cursor = -1  # highest log position processed
        self._txns: Dict[str, TxnRecord] = {}
        self._decision_order: List[str] = []
        self._decisions: Dict[str, Optional[bool]] = {}
        #: peer -> element-wise max of the dependency vectors of the peer's
        #: records we have observed (plus the peer's own TOId chain): what
        #: the peer is *known* to have seen.
        self._peer_knowledge: Dict[DatacenterId, Dict[DatacenterId, int]] = {
            dc: {} for dc in self.datacenters
        }
        self._committed: Dict[str, Any] = {}
        self._applied: Set[str] = set()
        self.commits = 0
        self.aborts = 0

    # ------------------------------------------------------------------ #
    # Client API
    # ------------------------------------------------------------------ #

    def begin(self) -> Transaction:
        return Transaction(f"{self.dc_id}:{next(self._txn_counter)}", self)

    def committed_value(self, key: str) -> Any:
        return self._committed.get(key)

    def committed_state(self) -> Dict[str, Any]:
        return dict(self._committed)

    def submit(self, txn: Transaction) -> PendingCommit:
        """Append the transaction record — the protocol's only write."""
        body = {"type": "txn", "txn_id": txn.txn_id, "writes": dict(txn.writes)}
        result = self.log.append(body, tags={TXN_TAG: txn.txn_id})
        self._decisions.setdefault(txn.txn_id, None)
        return PendingCommit(txn.txn_id, result.rid, self)

    def decision(self, txn_id: str) -> Optional[bool]:
        return self._decisions.get(txn_id)

    # ------------------------------------------------------------------ #
    # Log processing: the deterministic state machine
    # ------------------------------------------------------------------ #

    def pump(self, heartbeat: bool = True) -> int:
        """Process new log entries and try to decide pending transactions.

        Returns the number of entries processed.  With ``heartbeat`` true, a
        heartbeat record is appended when new entries were seen, carrying
        this datacenter's knowledge to the peers (the "message futures").
        """
        head = self.log.head()
        processed = 0
        while self._cursor < head:
            lid = self._cursor + 1
            reply = self.log.read_lid(lid)
            if reply.error is not None or not reply.entries:
                break
            self._ingest(reply.entries[0])
            self._cursor = lid
            processed += 1
        if processed:
            self._try_decide()
            if heartbeat:
                self.log.append({"type": "heartbeat"}, tags={HEARTBEAT_TAG: self.dc_id})
        return processed

    def _ingest(self, entry: LogEntry) -> None:
        record = entry.record
        host = record.host
        if host in self._peer_knowledge:
            knowledge = self._peer_knowledge[host]
            for dc, toid in record.dep_vector().items():
                if toid > knowledge.get(dc, 0):
                    knowledge[dc] = toid
            if record.toid > knowledge.get(host, 0):
                knowledge[host] = record.toid
        body = record.body
        if isinstance(body, dict) and body.get("type") == "txn":
            txn = TxnRecord(
                txn_id=body["txn_id"],
                rid=record.rid,
                deps=record.dep_vector(),
                writes=dict(body.get("writes", {})),
                lid=entry.lid,
            )
            if txn.txn_id not in self._txns:
                self._txns[txn.txn_id] = txn
                self._decision_order.append(txn.txn_id)
            self._decisions.setdefault(txn.txn_id, None)

    def _history_complete(self, txn: TxnRecord) -> bool:
        """Every datacenter's history up to ``txn``'s position has arrived.

        Datacenter ``B``'s history is complete for ``txn`` once ``B`` is
        known to have seen ``txn``: any later ``B``-record causally follows
        it, so every ``B``-transaction concurrent with ``txn`` is already in
        the local log.  The host's own history is complete by per-host FIFO
        shipping, and our own because ``txn`` is in our log.
        """
        for dc in self.datacenters:
            if dc == txn.rid.host or dc == self.dc_id:
                continue
            if self._peer_knowledge[dc].get(txn.rid.host, 0) < txn.rid.toid:
                return False
        return True

    def _try_decide(self) -> None:
        # Local-log order respects causality, so deciding (and applying) in
        # observation order applies causally-related writes in causal order.
        for txn_id in self._decision_order:
            if self._decisions.get(txn_id) is not None:
                continue
            txn = self._txns[txn_id]
            if not self._history_complete(txn):
                continue
            self._decide(txn)

    def _decide(self, txn: TxnRecord) -> None:
        rivals = [
            other
            for other in self._txns.values()
            if other.txn_id != txn.txn_id and txn.conflicts_with(other)
        ]
        decision = not any(other.beats(txn) for other in rivals)
        self._decisions[txn.txn_id] = decision
        if decision:
            self.commits += 1
            self._apply(txn)
        else:
            self.aborts += 1

    def _apply(self, txn: TxnRecord) -> None:
        if txn.txn_id in self._applied:
            return
        self._applied.add(txn.txn_id)
        self._committed.update(txn.writes)
