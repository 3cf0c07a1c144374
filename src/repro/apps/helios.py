"""Helios: minimum-latency strongly consistent geo-transactions (§4.3,
citing Nawab et al., SIGMOD 2015).

Helios builds on the same causally ordered replicated log as Message
Futures but commits against a **conflict zone** instead of waiting for a
full mutual exchange.  The insight (from Helios's lower-bound proof) is
that a transaction ``t`` appended at ``A`` at local time ``ts(t)`` can only
be conflicted by a peer ``B``'s transactions appended *before B learns of
t*, i.e. before ``ts(t) + d(A→B)`` on ``B``'s clock (plus skew).  So ``A``
may commit ``t`` as soon as it has received ``B``'s log up to that
timestamp — the conflict zone — rather than waiting for ``B`` to
acknowledge ``t`` explicitly.

The transaction's host decides (commit/abort) by examining the conflict
zone and publishes the decision as a log record; every datacenter applies
decisions from the log, so the committed state converges.  The deterministic
priority rule ``(timestamp, TOId, host)`` guarantees that of two conflicting
concurrent transactions exactly one survives, regardless of which host
evaluates which.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..core.record import DatacenterId, LogEntry, RecordId
from .message_futures import PendingCommit, Transaction

HELIOS_TXN_TAG = "helios.txn"
HELIOS_DECISION_TAG = "helios.decision"
HELIOS_HEARTBEAT_TAG = "helios.heartbeat"


class _ZoneTxn:
    """A transaction record plus the Helios bookkeeping."""

    __slots__ = ("txn_id", "rid", "deps", "writes", "ts", "lid")

    def __init__(
        self,
        txn_id: str,
        rid: RecordId,
        deps: Dict[DatacenterId, int],
        writes: Dict[str, Any],
        ts: float,
        lid: int,
    ) -> None:
        self.txn_id = txn_id
        self.rid = rid
        self.deps = deps
        self.writes = writes
        self.ts = ts
        self.lid = lid

    def covers(self, other: "_ZoneTxn") -> bool:
        if self.rid.host == other.rid.host:
            return self.rid.toid > other.rid.toid
        return self.deps.get(other.rid.host, 0) >= other.rid.toid

    def concurrent_with(self, other: "_ZoneTxn") -> bool:
        return not self.covers(other) and not other.covers(self)

    def conflicts_with(self, other: "_ZoneTxn") -> bool:
        return self.concurrent_with(other) and bool(set(self.writes) & set(other.writes))

    def priority(self) -> Tuple[float, int, DatacenterId]:
        """Lower wins: earlier timestamp, then TOId, then host id."""
        return (self.ts, self.rid.toid, self.rid.host)


class HeliosManager:
    """One datacenter's Helios transaction manager."""

    def __init__(
        self,
        dc_id: DatacenterId,
        log: Any,
        datacenters: List[DatacenterId],
        one_way_delay: Optional[Dict[DatacenterId, float]] = None,
        default_delay: float = 0.05,
        max_skew: float = 0.0,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.dc_id = dc_id
        self.log = log
        self.datacenters = list(datacenters)
        self.peers = [p for p in self.datacenters if p != dc_id]
        #: Lower bound on the one-way delay from this DC to each peer; the
        #: conflict-zone width toward that peer (Helios's "lower-bound
        #: numbers").
        self.one_way_delay = dict(one_way_delay or {})
        self.default_delay = default_delay
        self.max_skew = max_skew
        self._clock = clock or (lambda: getattr(log, "runtime").now)
        self._txn_counter = itertools.count(1)
        self._cursor = -1
        self._txns: Dict[str, _ZoneTxn] = {}
        self._order: List[str] = []
        self._decisions: Dict[str, Optional[bool]] = {}
        self._local_pending: Set[str] = set()
        #: Per peer, the highest record timestamp received from it.  The log
        #: ships each host's records in order, so every record of the peer
        #: with a smaller timestamp has arrived.
        self._peer_ts: Dict[DatacenterId, float] = {p: float("-inf") for p in self.peers}
        self._committed: Dict[str, Any] = {}
        self._applied: Set[str] = set()
        self.commits = 0
        self.aborts = 0

    # ------------------------------------------------------------------ #
    # Client API
    # ------------------------------------------------------------------ #

    def begin(self) -> Transaction:
        return Transaction(f"{self.dc_id}:h{next(self._txn_counter)}", self)

    def committed_value(self, key: str) -> Any:
        return self._committed.get(key)

    def committed_state(self) -> Dict[str, Any]:
        return dict(self._committed)

    def submit(self, txn: Transaction) -> PendingCommit:
        ts = self._clock()
        body = {
            "type": "helios.txn",
            "txn_id": txn.txn_id,
            "writes": dict(txn.writes),
            "ts": ts,
        }
        result = self.log.append(body, tags={HELIOS_TXN_TAG: txn.txn_id})
        self._decisions.setdefault(txn.txn_id, None)
        self._local_pending.add(txn.txn_id)
        return PendingCommit(txn.txn_id, result.rid, self)

    def decision(self, txn_id: str) -> Optional[bool]:
        return self._decisions.get(txn_id)

    def commit_bound(self, peer: DatacenterId) -> float:
        """Conflict-zone extent toward ``peer`` (delay bound plus skew)."""
        return self.one_way_delay.get(peer, self.default_delay) + self.max_skew

    # ------------------------------------------------------------------ #
    # Log processing
    # ------------------------------------------------------------------ #

    def pump(self, heartbeat: bool = True) -> int:
        """Process new log entries, decide ready local transactions, and
        apply decisions from the log.  Returns entries processed."""
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
        self._try_decide_local()
        if processed and heartbeat:
            self.log.append(
                {"type": "helios.heartbeat", "ts": self._clock()},
                tags={HELIOS_HEARTBEAT_TAG: self.dc_id},
            )
        return processed

    def _ingest(self, entry: LogEntry) -> None:
        record = entry.record
        body = record.body
        if not isinstance(body, dict):
            return
        ts = body.get("ts")
        if ts is not None and record.host in self._peer_ts:
            if ts > self._peer_ts[record.host]:
                self._peer_ts[record.host] = ts
        kind = body.get("type")
        if kind == "helios.txn":
            txn = _ZoneTxn(
                txn_id=body["txn_id"],
                rid=record.rid,
                deps=record.dep_vector(),
                writes=dict(body.get("writes", {})),
                ts=body.get("ts", 0.0),
                lid=entry.lid,
            )
            if txn.txn_id not in self._txns:
                self._txns[txn.txn_id] = txn
                self._order.append(txn.txn_id)
            self._decisions.setdefault(txn.txn_id, None)
        elif kind == "helios.decision":
            self._apply_decision(body["txn_id"], bool(body["commit"]))

    def _zone_closed(self, txn: _ZoneTxn) -> bool:
        """Whether every peer's conflict zone for ``txn`` has fully arrived."""
        for peer in self.peers:
            if self._peer_ts[peer] < txn.ts + self.commit_bound(peer):
                return False
        return True

    def _try_decide_local(self) -> None:
        for txn_id in list(self._local_pending):
            txn = self._txns.get(txn_id)
            if txn is None:
                continue  # our own append not yet visible in the log
            if self._decisions.get(txn_id) is not None:
                self._local_pending.discard(txn_id)
                continue
            if not self._zone_closed(txn):
                continue
            rivals = [
                other
                for other in self._txns.values()
                if other.txn_id != txn_id and txn.conflicts_with(other)
            ]
            commit = not any(other.priority() < txn.priority() for other in rivals)
            self._local_pending.discard(txn_id)
            self._publish_decision(txn, commit)

    def _publish_decision(self, txn: _ZoneTxn, commit: bool) -> None:
        self._apply_decision(txn.txn_id, commit)
        self.log.append(
            {
                "type": "helios.decision",
                "txn_id": txn.txn_id,
                "commit": commit,
                "ts": self._clock(),
            },
            tags={HELIOS_DECISION_TAG: txn.txn_id},
        )

    def _apply_decision(self, txn_id: str, commit: bool) -> None:
        if self._decisions.get(txn_id) is not None:
            return
        self._decisions[txn_id] = commit
        if commit:
            self.commits += 1
            txn = self._txns.get(txn_id)
            if txn is not None and txn_id not in self._applied:
                self._applied.add(txn_id)
                self._committed.update(txn.writes)
        else:
            self.aborts += 1
