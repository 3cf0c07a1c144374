"""Senders: stage 6 of the Chariots pipeline (§6.2, "Log propagation").

Each sender ships the *local* records held by a subset of the log
maintainers to the receivers of the other datacenters, and keeps no copy of
them.  Replication toward one peer datacenter from one maintainer is a
cursor over that maintainer's log, ``acked_upto``, with at most one attempt
outstanding: an idle stream reads the entries past its cursor
(``ReadNewRequest``) and ships the reply, and the peer's ack moves the
cursor.  Streams read on the replication tick, and also at once after an ack
slower than the tick or a reply that moved the cursor with nothing to ship
(the log is moving).  An attempt that times out starts over from the cursor,
so a retransmission re-reads the log (duplicates are harmless: the remote
filters admit exactly once).  One attempt per stream is the whole
retransmission window, and so the back-pressure.

The log is the only buffer.  It keeps what a stream has yet to ship because
a maintainer truncates only records every datacenter has incorporated (the
Awareness Table rule, §6.1), which a peer does only after receiving them;
that rule alone makes it safe for ``MaintainerCore.runs_after`` to step
over a collected prefix (the peer has it) instead of failing the read.

Shipments carry records only: the Awareness Table travels between the GC
coordinators (:mod:`repro.chariots.gc`), so a sender never reads it.
Timeouts follow :class:`~repro.core.retry.RetryPolicy` (seeded jitter on
shipments); each peer gets a :class:`~repro.core.retry.CircuitBreaker`:
after enough consecutive shipment timeouts its streams neither read nor
ship, and a periodic probe resumes catch-up from their cursors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..core.config import PipelineConfig
from ..core.record import DatacenterId, Record, RecordItem, count_records
from ..core.retry import CircuitBreaker, ReplayableRandom
from ..flstore.messages import ReadNewReply, ReadNewRequest
from ..runtime.actor import Actor
from .messages import ReplicationShipment, ShipmentAck


@dataclass(slots=True)
class _Stream:
    """Replication toward one peer datacenter from one maintainer."""

    #: The cursor: the peer has (or needs nothing of) every LId up to it.
    acked_upto: int = -1
    #: The outstanding attempt's read request id or shipment seq (one
    #: counter numbers both); ``None`` while the stream is idle.
    seq: Optional[int] = None
    #: Whether that attempt is a shipment awaiting its ack, else a read.
    shipping: bool = False
    sent_at: float = 0.0
    #: Seconds the outstanding attempt may wait before it times out.
    wait: float = 0.0
    #: Consecutive attempts that timed out since the cursor last moved.
    attempts: int = 0


class Sender(Actor):
    """Ships local log records to remote datacenters."""

    def __init__(
        self,
        name: str,
        dc_id: DatacenterId,
        maintainers: List[str],
        peer_receivers: Dict[DatacenterId, List[str]],
        config: Optional[PipelineConfig] = None,
        transitive: bool = False,
    ) -> None:
        super().__init__(name)
        self.dc_id = dc_id
        self.maintainers = list(maintainers)
        self.peer_receivers = {dc: list(rs) for dc, rs in peer_receivers.items()}
        self.config = config or PipelineConfig()
        self.retry_policy = self.config.retransmit_policy()
        #: Seeded per-sender RNG: jitter stays deterministic across runs
        #: (and across a snapshot and restore, which replays its draws).
        self._rng = ReplayableRandom(name)
        self._breakers: Dict[DatacenterId, CircuitBreaker] = {
            dc: self._new_breaker() for dc in self.peer_receivers
        }
        #: Transitive shipping (Replicated Dictionary style): forward
        #: records from *any* host, so partial topologies still converge.
        self.transitive = transitive
        self._streams: Dict[Tuple[DatacenterId, str], _Stream] = {
            (dc, m): _Stream() for dc in self.peer_receivers for m in self.maintainers
        }
        #: The last read request id or shipment seq issued.
        self._seq = 0
        #: Per peer datacenter, the index of the receiver to send to next.
        self._next_receiver: Dict[DatacenterId, int] = dict.fromkeys(self.peer_receivers, 0)
        self.records_shipped = 0

    # ------------------------------------------------------------------ #

    def add_maintainer(self, name: str) -> None:
        """Elasticity: start shipping a newly added maintainer's records."""
        if name in self.maintainers:
            return
        self.maintainers.append(name)
        for dc in self.peer_receivers:
            self._streams[(dc, name)] = _Stream()

    def _new_breaker(self) -> CircuitBreaker:
        return CircuitBreaker(
            failure_threshold=self.config.breaker_failure_threshold,
            reset_timeout=self.config.breaker_reset_timeout,
        )

    def breaker(self, dc: DatacenterId) -> CircuitBreaker:
        """The circuit breaker guarding replication toward ``dc``."""
        return self._breakers[dc]

    def add_peer(self, dc: DatacenterId, receivers: List[str]) -> None:
        """Connect a remote datacenter (deployment wiring / elasticity)."""
        self.peer_receivers[dc] = list(receivers)
        self._next_receiver[dc] = 0
        self._breakers.setdefault(dc, self._new_breaker())
        for maintainer in self.maintainers:
            self._streams.setdefault((dc, maintainer), _Stream())

    def _receiver_for(self, dc: DatacenterId) -> str:
        """The next receiver of ``dc``, round-robin."""
        receivers = self.peer_receivers[dc]
        index = self._next_receiver[dc]
        self._next_receiver[dc] = (index + 1) % len(receivers)
        return receivers[index]

    def on_start(self) -> None:
        self.set_timer(self.config.replication_interval, self._tick, periodic=True)

    def _tick(self) -> None:
        if not self.peer_receivers:
            return  # single-datacenter deployment: nothing to replicate
        for (dc, maintainer), stream in self._streams.items():
            if stream.seq is not None:
                # A negative wait means the clock restarted under us (a
                # respawned worker process): the answer is not coming either.
                waited = self.now - stream.sent_at
                if 0.0 <= waited < stream.wait:
                    continue
                if stream.shipping:
                    self._breakers[dc].record_failure(self.now)
                stream.attempts += 1
                stream.seq = None  # start over from the cursor
            self._read(dc, maintainer, stream)

    def _read(self, dc: DatacenterId, maintainer: str, stream: _Stream) -> None:
        """Ask ``maintainer`` for the entries past the stream's cursor,
        unless ``dc``'s breaker keeps the stream down."""
        if not self._breakers[dc].ready(self.now):
            return
        stream.seq = self._seq = self._seq + 1
        stream.shipping = False
        stream.sent_at = self.now
        stream.wait = self.retry_policy.delay(stream.attempts)
        self.send(
            maintainer,
            ReadNewRequest(
                stream.seq,
                after_lid=stream.acked_upto,
                limit=self.config.replication_batch_limit,
                # Direct mode ships local records only: don't be sent the rest.
                host=None if self.transitive else self.dc_id,
            ),
        )

    def _on_read(self, maintainer: str, reply: ReadNewReply) -> None:
        # Only the outstanding read's reply counts: a late one (its re-issue
        # reads the same log) or a duplicate would ship LIds twice.
        for dc in self.peer_receivers:
            stream = self._streams.get((dc, maintainer))
            if stream is not None and stream.seq == reply.request_id and not stream.shipping:
                self._ship(dc, maintainer, stream, reply)
                return

    def _ship(
        self, dc: DatacenterId, maintainer: str, stream: _Stream, reply: ReadNewReply
    ) -> None:
        stream.seq = None
        # Direct mode ships local records only (the rest reach the peer from
        # their own hosts), transitive mode all but the peer's own echoes;
        # neither ships internal records.  A run has one host and no
        # internal record, so the filter costs one test per run.
        own = self.dc_id
        transitive = self.transitive
        records: List[RecordItem] = [
            item
            for _lid, item in reply.entries
            if item.host != dc
            and (transitive or item.host == own)
            and not (type(item) is Record and item.internal)
        ]
        if not records:
            if reply.upto > stream.acked_upto:
                # Nothing for the peer, but the log moved (if only with
                # records a filtered reply leaves out): step over it and
                # read what arrived meanwhile now rather than at the tick.
                stream.acked_upto = reply.upto
                stream.attempts = 0
                self._read(dc, maintainer, stream)
            return
        if not self._breakers[dc].allow(self.now):
            return  # the peer went down meanwhile: a later probe re-reads
        stream.seq = self._seq = self._seq + 1
        stream.shipping = True
        stream.sent_at = self.now
        stream.wait = self.retry_policy.delay(stream.attempts, self._rng)
        self.send(
            self._receiver_for(dc),
            ReplicationShipment(
                from_dc=self.dc_id,
                sender=self.name,
                maintainer=maintainer,
                ship_seq=stream.seq,
                records=records,
                upto_lid=reply.upto,
            ),
        )
        self.records_shipped += count_records(records)

    def _on_ack(self, ack: ShipmentAck) -> None:
        stream = self._streams.get((ack.from_dc, ack.maintainer))
        if stream is None or not stream.shipping or stream.seq != ack.ship_seq:
            return  # stale: the attempt it answers timed out and started over
        self._breakers[ack.from_dc].record_success(self.now)
        stream.acked_upto = max(stream.acked_upto, ack.upto_lid)
        stream.seq = None
        stream.attempts = 0
        # A quicker ack waits for the tick: the interval paces shipments.
        if self.now - stream.sent_at >= self.config.replication_interval:
            self._read(ack.from_dc, ack.maintainer, stream)

    def on_message(self, sender: str, message: Any) -> None:
        if isinstance(message, ReadNewReply):
            self._on_read(sender, message)
        elif isinstance(message, ShipmentAck):
            self._on_ack(message)
