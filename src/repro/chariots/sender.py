"""Senders: stage 6 of the Chariots pipeline (§6.2, "Log propagation").

Each sender is responsible for shipping the *local* records held by a subset
of the log maintainers to the receivers of the other datacenters.  A sender
periodically pulls newly persisted entries from its maintainers
(``ReadNewRequest``), keeps them buffered until every peer datacenter has
acknowledged them, and retransmits unacknowledged shipments — duplicate
deliveries are harmless because the remote filters admit exactly once.

Every shipment also carries this datacenter's latest knowledge vector (from
the queues' ``FrontierUpdate`` broadcasts); the receiving side feeds it into
its Awareness Table, which drives garbage collection (§6.1).

Resilience: unacknowledged shipments are retransmitted on the shared
:class:`~repro.core.retry.RetryPolicy` schedule (capped exponential backoff
with seeded jitter, configured by ``PipelineConfig.retransmit_*``), and each
peer datacenter gets a :class:`~repro.core.retry.CircuitBreaker` — after
enough consecutive timeouts the sender stops hammering the partitioned peer,
keeps buffering locally, and probes periodically so catch-up resumes the
moment the partition heals.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.config import PipelineConfig
from ..core.record import DatacenterId, KnowledgeVector, Record
from ..core.retry import CircuitBreaker, RetryPolicy
from ..flstore.messages import ReadNewReply, ReadNewRequest
from ..runtime.actor import Actor
from .messages import AtableSnapshot, FrontierUpdate, ReplicationShipment, ShipmentAck


@dataclass
class _PeerStream:
    """Replication state toward one peer datacenter for one maintainer."""

    acked_upto: int = -1
    inflight_seq: Optional[int] = None
    inflight_upto: int = -1
    inflight_records: List[Record] = field(default_factory=list)
    sent_at: float = 0.0
    #: Consecutive transmissions of the current shipment without an ack.
    attempts: int = 0
    #: Seconds the current attempt may wait for its ack before retrying.
    retry_after: float = 0.0
    #: Whether the current attempt's timeout was already counted as a failure.
    timed_out: bool = False


@dataclass(slots=True)
class _Fetch:
    """The one ``ReadNewRequest`` outstanding toward a maintainer."""

    request_id: int
    sent_at: float
    #: Consecutive issues of this fetch that went unanswered (request or
    #: reply dropped); sets how long this one may wait before the next.
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
        retransmit_timeout: Optional[float] = None,
        retry_policy: Optional[RetryPolicy] = None,
        transitive: bool = False,
    ) -> None:
        super().__init__(name)
        self.dc_id = dc_id
        self.maintainers = list(maintainers)
        self.peer_receivers = {dc: list(rs) for dc, rs in peer_receivers.items()}
        self.config = config or PipelineConfig()
        if retry_policy is not None:
            self.retry_policy = retry_policy
        elif retransmit_timeout is not None:
            # Back-compat shorthand: a bare timeout becomes the backoff base.
            self.retry_policy = RetryPolicy(
                base_delay=retransmit_timeout,
                max_delay=retransmit_timeout * 8,
                multiplier=self.config.retransmit_multiplier,
                jitter=self.config.retransmit_jitter,
                max_attempts=1_000_000,
            )
        else:
            self.retry_policy = self.config.retransmit_policy()
        #: Seeded per-sender RNG: jitter stays deterministic across runs.
        self._rng = random.Random(name)
        self._breakers: Dict[DatacenterId, CircuitBreaker] = {
            dc: self._new_breaker() for dc in self.peer_receivers
        }
        #: Transitive shipping (Replicated Dictionary style): forward
        #: records from *any* host, so partial topologies still converge.
        self.transitive = transitive
        self._vector: KnowledgeVector = {}
        self._atable_matrix = None
        #: Fetched-but-not-globally-acked local records per maintainer.
        self._buffer: Dict[str, List[Tuple[int, Record]]] = {m: [] for m in self.maintainers}
        self._fetch_cursor: Dict[str, int] = {m: -1 for m in self.maintainers}
        self._streams: Dict[Tuple[DatacenterId, str], _PeerStream] = {
            (dc, m): _PeerStream()
            for dc in self.peer_receivers
            for m in self.maintainers
        }
        self._ship_seq = itertools.count(1)
        self._receiver_cycle = {
            dc: itertools.cycle(receivers) for dc, receivers in self.peer_receivers.items()
        }
        self._request_ids = itertools.count(1)
        #: At most one fetch in flight per maintainer: overlapping fetches of
        #: one cursor would be read, shipped and dropped remotely several times.
        self._fetches: Dict[str, _Fetch] = {}
        self._last_vector_sent: Dict[DatacenterId, KnowledgeVector] = {}
        self.records_shipped = 0

    # ------------------------------------------------------------------ #

    def add_maintainer(self, name: str) -> None:
        """Elasticity: start shipping a newly added maintainer's records."""
        if name in self.maintainers:
            return
        self.maintainers.append(name)
        self._buffer[name] = []
        self._fetch_cursor[name] = -1
        for dc in self.peer_receivers:
            self._streams[(dc, name)] = _PeerStream()

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
        self._receiver_cycle[dc] = itertools.cycle(receivers)
        self._breakers.setdefault(dc, self._new_breaker())
        for maintainer in self.maintainers:
            self._streams.setdefault((dc, maintainer), _PeerStream())

    def on_start(self) -> None:
        self.set_timer(self.config.replication_interval, self._tick, periodic=True)

    def _tick(self) -> None:
        if not self.peer_receivers:
            return  # single-datacenter deployment: nothing to replicate
        for maintainer in self.maintainers:
            self._fetch(maintainer)
        self._ship_all()
        self._heartbeat_vectors()

    def _fetch(self, maintainer: str) -> None:
        """Pull entries past the fetch cursor, unless a pull is in flight."""
        if len(self._buffer[maintainer]) >= self.config.sender_buffer_limit:
            # High-water mark: stop pulling from the durable log until
            # acks drain the retransmission window.  Records stay in the
            # maintainer's log and the cursor doesn't move, so fetching
            # resumes exactly where it paused once peers catch up.
            return
        attempts = 0
        inflight = self._fetches.get(maintainer)
        if inflight is not None:
            # A negative wait means the clock restarted under us (a respawned
            # worker process): the reply is not coming either.
            waited = self.now - inflight.sent_at
            if 0.0 <= waited < self.retry_policy.delay(inflight.attempts):
                return
            attempts = inflight.attempts + 1  # request or reply was lost
        request_id = next(self._request_ids)
        self._fetches[maintainer] = _Fetch(request_id, self.now, attempts)
        self.send(
            maintainer,
            ReadNewRequest(
                request_id,
                after_lid=self._fetch_cursor[maintainer],
                limit=self.config.replication_batch_limit,
                # Direct mode ships local records only: don't be sent the rest.
                host=None if self.transitive else self.dc_id,
            ),
        )

    def _on_fetched(self, maintainer: str, reply: ReadNewReply) -> None:
        inflight = self._fetches.get(maintainer)
        if inflight is not None and inflight.request_id == reply.request_id:
            del self._fetches[maintainer]
        # A reply to a fetch that was given up on and re-issued overlaps the
        # re-issue's: entries at or below the cursor are buffered already.
        cursor = self._fetch_cursor[maintainer]
        buffer = self._buffer[maintainer]
        for entry in reply.entries:
            if entry.lid <= cursor or entry.record.internal:
                continue
            # Direct mode ships only locally-generated records (external
            # ones reach the peers from their own hosts over the full
            # mesh); transitive mode forwards everything.
            if self.transitive or entry.record.host == self.dc_id:
                buffer.append((entry.lid, entry.record))
        moved = reply.upto > cursor
        if moved:
            self._fetch_cursor[maintainer] = reply.upto
        self._ship_all()
        if moved or reply.entries:
            # The log is moving (if only with other datacenters' records,
            # which a filtered reply leaves out): ask for what arrived
            # meanwhile now rather than at the next tick.
            self._fetch(maintainer)

    def _heartbeat_vectors(self) -> None:
        """Ship a records-free vector update to peers whose view is stale.

        Without this, a datacenter that stops appending would never tell its
        peers what it has incorporated, and garbage collection (which needs
        everyone's knowledge of everyone, §6.1) could stall.
        """
        for dc in self.peer_receivers:
            if self._breakers[dc].state == CircuitBreaker.OPEN:
                continue  # peer is down; shipments will carry the vector later
            if self._vector and self._vector != self._last_vector_sent.get(dc):
                self._last_vector_sent[dc] = dict(self._vector)
                receiver = next(self._receiver_cycle[dc])
                self.send(
                    receiver,
                    ReplicationShipment(
                        from_dc=self.dc_id,
                        sender=self.name,
                        maintainer="__vector__",
                        ship_seq=0,
                        records=[],
                        vector=dict(self._vector),
                        upto_lid=-1,
                        atable=self._atable_matrix,
                    ),
                )

    def on_message(self, sender: str, message: Any) -> None:
        if isinstance(message, ReadNewReply):
            self._on_fetched(sender, message)
        elif isinstance(message, FrontierUpdate):
            for host, toid in message.vector.items():
                if toid > self._vector.get(host, 0):
                    self._vector[host] = toid
        elif isinstance(message, AtableSnapshot):
            self._atable_matrix = message.matrix
        elif isinstance(message, ShipmentAck):
            self._on_ack(message)

    # ------------------------------------------------------------------ #

    def _ship_all(self) -> None:
        for (dc, maintainer), stream in self._streams.items():
            self._ship_one(dc, maintainer, stream)

    def _ship_one(self, dc: DatacenterId, maintainer: str, stream: _PeerStream) -> None:
        breaker = self._breakers[dc]
        if stream.inflight_seq is not None:
            if not stream.timed_out:
                if self.now - stream.sent_at < stream.retry_after:
                    return  # still waiting for the ack
                # The current attempt has timed out: count it exactly once.
                stream.timed_out = True
                breaker.record_failure(self.now)
            if not breaker.allow(self.now):
                return  # peer considered down; buffer and wait for a probe
            stream.attempts += 1
            stream.retry_after = self.retry_policy.delay(stream.attempts, self._rng)
            stream.timed_out = False
            self._transmit(dc, maintainer, stream)  # retransmission / probe
            return
        pending = [
            (lid, record)
            for lid, record in self._buffer[maintainer]
            if lid > stream.acked_upto
        ]
        if not pending:
            return
        if not breaker.allow(self.now):
            return  # don't open new shipments toward a dead peer
        pending = pending[: self.config.replication_batch_limit]
        stream.inflight_seq = next(self._ship_seq)
        stream.attempts = 0
        stream.retry_after = self.retry_policy.delay(0, self._rng)
        stream.timed_out = False
        stream.inflight_upto = pending[-1][0]
        # Never echo a datacenter's own records back to it (transitive mode
        # forwards third-party records only; the filters would drop echoes
        # anyway, this just saves the bandwidth).
        stream.inflight_records = [
            record for _lid, record in pending if record.host != dc
        ]
        self._transmit(dc, maintainer, stream)

    def _transmit(self, dc: DatacenterId, maintainer: str, stream: _PeerStream) -> None:
        receiver = next(self._receiver_cycle[dc])
        stream.sent_at = self.now
        self.send(
            receiver,
            ReplicationShipment(
                from_dc=self.dc_id,
                sender=self.name,
                maintainer=maintainer,
                ship_seq=stream.inflight_seq or 0,
                records=list(stream.inflight_records),
                vector=dict(self._vector),
                upto_lid=stream.inflight_upto,
                atable=self._atable_matrix,
            ),
        )
        self.records_shipped += len(stream.inflight_records)

    def _on_ack(self, ack: ShipmentAck) -> None:
        stream = self._streams.get((ack.from_dc, ack.maintainer))
        if stream is None or stream.inflight_seq != ack.ship_seq:
            return  # stale ack (retransmission already superseded it)
        breaker = self._breakers.get(ack.from_dc)
        if breaker is not None:
            breaker.record_success(self.now)
        stream.acked_upto = max(stream.acked_upto, ack.upto_lid)
        stream.inflight_seq = None
        stream.inflight_records = []
        stream.attempts = 0
        stream.timed_out = False
        self._compact(ack.maintainer)
        self._ship_one(ack.from_dc, ack.maintainer, stream)

    def _compact(self, maintainer: str) -> None:
        """Drop buffered records acknowledged by every peer datacenter."""
        if not self.peer_receivers:
            self._buffer[maintainer] = []
            return
        floor = min(
            self._streams[(dc, maintainer)].acked_upto for dc in self.peer_receivers
        )
        self._buffer[maintainer] = [
            (lid, record) for lid, record in self._buffer[maintainer] if lid > floor
        ]

    # ------------------------------------------------------------------ #

    def buffered_records(self) -> int:
        return sum(len(b) for b in self._buffer.values())
