"""Supervised mode: the parent half of the multiproc exactly-once protocol.

Registering a :class:`~repro.runtime.supervisor.Supervisor` gives
the runtime one :class:`Supervision`, which makes every worker individually
recoverable after a real SIGKILL (or hang).  It is LogPlayer's exactly-once
scheme, sequence numbers plus replay, with outputs group-committed at the
parent:

* **inputs** are stamped with a per-worker delivery number in the envelope
  ``seq`` field and kept (``unacked``) until a snapshot acknowledges them;
* **outputs** carry the worker's dense emission ids and are *parked*
  (``uncommitted``) instead of routed.  At the end of each loop turn that
  delivered an input or emitted a frame, the worker (``_WorkerNode`` in
  :mod:`.worker`) queues a snapshot behind them: a commit marker (input
  ack + last emission id) with the pickled actor state.  TCP FIFO puts the
  marker behind the frames it covers, and only when it is *at* the parent
  are they routed — nothing leaves the parent that a received snapshot
  does not capture;
* **a crash** drops the parked frames (they never happened); the respawn
  restores the latest snapshot and retransmits every unacknowledged input,
  and the replay regenerates the dropped emissions under the same ids.
  Journal-backed actors (log maintainers) are left out of snapshots and
  rebuilt parent-side from their :class:`~repro.flstore.journal.FileJournal`
  through the supervisor's recovery factories.

Detection is socket EOF, exit codes and heartbeat staleness; recovery is
always a respawn from the last snapshot.  What cannot be protected
(retransmit overflow, replay gaps) is counted in the runtime's
``loss_accounting``.  Unsupervised traffic leaves ``seq`` zero and is
forwarded byte-identical, without a copy.
"""

from __future__ import annotations

import pickle
import selectors
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from ...core.errors import SessionError
from ...core.retry import CircuitBreaker, RetryPolicy
from ..actor import Actor
from ..supervisor import Supervisor
from .wire import _SEQ_OFF, _U32, Frame, _wall_clock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from . import MultiprocRuntime

#: Seconds between a supervised worker's heartbeats.  EOF and exit codes
#: catch hard crashes much sooner; heartbeats exist for *hangs*.
HEARTBEAT_INTERVAL = 0.5
#: Seconds without a byte from a worker before it counts as hung.
HEARTBEAT_TIMEOUT = 10.0 * HEARTBEAT_INTERVAL
#: Deadline of a respawned worker's handshake.
SPAWN_TIMEOUT = 10.0
#: Attempts and backoff of one worker respawn.
RESPAWN_RETRY = RetryPolicy(max_attempts=4)
#: Consecutive failed respawns that open a worker's circuit breaker, and
#: the seconds it then waits before allowing one more attempt.
BREAKER_THRESHOLD = 5
BREAKER_COOLDOWN = 1.0

#: Per-worker cap on the bytes the parent buffers for retransmission;
#: overflow drops the oldest frames and counts them in ``loss_accounting``
#: (bounded loss instead of unbounded RAM).
RETRANSMIT_LIMIT_BYTES = 64 << 20


@dataclass(eq=False, slots=True)
class _WorkerSlot:
    """Parent-side supervision state for one worker process."""

    #: Last delivery sequence number assigned to a frame for this worker.
    delivery_seq: int = 0
    #: (seq, frame) pairs newer than the last snapshot-acked input.
    unacked: "deque[Tuple[int, Frame]]" = field(default_factory=deque)
    unacked_bytes: int = 0
    #: Highest input seq covered by a received snapshot.
    acked: int = 0
    #: Highest emission id received from this worker; ids are dense, so the
    #: next sequenced frame must carry exactly ``emission_high + 1``.
    emission_high: int = 0
    #: Parked emissions no received snapshot covers yet, in id order:
    #: (emission id, src, dst, payload view, frame).  The next snapshot
    #: commits (routes) them; a crash drops them.
    uncommitted: "deque[Tuple[int, str, str, memoryview, bytes]]" = field(
        default_factory=deque
    )
    uncommitted_bytes: int = 0
    #: What a respawn restores: {"ack", "emission", "state"} — the latest
    #: snapshot, or the actors as shipped until the first one arrives.
    snapshot: Dict[str, Any] = field(default_factory=dict)
    #: True between failure detection and the start of respawn controls.
    failed: bool = False
    #: True while outbound frames must buffer instead of hitting the socket
    #: (failure window + respawn, until retransmission is queued).
    buffering: bool = False
    down_since: Optional[float] = None
    down_reason: str = ""
    #: Bumped per respawn; in-flight control waits from the previous
    #: connection fail fast instead of timing out.
    epoch: int = 0
    breaker: CircuitBreaker = field(
        default_factory=lambda: CircuitBreaker(BREAKER_THRESHOLD, BREAKER_COOLDOWN)
    )


class Supervision:
    """The parent half of the supervised protocol for every worker of one
    :class:`~repro.runtime.multiproc.MultiprocRuntime`: sequencing and
    keeping inputs, parking and committing outputs, failure detection and
    respawn."""

    def __init__(self, runtime: "MultiprocRuntime", supervisor: Supervisor) -> None:
        self.runtime = runtime
        self.supervisor = supervisor
        self.slots = [_WorkerSlot() for _ in range(runtime.workers)]
        self._recovering = False

    def shipped(self, wid: int, state: bytes) -> None:
        """Worker ``wid`` was loaded with ``state``: keep it as what a
        respawn restores until the worker's first snapshot, and switch the
        worker to supervised mode."""
        self.slots[wid].snapshot = {"ack": 0, "emission": 0, "state": state}
        self._configure(wid, 0, 0)

    def _configure(self, wid: int, delivered: int, emission: int) -> None:
        journaled = sorted(
            name
            for name, home in self.runtime._location.items()
            if home == wid and self.supervisor.is_journaled(name)
        )
        self.runtime._control(
            wid,
            {
                "op": "configure",
                "journaled": journaled,
                "delivered": delivered,
                "emission": emission,
            },
        )

    # -- inputs and outputs ------------------------------------------------ #

    def _admit_frame(self, wid: int, frame: Frame) -> None:
        """Stamp ``frame`` with worker ``wid``'s next delivery number, keep
        it for retransmission, and queue it unless the worker is down."""
        slot = self.slots[wid]
        slot.delivery_seq += 1
        # The one copy of the supervised path: the caller's frame may be
        # shared or immutable, the patched buffer is queued and kept for
        # retransmission as it is.
        frame = bytearray(frame)
        _U32.pack_into(frame, _SEQ_OFF, slot.delivery_seq)
        slot.unacked.append((slot.delivery_seq, frame))
        slot.unacked_bytes += len(frame)
        loss = self.runtime._losses
        while slot.unacked_bytes > RETRANSMIT_LIMIT_BYTES and slot.unacked:
            _d, old = slot.unacked.popleft()
            slot.unacked_bytes -= len(old)
            loss["retransmit_overflow_frames"] += 1
            loss["retransmit_overflow_bytes"] += len(old)
        if not slot.buffering:
            self.runtime._conns[wid].queue(frame)

    def _park(
        self, wid: int, seq: int, src: str, dst: str, payload: memoryview, frame: bytes
    ) -> None:
        """Hold worker ``wid``'s emission ``seq`` until a snapshot covering
        it is here (:meth:`_on_snapshot`).  Ids are dense: a live worker
        counts up by one and a respawned one resumes at its snapshot's id."""
        slot = self.slots[wid]
        if seq != slot.emission_high + 1:
            raise SessionError(
                f"worker {wid} emission {seq} after {slot.emission_high}: "
                "ids must be dense"
            )
        slot.emission_high = seq
        slot.uncommitted.append((seq, src, dst, payload, frame))
        slot.uncommitted_bytes += len(frame)
        if slot.uncommitted_bytes > self.runtime.uncommitted_peak_bytes:
            self.runtime.uncommitted_peak_bytes = slot.uncommitted_bytes

    def _on_snapshot(self, wid: int, snap: Dict[str, Any]) -> None:
        """Record a worker snapshot, trim its retransmit buffer — every
        input frame the snapshot acknowledges is now recoverable from the
        snapshot itself and never needs retransmission — and commit its
        outputs: the parked emissions it covers are routed, in id order."""
        slot = self.slots[wid]
        slot.snapshot = snap
        ack = int(snap["ack"])
        unacked = slot.unacked
        while unacked and unacked[0][0] <= ack:
            _d, old = unacked.popleft()
            slot.unacked_bytes -= len(old)
        slot.acked = ack
        emission = int(snap["emission"])
        uncommitted = slot.uncommitted
        while uncommitted and uncommitted[0][0] <= emission:
            _e, src, dst, payload, frame = uncommitted.popleft()
            slot.uncommitted_bytes -= len(frame)
            self.runtime._forward(src, dst, payload, frame)

    # -- detection and respawn --------------------------------------------- #

    def check_workers(self) -> int:
        """Detect dead/hung workers and respawn them; returns respawns."""
        if self._recovering:
            return 0  # re-entered from a nested pump during a respawn
        self._detect_failures()
        restarted = 0
        self._recovering = True
        try:
            for wid, slot in enumerate(self.slots):
                if slot.failed:
                    self._respawn_worker(wid)
                    restarted += 1
        finally:
            self._recovering = False
        return restarted

    def _detect_failures(self) -> None:
        now = _wall_clock()
        for wid, slot in enumerate(self.slots):
            if slot.failed:
                continue
            proc = self.runtime._procs[wid]
            conn = self.runtime._conns[wid]
            reason = None
            if proc.exitcode is not None:
                reason = f"exit code {proc.exitcode}"
            elif conn.closed:
                reason = "socket closed"
            elif now - conn.heard_at > HEARTBEAT_TIMEOUT:
                reason = f"no heartbeat for {now - conn.heard_at:.2f}s"
            if reason is not None:
                self._mark_worker_down(wid, reason)

    def _mark_worker_down(self, wid: int, reason: str) -> None:
        slot = self.slots[wid]
        if slot.failed:
            return
        slot.failed = True
        slot.buffering = True
        # No snapshot at the parent covers the parked emissions, so they
        # never happened: the replay from ``ack + 1`` regenerates them.
        slot.uncommitted.clear()
        slot.uncommitted_bytes = 0
        slot.down_reason = reason
        if slot.down_since is None:
            slot.down_since = _wall_clock()
        conn = self.runtime._conns[wid]
        selector = self.runtime._selector
        if selector is not None:
            try:
                selector.unregister(conn.sock)
            except (KeyError, ValueError, OSError):
                pass
        conn.close()

    def _respawn_worker(self, wid: int) -> None:
        """Respawn worker ``wid`` through :data:`RESPAWN_RETRY` and its
        circuit breaker, then report the recovery to the supervisor."""
        slot = self.slots[wid]
        detected = slot.down_since if slot.down_since is not None else _wall_clock()
        attempt = 0
        while True:
            if not slot.breaker.allow(_wall_clock()):
                raise SessionError(
                    f"worker {wid} circuit open after repeated respawn failures "
                    f"(last reason: {slot.down_reason})"
                )
            try:
                self._respawn_once(wid)
                slot.breaker.record_success(_wall_clock())
                break
            except SessionError as exc:
                slot.breaker.record_failure(_wall_clock())
                self._mark_worker_down(wid, f"respawn attempt failed: {exc}")
                attempt += 1
                if attempt >= RESPAWN_RETRY.max_attempts:
                    raise SessionError(
                        f"worker {wid} respawn failed after {attempt} attempts: {exc}"
                    )
                time.sleep(RESPAWN_RETRY.delay(attempt - 1))
        self.supervisor.record_recovery(
            worker=wid,
            detected=detected,
            recovered=_wall_clock(),
            replayed=len(slot.unacked),
            reason=slot.down_reason,
        )
        slot.down_since = None
        slot.down_reason = ""

    def _respawn_once(self, wid: int) -> None:
        """Kill/reap the old process, spawn a fresh one, restore the latest
        snapshot (journal-backed actors rebuilt from disk), and retransmit
        every unacknowledged input frame."""
        runtime = self.runtime
        slot = self.slots[wid]
        # Reap the old process with prejudice: SIGKILL leaves no split-brain
        # twin half-processing frames while the replacement starts.  Its
        # connection was closed when it was marked down.
        old_proc = runtime._procs[wid]
        try:
            if old_proc.is_alive():
                old_proc.kill()
            old_proc.join(5.0)
        except (OSError, ValueError):
            pass
        procs, conns = runtime._spawn([wid], SPAWN_TIMEOUT)
        conn = conns[wid]
        runtime._procs[wid] = procs[wid]
        runtime._conns[wid] = conn
        assert runtime._selector is not None
        runtime._selector.register(conn.sock, selectors.EVENT_READ, conn)
        slot.epoch += 1
        slot.failed = False  # controls may flow; data frames still buffer
        snap = slot.snapshot
        # Journal-backed actors: rebuild parent-side by replaying the
        # on-disk journal, keep the replacement as the parent shadow, and
        # ship it alongside the snapshot state.
        recovered: Dict[str, Actor] = {}
        for name, home in runtime._location.items():
            if home == wid and self.supervisor.is_journaled(name):
                replacement = self.supervisor.build_replacement(name)
                replacement.runtime = None
                recovered[name] = replacement
        jblob = pickle.dumps(recovered, protocol=pickle.HIGHEST_PROTOCOL) if recovered else None
        runtime._control(wid, {"op": "restore", "state": snap["state"], "journaled": jblob})
        for name, replacement in recovered.items():
            replacement.runtime = runtime
            runtime._actors[name] = replacement
        ack = snap["ack"]
        emission = snap["emission"]
        # Exactly the emissions up to the snapshot's were routed; the
        # replacement numbers its own from there.
        slot.emission_high = emission
        self._configure(wid, ack, emission)
        runtime._control(wid, {"op": "start"})
        # Bounded loss: if overflow trimmed frames the snapshot never
        # covered, the replay has a gap — count it instead of hiding it.
        if slot.unacked:
            first = slot.unacked[0][0]
            if first > ack + 1:
                runtime._losses["replay_gap_frames"] += first - ack - 1
        for _d, frame in slot.unacked:
            conn.queue(frame)
        slot.buffering = False
