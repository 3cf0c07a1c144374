"""The worker process: a real-time timer loop and the node that hosts actors.

:func:`_worker_main` is the spawned process's entry point: it connects
back to the parent, says hello, and runs a :class:`_WorkerNode` until the
parent stops it or the socket closes.  The parent drives the node with
control frames (``restore``, ``configure``, ``start``, ``fetch_many``,
``peek``, ``drain``, ``stop``).
"""

from __future__ import annotations

import gc
import heapq
import itertools
import pickle
import selectors
import socket
import sys
import traceback
from collections import deque
from typing import Any, Callable, Dict, List, Set, Tuple

from ...net.binary_codec import decode_value_binary, encode_value_binary
from ..actor import Actor
from ..local import BaseRuntime
from ..loop import EventHandle
from .supervision import HEARTBEAT_INTERVAL
from .wire import (
    _K_CTRL,
    _K_MSG,
    _K_REPLY,
    _envelope,
    _FrameConn,
    _parse_envelope,
    _turn,
    _wall_clock,
)


class _RealtimeLoop:
    """Monotonic-clock timer heap exposing the ``EventLoop`` subset actors
    use (``now`` + ``schedule``); shared by the parent and the workers."""

    def __init__(self) -> None:
        self._epoch = _wall_clock()
        self._heap: List[Tuple[float, int, EventHandle]] = []
        self._seq = itertools.count()

    @property
    def now(self) -> float:
        return _wall_clock() - self._epoch

    def schedule(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        handle = EventHandle(self.now + max(0.0, delay), next(self._seq), callback)
        heapq.heappush(self._heap, (handle.time, handle.seq, handle))
        return handle

    def fire_due(self) -> int:
        fired = 0
        while self._heap and self._heap[0][0] <= self.now:
            handle = heapq.heappop(self._heap)[2]
            if not handle.cancelled:
                handle.callback()
                fired += 1
        return fired

    def seconds_to_next(self, default: float) -> float:
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
        if not self._heap:
            return default
        return max(0.0, self._heap[0][0] - self.now)


def _format_error(exc: BaseException) -> str:
    """The full traceback of ``exc``, for error replies to the parent."""
    return "".join(
        traceback.format_exception(type(exc), exc, exc.__traceback__)
    )


class _WorkerNode(BaseRuntime):
    """The runtime surface inside one worker process; the parent drives it
    through control frames, so its own loop (:meth:`run`) replaces
    ``run_for`` / ``run_until``.

    Local destinations deliver in-process (same semantics as the parent's
    pending queue); everything else is encoded once and sent to the router.

    Under supervision the node is the worker half of the group commit
    described in :mod:`.supervision`: a remote send is stamped with the
    next emission id and queued to the socket at once (the parent parks
    it), and at the end of a loop turn that delivered an input or emitted a
    frame :meth:`_commit` sends a snapshot — input ack, last emission id,
    pickled actor state (journal-backed actors excluded) — behind them.
    Per TCP FIFO the snapshot reaches the parent after every frame it
    covers, and the parent routes nothing a snapshot it holds does not
    cover.
    """

    #: Longest idle wait of the loop (seconds).
    _IDLE_WAIT = 0.05

    loop: _RealtimeLoop

    def __init__(self, worker_id: int, sock: socket.socket) -> None:
        super().__init__()
        self.worker_id = worker_id
        self.loop = _RealtimeLoop()
        self.conn = _FrameConn(sock)
        self._pending: "deque[Tuple[str, str, Any]]" = deque()
        self._stopping = False
        # -- supervision state (set by the "configure" control op) ---------
        self._supervised = False
        self._journaled: Set[str] = set()
        #: Highest input delivery seq dispatched (strict: lower = duplicate).
        self._delivered_seq = 0
        #: Last emission id assigned to an outbound frame.
        self._emission = 0
        #: (ack, emission) of the last snapshot, and what :meth:`_commit`
        #: paces the next one by: the ``frames_sent`` count at which that
        #: snapshot's frame has left the outbound queue, and the time its
        #: capture finished plus what the capture took.
        self._last_snap = (0, 0)
        self._snap_sent_at = 0
        self._next_capture_at = 0.0

    def send(self, src: str, dst: str, message: Any) -> None:
        if dst in self._actors:
            self._pending.append((src, dst, message))
            return
        payload = encode_value_binary(message)
        if self._supervised:
            self._emission += 1
            self.conn.queue(_envelope(_K_MSG, src, dst, payload, seq=self._emission))
        else:
            self.conn.queue(_envelope(_K_MSG, src, dst, payload))

    def _reply(self, payload: Dict[str, Any]) -> None:
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        self.conn.queue(_envelope(_K_REPLY, "", "", blob))

    def _handle_control(self, ctrl: Dict[str, Any]) -> None:
        op = ctrl["op"]
        value: Any = None
        try:
            if op == "restore":
                # Replace the world: the actors as shipped or as last
                # snapshotted, plus journal-recovered actors from the parent.
                world: Dict[str, Actor] = pickle.loads(ctrl["state"])
                jblob = ctrl.get("journaled")
                if jblob is not None:
                    # Journal replacements override any stale copy.
                    world.update(pickle.loads(jblob))
                self._actors.clear()
                self._pending.clear()
                self._started = False
                self.register_all(world.values())
            elif op == "configure":
                self._supervised = True
                self._journaled = set(ctrl["journaled"])
                self._delivered_seq = int(ctrl["delivered"])
                self._emission = int(ctrl["emission"])
                self._last_snap = (self._delivered_seq, self._emission)
            elif op == "start":
                if not self._started:
                    self.start()
                    if self._supervised:
                        self._arm_supervision()
            elif op == "fetch_many":
                value = self._pickle_detached(list(ctrl["names"]))
            elif op == "peek":
                value = ctrl["fn"](self._actors[ctrl["name"]])
            elif op == "drain":
                # Force a snapshot (which first drains local pending work);
                # the reply rides behind it in FIFO order, so the parent's
                # ack is current when it arrives.
                self._snapshot()
            elif op == "stop":
                if self._supervised:
                    self._snapshot()
                self._stopping = True
            else:
                raise ValueError(f"unknown control op {op!r}")
        except Exception as exc:  # noqa: BLE001 - reported to the parent
            self._reply({"seq": ctrl["seq"], "error": _format_error(exc)})
            return
        self._reply({"seq": ctrl["seq"], "value": value})

    def _arm_supervision(self) -> None:
        def heartbeat() -> None:
            self._reply({"heartbeat": self.worker_id})
            self.loop.schedule(HEARTBEAT_INTERVAL, heartbeat)

        # Baseline snapshot straight away: a worker that dies before any
        # traffic is restorable to its exact post-start state.
        self._snapshot()
        self.loop.schedule(HEARTBEAT_INTERVAL, heartbeat)

    def _commit(self) -> float:
        """Group commit, once per loop turn: snapshot when the turn delivered
        an input or emitted a frame, unless the previous snapshot's frame is
        still queued here or its capture cost has not elapsed again (a duty
        cycle of at most one half).  Returns how long the loop may idle: up
        to the moment a commit put off by the duty cycle falls due (one put
        off by a queued frame wakes the loop through socket writability)."""
        if (
            (self._delivered_seq, self._emission) != self._last_snap
            and self.conn.frames_sent >= self._snap_sent_at
        ):
            due = self._next_capture_at - _wall_clock()
            if due > 0.0:
                return min(due, self._IDLE_WAIT)
            self._snapshot()
        return self._IDLE_WAIT

    def _snapshot(self) -> None:
        """Capture (input ack, last emission id, actor state) and queue it
        to the parent behind every frame emitted so far."""
        # In-flight local messages are part of the state; settle them first
        # so the pickled actors are not mid-conversation.
        while self._pending:
            src, dst, message = self._pending.popleft()
            self._dispatch_safely(src, dst, message)
        started = _wall_clock()
        names = [name for name in self._actors if name not in self._journaled]
        snap = {
            "ack": self._delivered_seq,
            "emission": self._emission,
            "state": self._pickle_detached(names),
        }
        self._reply({"snapshot": snap})
        self._last_snap = (self._delivered_seq, self._emission)
        self._snap_sent_at = self.conn.frames_sent + len(self.conn.outbound)
        done = _wall_clock()
        self._next_capture_at = done + (done - started)

    def _pickle_detached(self, names: List[str]) -> bytes:
        """Pickle ``{name: actor}`` with runtimes stripped (one blob, so
        objects shared between co-located actors stay shared)."""
        actors = {name: self._actors[name] for name in names}
        saved = {name: actor.runtime for name, actor in actors.items()}
        for actor in actors.values():
            actor.runtime = None
        try:
            return pickle.dumps(actors, protocol=pickle.HIGHEST_PROTOCOL)
        finally:
            for name, actor in actors.items():
                actor.runtime = saved[name]

    def _deliver(self, src: str, dst: str, message: Any) -> None:
        actor = self._actors.get(dst)
        if actor is None:
            self._reply({"worker_error": f"worker {self.worker_id} has no actor {dst!r}"})
            return
        actor.on_message(src, message)

    def run(self) -> None:
        selector = selectors.DefaultSelector()
        selector.register(self.conn.sock, selectors.EVENT_READ, self.conn)
        conns = [self.conn]
        try:
            while not self._stopping:
                while self._pending:
                    src, dst, message = self._pending.popleft()
                    self._dispatch_safely(src, dst, message)
                self.loop.fire_due()
                idle = self._commit() if self._supervised else self._IDLE_WAIT
                wait = (
                    0.0
                    if self._pending
                    else min(idle, self.loop.seconds_to_next(idle))
                )
                _turn(selector, conns, wait, self._on_ready)
                if self.conn.closed:
                    break
            # Final flush so stop-acks and late sends reach the parent.
            deadline = _wall_clock() + 2.0
            while self.conn.wants_write and _wall_clock() < deadline:
                self.conn.flush()
        finally:
            selector.close()
            self.conn.close()

    def _on_ready(self, _conn: _FrameConn, frames: List[bytes]) -> None:
        for frame in frames:
            self._on_frame(frame)

    def _on_frame(self, frame: bytes) -> None:
        kind, seq, src, dst, payload = _parse_envelope(memoryview(frame)[4:])
        if kind == _K_CTRL:
            self._handle_control(pickle.loads(bytes(payload)))
            return
        if kind != _K_MSG:
            self._reply({"worker_error": f"worker got frame kind {kind}"})
            return
        if seq:
            if seq <= self._delivered_seq:
                return  # retransmitted duplicate after a parent replay
            self._delivered_seq = seq
        self._dispatch_safely(src, dst, decode_value_binary(payload))

    def _dispatch_safely(self, src: str, dst: str, message: Any) -> None:
        try:
            self._deliver(src, dst, message)
        except Exception as exc:  # noqa: BLE001 - reported to the parent
            self._reply(
                {
                    "worker_error": (
                        f"worker {self.worker_id} dispatch to {dst!r} failed:\n"
                        + _format_error(exc)
                    )
                }
            )


def _worker_main(worker_id: int, host: str, port: int) -> None:
    # Workers are ingest loops: they allocate records at a high rate and
    # most survive into long-lived log storage, the worst case for CPython's
    # default generational thresholds (every young collection promotes, and
    # full collections rescan the ever-growing store).  Records and frames
    # are acyclic, so raising the thresholds trades nothing but peak cycle
    # latency for a large steady-state throughput win.
    gc.set_threshold(200_000, 100, 100)
    sock = socket.create_connection((host, port), timeout=30.0)
    hello = pickle.dumps({"hello": worker_id}, protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(_envelope(_K_REPLY, "", "", hello))
    node = _WorkerNode(worker_id, sock)
    try:
        node.run()
    except Exception:  # noqa: BLE001 - last-ditch crash report
        sys.stderr.write(
            f"[repro-mp-worker-{worker_id}] crashed:\n{traceback.format_exc()}"
        )
        sys.stderr.flush()
        raise
