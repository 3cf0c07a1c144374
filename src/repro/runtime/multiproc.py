"""Multi-process runtime: one OS process per stage group, sockets between.

Every other runtime in this repo hosts all actors inside one Python
process, so the GIL caps pipeline throughput no matter how many stages a
deployment declares.  :class:`MultiprocRuntime` places actors in worker
processes (``multiprocessing`` spawn) connected to the parent by localhost
TCP sockets; the parent is the message **router** and the home of
control-plane actors (clients, controllers, GC, load generators).

The wire is the packed binary codec end to end.  A routed frame carries an
envelope the router can parse *without touching the payload*::

    u32 total_len || 0xC6 || kind || u32 seq || u16 dst_len || dst ||
    u16 src_len || src || payload

so a worker→worker message is forwarded as raw bytes — the only processes
that ever decode a payload are the sender and the final receiver.  Combined
with the lazy ``RecordBatch`` frame (:mod:`repro.net.binary_codec`) a batch
crosses the whole deployment without per-record object churn until the
destination maintainer materialises it into the bulk-append fast path.

Semantics versus the single-process runtimes:

* the same :class:`~repro.runtime.actor.Actor` model runs unchanged —
  ``send``, ``set_timer`` (real time), ``on_start``;
* actors are **pickled** into their worker at :meth:`start`; the parent
  keeps shadow copies for introspection, refreshed on demand with
  :meth:`refresh_actors` (and before every ``settle`` check), while
  :meth:`peek` evaluates a probe where the actor lives;
* delivery order is FIFO per connection, but cross-process interleaving is
  wall-clock real time — *not* deterministic.  The deterministic runtimes
  stay the test substrate; equivalence with them is anchored by
  ``tests/test_runtime_contract.py``.

Process-level fault tolerance
-----------------------------

Registering a :class:`~repro.runtime.supervisor.ProcessSupervisor` switches
the runtime into **supervised** mode, which makes every worker individually
recoverable after a real SIGKILL (or hang), at the cost of one frame copy
per routed frame and one state snapshot per worker turn that did work:

* the envelope ``seq`` field carries a parent-assigned per-worker delivery
  sequence number (parent→worker) and a worker-assigned emission id
  (worker→parent); unsupervised traffic leaves it zero and keeps the
  zero-copy forwarding path byte-identical to before;
* outputs are **group-committed at the parent**: a worker streams every
  emission to the socket as it is produced, and the parent *parks* it
  (``uncommitted``) instead of routing it.  At the end of each loop turn
  that delivered an input or emitted a frame the worker sends a snapshot —
  a commit marker (input ack + last emission id) with the pickled actor
  state — and only when that marker is *at* the parent are the parked
  frames it covers routed.  TCP FIFO puts the marker behind the frames it
  covers, so nothing leaves the parent that a received snapshot does not
  capture; each frame crosses the socket once and a snapshot's size never
  depends on what was emitted.  After a crash the parent drops the parked
  frames, restores the latest snapshot and retransmits every
  unacknowledged input frame from its per-worker buffer — the replay
  regenerates the dropped emissions under the same (dense) ids;
* commit cadence is self-limiting, not set: a worker commits when there is
  something to commit, its previous snapshot frame has left its outbound
  queue, and the previous capture's own cost has elapsed again — so
  capturing state never takes more than half a worker's wall time,
  however large the state;
* journal-backed actors (log maintainers) are excluded from snapshots and
  rebuilt parent-side from their :class:`~repro.flstore.journal.FileJournal`
  via the supervisor's recovery factories — their writes are durable the
  moment they happen and replay is idempotent;
* crash/hang detection is socket EOF + exit-code reaping + heartbeat
  staleness; respawn is driven by the shared
  :class:`~repro.core.retry.RetryPolicy` and a per-worker
  :class:`~repro.core.retry.CircuitBreaker`;
* :meth:`restart_worker` is the planned (elasticity) path: it drains the
  worker's queues to a clean snapshot first, and when it cannot, the loss
  is bounded and counted in :attr:`loss_accounting`.

Faults come from the one plan every runtime takes (``chaos``, a
:class:`~repro.chaos.plan.FaultPlan`, applied by
:class:`~repro.runtime.local.BaseRuntime`).  Its kills SIGKILL worker
processes at the scheduled times (counted in ``plan.stats
["workers_killed"]``), which the machinery above recovers from.  Its
drop / delay / duplicate / reorder rules and partitions apply once per
message that crosses the parent router — in :meth:`MultiprocRuntime.send`
and where a worker's frame is forwarded — keyed by the envelope's source
and destination; a message between two actors of one worker never reaches
the router and is not faulted.  Crash events and ``message_type`` rules are
refused at :meth:`MultiprocRuntime.start`: a whole worker dies, not one
actor, and worker frames are routed without being decoded.
"""

from __future__ import annotations

import gc
import heapq
import itertools
import pickle
import selectors
import socket
import struct
import sys
import time
import traceback
from collections import Counter, deque
from multiprocessing import get_context
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
    TYPE_CHECKING,
    Union,
)
from zlib import crc32

from ..core.errors import ConfigurationError, RuntimeExhaustedError, SessionError
from ..core.retry import CircuitBreaker
from .actor import Actor
from .local import BaseRuntime
from .supervisor import ProcessSupervisor

# The codec lives in net/, which never imports this module back.
from ..net.binary_codec import decode_value_binary, encode_value_binary

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..chaos.plan import FaultPlan

#: First byte of every multiproc envelope body (binary codec frames start
#: with 0xC5 — the router does not speak those directly).
ENVELOPE_MAGIC = 0xC6

_K_MSG = 0  # routed actor message
_K_CTRL = 1  # parent → worker control (pickled dict)
_K_REPLY = 2  # worker → parent control reply (pickled dict)


def _wall_clock() -> float:
    """This runtime is real time by design, like ``net/aio_runtime``: OS
    processes and sockets do not replay from a seed, so deadlines and the
    timer loop read the monotonic clock rather than a simulated one."""
    return time.monotonic()  # chariots: noqa=CHR003 - real-time runtime


def _format_error(exc: BaseException) -> str:
    """The full traceback of ``exc``, for error replies to the parent."""
    return "".join(
        traceback.format_exception(type(exc), exc, exc.__traceback__)
    )


_U32 = struct.Struct(">I")
_HDR = struct.Struct(">IBBIH")  # total_len, magic, kind, seq, dst_len

#: Byte offset of the envelope ``seq`` field within a full frame (i.e. the
#: u32 length prefix, then magic + kind).  Supervised forwarding patches a
#: per-worker delivery sequence number in place at this offset.
_SEQ_OFF = 6

#: Hard sanity cap per routed frame (matches net/protocol.py).
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Per-worker cap on the bytes a supervised parent buffers for
#: retransmission; overflow drops the oldest frames and counts them in
#: ``loss_accounting`` (bounded loss instead of unbounded RAM).
RETRANSMIT_LIMIT_BYTES = 64 << 20

#: A complete wire frame.  Frames read off a socket or built by
#: :func:`_envelope` are immutable ``bytes``; the supervised parent queues
#: the ``bytearray`` it patched the delivery ``seq`` into, uncopied.
Frame = Union[bytes, bytearray]

#: Name fragments that mark data-plane actors: these are spread across the
#: worker processes by the default placement policy.  Everything else
#: (clients, controllers, gc, supervisors, load generators, sinks) stays in
#: the parent, where synchronous drivers can reach it.
DATA_PLANE_MARKERS: Tuple[str, ...] = (
    "store",
    "maintainer",
    "indexer",
    "batcher",
    "filter",
    "queue",
    "sender",
    "receiver",
)


def default_placement(name: str, workers: int) -> Optional[int]:
    """Spread data-plane actors across workers by a stable name hash."""
    if workers <= 0:
        return None
    lowered = name.lower()
    if any(marker in lowered for marker in DATA_PLANE_MARKERS):
        return crc32(name.encode("utf-8")) % workers
    return None


def _envelope(kind: int, src: str, dst: str, payload: bytes, seq: int = 0) -> bytes:
    dst_b = dst.encode("utf-8")
    src_b = src.encode("utf-8")
    body_len = 2 + 4 + 2 + len(dst_b) + 2 + len(src_b) + len(payload)
    if body_len > MAX_FRAME_BYTES:
        raise SessionError(f"frame of {body_len} bytes exceeds MAX_FRAME_BYTES")
    out = bytearray(_HDR.pack(body_len, ENVELOPE_MAGIC, kind, seq, len(dst_b)))
    out += dst_b
    out += len(src_b).to_bytes(2, "big")
    out += src_b
    out += payload
    return bytes(out)


def _parse_envelope(body: memoryview) -> Tuple[int, int, str, str, memoryview]:
    """(kind, seq, src, dst, payload_view); ``body`` excludes the length
    prefix.  ``seq`` is 0 for unsequenced (unsupervised) frames."""
    if len(body) < 10 or body[0] != ENVELOPE_MAGIC:
        raise SessionError("malformed multiproc envelope")
    kind = body[1]
    seq = (body[2] << 24) | (body[3] << 16) | (body[4] << 8) | body[5]
    dst_len = (body[6] << 8) | body[7]
    pos = 8 + dst_len
    dst = bytes(body[8:pos]).decode("utf-8")
    src_len = (body[pos] << 8) | body[pos + 1]
    pos += 2
    src = bytes(body[pos : pos + src_len]).decode("utf-8")
    pos += src_len
    return kind, seq, src, dst, body[pos:]


class _TimerHandle:
    """Cancellable handle matching the EventLoop handle surface."""

    __slots__ = ("cancelled",)

    def __init__(self) -> None:
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class _RealtimeLoop:
    """Monotonic-clock timer heap exposing the ``EventLoop`` subset actors
    use (``now`` + ``schedule``); shared by the parent and the workers."""

    def __init__(self) -> None:
        self._epoch = _wall_clock()
        self._heap: List[Tuple[float, int, _TimerHandle, Callable[[], None]]] = []
        self._seq = itertools.count()

    @property
    def now(self) -> float:
        return _wall_clock() - self._epoch

    def schedule(self, delay: float, callback: Callable[[], None]) -> _TimerHandle:
        handle = _TimerHandle()
        heapq.heappush(
            self._heap,
            (self.now + max(0.0, delay), next(self._seq), handle, callback),
        )
        return handle

    def fire_due(self) -> int:
        fired = 0
        while self._heap and self._heap[0][0] <= self.now:
            _at, _seq, handle, callback = heapq.heappop(self._heap)
            if not handle.cancelled:
                callback()
                fired += 1
        return fired

    def seconds_to_next(self, default: float) -> float:
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
        if not self._heap:
            return default
        return max(0.0, self._heap[0][0] - self.now)


class _FrameConn:
    """Non-blocking socket with frame reassembly and an outbound queue."""

    def __init__(self, sock: socket.socket, wid: int = -1) -> None:
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        #: Worker index on the parent side (-1 inside workers) — lets the
        #: router attribute inbound frames to their source worker.
        self.wid = wid
        self.rbuf = bytearray()
        self.outbound: "deque[Frame]" = deque()
        self._out_off = 0
        #: Frames written out in full — with ``len(outbound)`` this places a
        #: queued frame, so its owner can tell when it has left the queue.
        self.frames_sent = 0
        self.closed = False

    def queue(self, frame: Frame) -> None:
        self.outbound.append(frame)

    @property
    def wants_write(self) -> bool:
        return bool(self.outbound)

    def flush(self) -> None:
        """Write queued frames until the socket would block."""
        while self.outbound:
            head = self.outbound[0]
            try:
                sent = self.sock.send(
                    memoryview(head)[self._out_off :] if self._out_off else head
                )
            except BlockingIOError:
                return
            except (BrokenPipeError, ConnectionResetError, OSError):
                # Peer hung up (e.g. a worker that already acked its stop);
                # drop the backlog — disconnect detection happens on read.
                self.closed = True
                self.outbound.clear()
                self._out_off = 0
                return
            self._out_off += sent
            if self._out_off >= len(head):
                self.outbound.popleft()
                self._out_off = 0
                self.frames_sent += 1

    #: Per-pass read budget.  Leaving the rest in the kernel buffer closes
    #: the TCP window once it fills, so a sender blasting bulk frames is
    #: throttled to the receiver's processing rate instead of ballooning
    #: ``rbuf`` tens of megabytes ahead of the actors.
    READ_BUDGET = 4 << 20

    def read_frames(self) -> List[bytes]:
        """Read up to :data:`READ_BUDGET` bytes; return complete frames
        (length prefix included)."""
        taken = 0
        try:
            while taken < self.READ_BUDGET:
                chunk = self.sock.recv(1 << 20)
                if not chunk:
                    self.closed = True
                    break
                self.rbuf += chunk
                taken += len(chunk)
                if len(chunk) < (1 << 20):
                    break
        except BlockingIOError:
            pass
        except (ConnectionResetError, OSError):
            self.closed = True
        frames: List[bytes] = []
        buf = self.rbuf
        pos = 0
        while len(buf) - pos >= 4:
            (n,) = _U32.unpack_from(buf, pos)
            if n > MAX_FRAME_BYTES:
                raise SessionError(f"oversized frame announced ({n} bytes)")
            if len(buf) - pos < 4 + n:
                break
            frames.append(bytes(buf[pos : pos + 4 + n]))
            pos += 4 + n
        if pos:
            del buf[:pos]
        return frames

    def close(self) -> None:
        self.closed = True
        try:
            self.sock.close()
        except OSError:
            pass


def _strip_runtime(actors: Iterable[Actor]) -> List[Actor]:
    for actor in actors:
        actor.runtime = None
    return list(actors)


class _WorkerSlot:
    """Parent-side supervision state for one worker process."""

    __slots__ = (
        "delivery_seq",
        "unacked",
        "unacked_bytes",
        "acked",
        "emission_high",
        "uncommitted",
        "uncommitted_bytes",
        "snapshot",
        "last_heartbeat",
        "failed",
        "buffering",
        "down_since",
        "down_reason",
        "epoch",
    )

    def __init__(self) -> None:
        #: Last delivery sequence number assigned to a frame for this worker.
        self.delivery_seq = 0
        #: (seq, frame) pairs newer than the last snapshot-acked input.
        self.unacked: "deque[Tuple[int, Frame]]" = deque()
        self.unacked_bytes = 0
        #: Highest input seq covered by a received snapshot.
        self.acked = 0
        #: Highest emission id received from this worker; ids are dense, so
        #: the next sequenced frame must carry exactly ``emission_high + 1``.
        self.emission_high = 0
        #: Parked emissions no received snapshot covers yet, in id order:
        #: (emission id, src, dst, payload view, frame).  The next snapshot
        #: commits (routes) them; a crash drops them.
        self.uncommitted: "deque[Tuple[int, str, str, memoryview, bytes]]" = deque()
        self.uncommitted_bytes = 0
        #: Latest snapshot: {"ack", "emission", "state"} or None.
        self.snapshot: Optional[Dict[str, Any]] = None
        self.last_heartbeat = 0.0
        #: True between failure detection and the start of respawn controls.
        self.failed = False
        #: True while outbound frames must buffer instead of hitting the
        #: socket (failure window + respawn, until retransmission is queued).
        self.buffering = False
        self.down_since: Optional[float] = None
        self.down_reason = ""
        #: Bumped per respawn; in-flight control waits from the previous
        #: connection fail fast instead of timing out.
        self.epoch = 0


class MultiprocRuntime(BaseRuntime):
    """Actor runtime spanning OS processes; the parent routes messages.

    ``workers=0`` is the inline mode: everything runs in the parent but
    messages still pay the full envelope + binary-codec round trip — the
    fair single-process baseline for the multiproc benchmarks.

    ``placement(name, workers) -> Optional[int]`` decides each pre-start
    actor's home (``None`` = parent); the default spreads data-plane stage
    names across workers.  Actors registered after :meth:`start` always
    live in the parent.

    ``chaos`` is a :class:`~repro.chaos.plan.FaultPlan` (see the module
    docstring for what applies where).  Surviving its kills requires a
    registered :class:`~repro.runtime.supervisor.ProcessSupervisor`;
    without one a killed worker surfaces as a :class:`SessionError`,
    exactly like any other worker death.
    """

    loop: _RealtimeLoop

    def __init__(
        self,
        workers: int = 2,
        placement: Optional[Callable[[str, int], Optional[int]]] = None,
        host: str = "127.0.0.1",
        chaos: Optional["FaultPlan"] = None,
    ) -> None:
        if workers < 0:
            raise ConfigurationError("workers must be >= 0")
        super().__init__(chaos)
        self.workers = workers
        self.loop = _RealtimeLoop()
        self._placement_fn = placement or default_placement
        self._host = host
        self._location: Dict[str, Optional[int]] = {}
        #: False until :meth:`start` has loaded and started every worker:
        #: until then the pump runs no parent-side timer or delivery, so
        #: nothing reaches a worker ahead of its actors.
        self._serving = False
        self._stopped = False
        self._procs: List[Any] = []
        self._conns: List[_FrameConn] = []
        self._selector: Optional[selectors.DefaultSelector] = None
        self._pending_local: "deque[Tuple[str, str, Any]]" = deque()
        self._ctrl_seq = itertools.count(1)
        self._ctrl_replies: Dict[int, Any] = {}
        self._worker_error: Optional[str] = None
        self.messages_routed = 0
        self.bytes_routed = 0
        #: Supervision counters (stay zero unsupervised): snapshot frames
        #: received and their total bytes, and the most bytes ever parked
        #: awaiting a commit marker on one worker.
        self.snapshots_received = 0
        self.snapshot_bytes = 0
        self.uncommitted_peak_bytes = 0
        # -- supervision state (populated when a ProcessSupervisor is
        #    registered; otherwise zero-cost) -------------------------------
        self._supervisor: Optional[ProcessSupervisor] = None
        self._supervised = False
        self._slots: List[_WorkerSlot] = []
        self._breakers: List[CircuitBreaker] = []
        self._initial_blobs: Dict[int, bytes] = {}
        self._recovering = False
        #: Frames/bytes that supervision could not protect: retransmit-buffer
        #: overflow, drain timeouts, replay gaps.
        self.loss_accounting: Counter[str] = Counter()

    # -- lifecycle -------------------------------------------------------- #

    def start(self) -> "MultiprocRuntime":
        if self._started:
            return self
        self._refuse_faults()
        for name in self._actors:
            self._location[name] = (
                self._placement_fn(name, self.workers) if self.workers else None
            )
        kills = [
            (self._resolve_worker(kill.worker), kill.at)
            for kill in (self.chaos.kills if self.chaos is not None else ())
        ]
        self._started = True
        if self.workers:
            self._supervisor = next(
                (
                    actor
                    for actor in self._actors.values()
                    if isinstance(actor, ProcessSupervisor)
                ),
                None,
            )
            self._supervised = self._supervisor is not None
            self._slots = [_WorkerSlot() for _ in range(self.workers)]
            if self._supervised:
                sup = self._supervisor
                assert sup is not None
                self._breakers = [
                    CircuitBreaker(sup.breaker_threshold, sup.breaker_cooldown)
                    for _ in range(self.workers)
                ]
            self._spawn_workers()
            self._ship_actors()
            if self._supervised:
                for wid in range(self.workers):
                    self._control(wid, self._configure_payload(wid, 0, 0))
        for name, actor in self._actors.items():
            if self._location[name] is None:
                actor.on_start()
        if self.workers:
            for wid in range(self.workers):
                self._control(wid, {"op": "start"})
        for wid, at in kills:
            self.loop.schedule(at, lambda w=wid: self._chaos_kill(w))
        self._serving = True
        return self

    def _refuse_faults(self) -> None:
        plan = self.chaos
        if plan is None:
            return
        if plan.crashes:
            raise ConfigurationError(
                "MultiprocRuntime cannot crash one actor; FaultPlan.kill "
                "SIGKILLs the worker process hosting it"
            )
        if any(rule.message_type is not None for rule in plan.rules):
            raise ConfigurationError(
                "MultiprocRuntime routes worker frames undecoded: fault "
                "rules cannot match on message_type"
            )

    def _configure_payload(
        self, wid: int, delivered: int, emission: int
    ) -> Dict[str, Any]:
        sup = self._supervisor
        assert sup is not None
        journaled = sorted(
            name
            for name, home in self._location.items()
            if home == wid and sup.is_journaled(name)
        )
        return {
            "op": "configure",
            "heartbeat_interval": sup.heartbeat_interval,
            "journaled": journaled,
            "delivered": delivered,
            "emission": emission,
        }

    def _resolve_worker(self, target: Any) -> int:
        """Map a kill target (worker index or actor name) to a worker id."""
        if isinstance(target, int):
            if not 0 <= target < self.workers:
                raise ConfigurationError(
                    f"kill target worker {target} out of range (workers={self.workers})"
                )
            return target
        wid = self._location.get(str(target))
        if wid is None:
            raise ConfigurationError(
                f"kill target {target!r} is not placed on a worker"
            )
        return wid

    def _chaos_kill(self, wid: int) -> None:
        proc = self._procs[wid] if wid < len(self._procs) else None
        if proc is None or not proc.is_alive():
            return
        proc.kill()
        assert self.chaos is not None
        self.chaos.stats["workers_killed"] += 1

    def _spawn_workers(self) -> None:
        procs, conns = self._spawn(range(self.workers), 30.0)
        self._procs = [procs[wid] for wid in range(self.workers)]
        self._conns = [conns[wid] for wid in range(self.workers)]
        self._selector = selectors.DefaultSelector()
        now = _wall_clock()
        for wid, conn in enumerate(self._conns):
            self._selector.register(conn.sock, selectors.EVENT_READ, conn)
            if self._slots:
                self._slots[wid].last_heartbeat = now

    def _spawn_one(self, wid: int) -> Tuple[Any, _FrameConn]:
        """Spawn and handshake a single replacement worker process."""
        sup = self._supervisor
        procs, conns = self._spawn([wid], sup.spawn_timeout if sup is not None else 10.0)
        return procs[wid], conns[wid]

    def _spawn(
        self, wids: Iterable[int], timeout: float
    ) -> Tuple[Dict[int, Any], Dict[int, _FrameConn]]:
        """Start one worker process per id, all at once, then accept each
        one's connection and check its hello; on failure kill them all."""
        wids = list(wids)
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._host, 0))
        listener.listen(len(wids))
        listener.settimeout(timeout)
        port = listener.getsockname()[1]
        ctx = get_context("spawn")
        procs: Dict[int, Any] = {}
        conns: Dict[int, _FrameConn] = {}
        try:
            for wid in wids:
                proc = ctx.Process(
                    target=_worker_main,
                    args=(wid, self._host, port),
                    daemon=True,
                    name=f"repro-mp-worker-{wid}",
                )
                proc.start()
                procs[wid] = proc
            while len(conns) < len(wids):
                sock, _addr = listener.accept()
                hello = _read_one_frame_blocking(sock, timeout=timeout)
                kind, _seq, _src, _dst, payload = _parse_envelope(memoryview(hello)[4:])
                hello_wid = pickle.loads(bytes(payload)).get("hello") if kind == _K_REPLY else None
                if hello_wid not in procs or hello_wid in conns:
                    sock.close()
                    raise SessionError(f"bad worker handshake (hello {hello_wid!r})")
                conns[hello_wid] = _FrameConn(sock, wid=hello_wid)
        except (OSError, SessionError) as exc:
            for proc in procs.values():
                proc.kill()
                proc.join(1.0)
            for conn in conns.values():
                conn.close()
            raise SessionError(f"worker {wids} spawn failed: {exc!r}") from exc
        finally:
            listener.close()
        return procs, conns

    def _ship_actors(self) -> None:
        by_worker: Dict[int, List[Actor]] = {}
        for name, actor in self._actors.items():
            wid = self._location[name]
            if wid is not None:
                by_worker.setdefault(wid, []).append(actor)
        for wid in range(self.workers):
            group = by_worker.get(wid, [])
            # One pickle per worker keeps objects shared between co-located
            # actors (ownership plans, filter maps) shared after transfer.
            blob = pickle.dumps(_strip_runtime(group), protocol=pickle.HIGHEST_PROTOCOL)
            if self._supervised:
                # Kept so a worker that dies before its first snapshot can
                # still be restored to its initial shipped state.
                self._initial_blobs[wid] = blob
            self._control(wid, {"op": "load", "actors": blob})
            for actor in group:  # parent keeps shadows for introspection
                actor.runtime = self

    def stop(self) -> None:
        """Shut workers down, then *always* reap children and close every
        parent-side socket — even when the graceful control round fails
        (idempotent; a worker that died early must not leak its socket or
        linger as a zombie)."""
        if self._stopped:
            return
        self._stopped = True
        try:
            for wid, conn in enumerate(self._conns):
                if conn.closed:
                    continue
                if self._supervised and self._slots[wid].failed:
                    continue
                try:
                    self._control(wid, {"op": "stop"}, timeout=5.0)
                except SessionError:
                    pass
        finally:
            for conn in self._conns:
                conn.close()
            self._conns = []
            for proc in self._procs:
                try:
                    proc.join(timeout=5.0)
                    if proc.is_alive():
                        proc.kill()
                        proc.join(timeout=5.0)
                except (OSError, ValueError):
                    pass  # already reaped / closed by multiprocessing
            self._procs = []
            if self._selector is not None:
                try:
                    self._selector.close()
                except OSError:
                    pass
                self._selector = None

    # -- messaging --------------------------------------------------------- #

    def send(self, src: str, dst: str, message: Any) -> None:
        self.messages_sent += 1
        wid = self._location.get(dst, None) if self._started else None
        if wid is None:
            if dst not in self._actors:
                raise ConfigurationError(
                    f"message from {src!r} to unknown actor {dst!r}"
                )
            self._route(None, src, dst, message)
            return
        self._route(wid, src, dst, _envelope(_K_MSG, src, dst, encode_value_binary(message)))

    def send_encoded(self, src: str, dst: str, payload: bytes) -> None:
        """Route a pre-encoded binary payload (zero parent-side encode cost).

        The benchmark drivers pre-encode one template ``RecordBatch`` frame
        and resend it; with a remote destination the parent never even
        decodes it.  A parent-local destination decodes lazily, paying the
        same codec cost a worker would — keeping ``workers=0`` honest.
        """
        wid = self._location.get(dst)
        if wid is None:
            if dst not in self._actors:
                raise ConfigurationError(
                    f"message from {src!r} to unknown actor {dst!r}"
                )
            self._route(None, src, dst, decode_value_binary(payload))
            return
        self._route(wid, src, dst, _envelope(_K_MSG, src, dst, payload))

    def prepare_encoded(self, src: str, dst: str, payload: bytes) -> bytes:
        """Build the complete wire frame for a message once, for resending.

        :meth:`send_prepared` queues the returned frame by reference — a
        driver replaying one batch shape pays the envelope copy once total
        instead of once per send.
        """
        if dst not in self._location and dst not in self._actors:
            raise ConfigurationError(f"prepare_encoded for unknown actor {dst!r}")
        return _envelope(_K_MSG, src, dst, payload)

    def send_prepared(self, frame: bytes) -> None:
        """Route a frame built by :meth:`prepare_encoded` (zero-copy resend)."""
        _kind, _seq, src, dst, payload = _parse_envelope(memoryview(frame)[4:])
        wid = self._location.get(dst)
        if wid is None:
            if dst not in self._actors:
                raise ConfigurationError(f"send_prepared to unknown actor {dst!r}")
            self._route(None, src, dst, decode_value_binary(payload))
            return
        self._route(wid, src, dst, frame)

    def _route(self, wid: Optional[int], src: str, dst: str, item: Any) -> None:
        """The router's one exit, where the fault plan applies: ``item`` is a
        frame for worker ``wid``, or a decoded message for a parent actor
        (``wid`` None).  A delayed copy re-enters :meth:`_queue` when its
        timer fires, before a delivery sequence number is assigned, so
        per-worker delivery stays in admission order."""
        if self.chaos is None:
            self._queue(wid, src, dst, item)
            return
        delays = self._fate(src, dst, item)
        if delays is None:
            return
        for delay in delays:
            if delay > 0.0:
                self.loop.schedule(delay, lambda: self._queue(wid, src, dst, item))
            else:
                self._queue(wid, src, dst, item)

    def _queue(self, wid: Optional[int], src: str, dst: str, item: Any) -> None:
        if wid is None:
            self._pending_local.append((src, dst, item))
        else:
            self._admit_frame(wid, item)

    def _admit_frame(self, wid: int, frame: Frame) -> None:
        if self._supervised:
            slot = self._slots[wid]
            slot.delivery_seq += 1
            # The one copy of the supervised path: the caller's frame may be
            # shared (``send_prepared``) or immutable, the patched buffer is
            # queued and kept for retransmission as it is.
            frame = bytearray(frame)
            _U32.pack_into(frame, _SEQ_OFF, slot.delivery_seq)
            slot.unacked.append((slot.delivery_seq, frame))
            slot.unacked_bytes += len(frame)
            while slot.unacked_bytes > RETRANSMIT_LIMIT_BYTES and slot.unacked:
                _d, old = slot.unacked.popleft()
                slot.unacked_bytes -= len(old)
                self.loss_accounting["retransmit_overflow_frames"] += 1
                self.loss_accounting["retransmit_overflow_bytes"] += len(old)
            if not slot.buffering:
                self._conns[wid].queue(frame)
        else:
            self._conns[wid].queue(frame)
        self.messages_routed += 1
        self.bytes_routed += len(frame)

    # -- control channel ---------------------------------------------------- #

    def _control(self, wid: int, payload: Dict[str, Any], timeout: float = 30.0) -> Any:
        slot = self._slots[wid] if self._supervised else None
        epoch = slot.epoch if slot is not None else 0
        seq = next(self._ctrl_seq)
        payload = dict(payload)
        payload["seq"] = seq
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        self._conns[wid].queue(_envelope(_K_CTRL, "", "", blob))
        deadline = _wall_clock() + timeout
        while seq not in self._ctrl_replies:
            if slot is not None and (slot.failed or slot.epoch != epoch):
                # The worker died (or was respawned) under this request; the
                # reply will never arrive — fail fast so callers can skip or
                # retry instead of hanging out the full timeout.
                raise SessionError(
                    f"worker {wid} went down awaiting {payload['op']!r} reply"
                )
            if _wall_clock() > deadline:
                raise SessionError(f"worker {wid} control timeout: {payload['op']}")
            self._pump(0.05)
        reply = self._ctrl_replies.pop(seq)
        if isinstance(reply, dict) and "error" in reply:
            raise SessionError(f"worker {wid} error: {reply['error']}")
        return reply.get("value") if isinstance(reply, dict) else reply

    def refresh_actors(self, names: Optional[Iterable[str]] = None) -> None:
        """Replace the parent's shadow copies with fresh worker state.

        After this, parent-side introspection helpers (``all_entries``,
        ``frontiers``, drain checks) read current data — the multiproc
        equivalent of looking directly at a single-process runtime's actors.
        Under supervision a failed worker is skipped (its shadows stay stale
        until recovery) instead of failing the whole refresh.
        """
        wanted = set(names) if names is not None else None
        by_worker: Dict[int, List[str]] = {}
        for name, wid in self._location.items():
            if wid is None or (wanted is not None and name not in wanted):
                continue
            by_worker.setdefault(wid, []).append(name)
        for wid, group in sorted(by_worker.items()):
            if self._supervised and self._slots[wid].failed:
                continue
            try:
                blob = self._control(wid, {"op": "fetch_many", "names": group})
            except SessionError:
                if not self._supervised:
                    raise
                continue  # died mid-fetch; recovery will catch it
            fetched: Dict[str, Actor] = pickle.loads(blob)
            for name, actor in fetched.items():
                shadow = self._actors.get(name)
                if shadow is not None and hasattr(shadow, "__dict__"):
                    # Transplant state into the existing object so direct
                    # references held by deployments (``pipe.maintainers``)
                    # observe the fresh state too.
                    shadow.__dict__.clear()
                    shadow.__dict__.update(actor.__dict__)
                    shadow.runtime = self
                else:
                    actor.runtime = self
                    self._actors[name] = actor

    def peek(self, name: str, fn: Callable[[Actor], Any]) -> Any:
        """Evaluate ``fn(actor)`` where the actor lives (worker or parent).

        ``fn`` must be a module-level function (picklable by reference) when
        the actor is remote — the cheap way to poll one counter without
        pickling a whole store back.
        """
        wid = self._location.get(name)
        if wid is None:
            return fn(self._actors[name])
        return self._control(wid, {"op": "peek", "name": name, "fn": fn})

    # -- supervision: detection, respawn, drain ----------------------------- #

    def check_workers(self) -> int:
        """Detect dead/hung workers and respawn them; returns respawns.

        Called by :class:`~repro.runtime.supervisor.ProcessSupervisor` on
        its sweep timer (which fires from the parent pump), and safe to call
        directly from drivers.
        """
        if not self._supervised or not self._started or self._stopped:
            return 0
        if self._recovering:
            return 0  # re-entered from a nested pump during a respawn
        self._detect_failures()
        restarted = 0
        self._recovering = True
        try:
            for wid, slot in enumerate(self._slots):
                if slot.failed:
                    self._respawn_worker(wid)
                    restarted += 1
        finally:
            self._recovering = False
        return restarted

    def _detect_failures(self) -> None:
        sup = self._supervisor
        assert sup is not None
        now = _wall_clock()
        for wid, slot in enumerate(self._slots):
            if slot.failed:
                continue
            proc = self._procs[wid]
            conn = self._conns[wid]
            reason = None
            if proc.exitcode is not None:
                reason = f"exit code {proc.exitcode}"
            elif conn.closed:
                reason = "socket closed"
            elif (
                slot.last_heartbeat
                and now - slot.last_heartbeat > sup.heartbeat_timeout
            ):
                reason = f"no heartbeat for {now - slot.last_heartbeat:.2f}s"
            if reason is not None:
                self._mark_worker_down(wid, reason)

    def _mark_worker_down(self, wid: int, reason: str) -> None:
        slot = self._slots[wid]
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
        conn = self._conns[wid]
        if self._selector is not None:
            try:
                self._selector.unregister(conn.sock)
            except (KeyError, ValueError, OSError):
                pass
        conn.close()

    def _respawn_worker(self, wid: int) -> None:
        """Kill/reap the old process, spawn a fresh one, restore the latest
        snapshot (journal-backed actors rebuilt from disk), and retransmit
        every unacknowledged input frame."""
        sup = self._supervisor
        assert sup is not None
        slot = self._slots[wid]
        detected = slot.down_since if slot.down_since is not None else _wall_clock()
        breaker = self._breakers[wid]
        attempt = 0
        while True:
            now = _wall_clock()
            if not breaker.allow(now):
                raise SessionError(
                    f"worker {wid} circuit open after repeated respawn failures "
                    f"(last reason: {slot.down_reason})"
                )
            try:
                self._respawn_once(wid)
                breaker.record_success(_wall_clock())
                break
            except SessionError as exc:
                breaker.record_failure(_wall_clock())
                self._mark_worker_down(wid, f"respawn attempt failed: {exc}")
                attempt += 1
                if attempt >= sup.retry.max_attempts:
                    raise SessionError(
                        f"worker {wid} respawn failed after {attempt} attempts: {exc}"
                    )
                time.sleep(sup.retry.delay(attempt - 1))
        snap = slot.snapshot
        replayed = len(slot.unacked)
        recovered_at = _wall_clock()
        sup.record_recovery(
            worker=wid,
            detected=detected,
            recovered=recovered_at,
            replayed=replayed,
            reason=slot.down_reason,
            from_snapshot=snap is not None,
        )
        slot.down_since = None
        slot.down_reason = ""

    def _respawn_once(self, wid: int) -> None:
        sup = self._supervisor
        assert sup is not None
        slot = self._slots[wid]
        # Reap the old process with prejudice: SIGKILL leaves no split-brain
        # twin half-processing frames while the replacement starts.
        old_proc = self._procs[wid]
        try:
            if old_proc.is_alive():
                old_proc.kill()
            old_proc.join(5.0)
        except (OSError, ValueError):
            pass
        old_conn = self._conns[wid]
        if self._selector is not None and not old_conn.closed:
            try:
                self._selector.unregister(old_conn.sock)
            except (KeyError, ValueError, OSError):
                pass
        old_conn.close()
        proc, conn = self._spawn_one(wid)
        self._procs[wid] = proc
        self._conns[wid] = conn
        assert self._selector is not None
        self._selector.register(conn.sock, selectors.EVENT_READ, conn)
        slot.epoch += 1
        slot.failed = False  # controls may flow; data frames still buffer
        slot.last_heartbeat = _wall_clock()
        snap = slot.snapshot
        # Journal-backed actors: rebuild parent-side by replaying the
        # on-disk journal, keep the replacement as the parent shadow, and
        # ship it alongside the snapshot state.
        journaled_names = [
            name
            for name, home in self._location.items()
            if home == wid and sup.is_journaled(name)
        ]
        recovered: Dict[str, Actor] = {}
        for name in journaled_names:
            replacement = sup.build_replacement(name)
            replacement.runtime = None
            recovered[name] = replacement
        jblob = (
            pickle.dumps(recovered, protocol=pickle.HIGHEST_PROTOCOL)
            if recovered
            else None
        )
        self._control(
            wid,
            {
                "op": "restore",
                "state": snap["state"] if snap is not None else None,
                "initial": None if snap is not None else self._initial_blobs.get(wid),
                "journaled": jblob,
            },
        )
        for name, replacement in recovered.items():
            replacement.runtime = self
            self._actors[name] = replacement
        ack = snap["ack"] if snap is not None else 0
        emission = snap["emission"] if snap is not None else 0
        # Exactly the emissions up to the snapshot's were routed; the
        # replacement numbers its own from there.
        slot.emission_high = emission
        self._control(wid, self._configure_payload(wid, ack, emission))
        self._control(wid, {"op": "start"})
        # Bounded loss: if overflow trimmed frames the snapshot never
        # covered, the replay has a gap — count it instead of hiding it.
        if slot.unacked:
            first = slot.unacked[0][0]
            if first > ack + 1:
                self.loss_accounting["replay_gap_frames"] += first - ack - 1
        for _d, frame in slot.unacked:
            conn.queue(frame)
        slot.buffering = False

    def drain_worker(self, wid: int, timeout: float = 5.0) -> bool:
        """Quiesce worker ``wid``: repeatedly flush its queues into a
        snapshot until the snapshot acknowledges every delivered frame (or
        ``timeout`` expires).  Returns True when fully drained."""
        if not self._supervised:
            raise ConfigurationError("drain_worker requires a ProcessSupervisor")
        slot = self._slots[wid]
        deadline = _wall_clock() + timeout
        while _wall_clock() < deadline:
            if slot.failed or self._conns[wid].closed:
                return False
            try:
                self._control(
                    wid,
                    {"op": "drain"},
                    timeout=max(0.1, deadline - _wall_clock()),
                )
            except SessionError:
                return False
            # FIFO: the drain reply follows the snapshot it forced, so the
            # slot's ack is current by the time _control returns.
            if slot.acked >= slot.delivery_seq:
                return True
        return False

    def restart_worker(
        self, wid: int, drain: bool = True, drain_timeout: float = 5.0
    ) -> bool:
        """Planned restart (the elasticity path): drain, then respawn.

        With ``drain`` the worker's queues are quiesced into a final
        snapshot first, so the restart loses nothing; when the drain cannot
        complete in time the restart proceeds anyway — unsnapshotted inputs
        are replayed from the parent's buffer, and any genuinely
        unprotectable frames are counted in :attr:`loss_accounting`.
        Returns True when the pre-restart drain completed.
        """
        if not self._supervised:
            raise ConfigurationError("restart_worker requires a ProcessSupervisor")
        if not 0 <= wid < self.workers:
            raise ConfigurationError(f"worker {wid} out of range")
        drained = self.drain_worker(wid, timeout=drain_timeout) if drain else False
        if drain and not drained:
            self.loss_accounting["drain_timeouts"] += 1
        self._mark_worker_down(wid, "planned restart")
        self._recovering = True
        try:
            self._respawn_worker(wid)
        finally:
            self._recovering = False
        return drained

    # -- execution ---------------------------------------------------------- #

    def run_for(self, duration: float) -> float:
        """Pump routing, timers, and local deliveries for ``duration`` s."""
        self.start()
        deadline = _wall_clock() + duration
        while True:
            remaining = deadline - _wall_clock()
            if remaining <= 0:
                break
            self._pump(min(0.05, remaining))
        return self.now

    def run_until(self, predicate: Callable[[], bool], timeout: float = 60.0) -> float:
        """Pump until ``predicate()`` holds (checked between pump slices)."""
        self.start()
        deadline = _wall_clock() + timeout
        while not predicate():
            if _wall_clock() > deadline:
                raise RuntimeExhaustedError(
                    "run_until timed out on the multiproc runtime"
                )
            self._pump(0.02)
        return self.now

    def _check(self, predicate: Callable[[], bool]) -> bool:
        """A settle check reads actor state, which for placed actors lives in
        the workers: refresh the parent's shadows first."""
        self.refresh_actors()
        return predicate()

    # -- the pump ----------------------------------------------------------- #

    def _pump(self, max_wait: float) -> None:
        if self._worker_error is not None:
            error, self._worker_error = self._worker_error, None
            raise SessionError(f"worker failure: {error}")
        progressed = self._drain_local() + self.loop.fire_due() if self._serving else 0
        for conn in self._conns:
            if conn.wants_write and not conn.closed:
                conn.flush()
        if self._selector is not None and self._conns:
            wait = 0.0 if (progressed or self._serving and self._pending_local) else min(
                max_wait, self.loop.seconds_to_next(max_wait)
            )
            # Backlogged conns must wake the select on writability too, or
            # flush progress gates on unrelated inbound traffic (slow and
            # wildly variable under bulk sends).
            for conn in self._conns:
                if conn.closed:
                    continue
                events = selectors.EVENT_READ | (
                    selectors.EVENT_WRITE if conn.wants_write else 0
                )
                self._selector.modify(conn.sock, events, conn)
            for key, mask in self._selector.select(wait):
                conn = key.data
                if mask & selectors.EVENT_READ:
                    for frame in conn.read_frames():
                        self._route_frame(conn.wid, frame)
                if conn.closed and not self._stopped:
                    if self._supervised:
                        self._mark_worker_down(conn.wid, "disconnected")
                    else:
                        self._worker_error = "a worker process disconnected"
            for conn in self._conns:
                if conn.wants_write and not conn.closed:
                    conn.flush()
        elif not progressed and not self._pending_local:
            time.sleep(min(max_wait, self.loop.seconds_to_next(max_wait)))

    def _drain_local(self) -> int:
        delivered = 0
        pending = self._pending_local
        actors = self._actors
        while pending:
            src, dst, message = pending.popleft()
            actor = actors.get(dst)
            if actor is not None:
                actor.on_message(src, message)
                delivered += 1
        return delivered

    def _route_frame(self, wid: int, frame: bytes) -> None:
        kind, seq, src, dst, payload = _parse_envelope(memoryview(frame)[4:])
        if self._supervised and 0 <= wid < len(self._slots):
            self._slots[wid].last_heartbeat = _wall_clock()
        if kind == _K_REPLY:
            reply = pickle.loads(payload)
            if "worker_error" in reply:
                self._worker_error = reply["worker_error"]
            elif "snapshot" in reply:
                self.snapshots_received += 1
                self.snapshot_bytes += len(frame)
                self._on_snapshot(wid, reply["snapshot"])
            elif "heartbeat" in reply:
                pass  # liveness already noted above
            else:
                self._ctrl_replies[reply["seq"]] = reply
            return
        if kind != _K_MSG:
            raise SessionError(f"unexpected frame kind {kind} at the router")
        if seq and self._supervised and 0 <= wid < len(self._slots):
            # A sequenced emission is parked until a snapshot covering it
            # is here (_on_snapshot).  Ids are dense: a live worker counts
            # up by one and a respawned one resumes at its snapshot's id.
            slot = self._slots[wid]
            if seq != slot.emission_high + 1:
                raise SessionError(
                    f"worker {wid} emission {seq} after {slot.emission_high}: "
                    "ids must be dense"
                )
            slot.emission_high = seq
            slot.uncommitted.append((seq, src, dst, payload, frame))
            slot.uncommitted_bytes += len(frame)
            if slot.uncommitted_bytes > self.uncommitted_peak_bytes:
                self.uncommitted_peak_bytes = slot.uncommitted_bytes
            return
        self._forward(src, dst, payload, frame)

    def _forward(self, src: str, dst: str, payload: memoryview, frame: bytes) -> None:
        target = self._location.get(dst)
        if target is None:
            if dst not in self._actors:
                raise SessionError(f"route to unknown actor {dst!r}")
            # payload view pins `frame`; lazy batches stay valid after this.
            self._route(None, src, dst, decode_value_binary(payload))
            return
        # Worker→worker: forward the original frame bytes untouched (the
        # supervised path re-stamps seq with the destination's delivery
        # number on a copy inside _admit_frame).
        self._route(target, src, dst, frame)

    def _on_snapshot(self, wid: int, snap: Dict[str, Any]) -> None:
        """Record a worker snapshot, trim its retransmit buffer — every
        input frame the snapshot acknowledges is now recoverable from the
        snapshot itself and never needs retransmission — and commit its
        outputs: the parked emissions it covers are routed, in id order."""
        slot = self._slots[wid]
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
            self._forward(src, dst, payload, frame)


def _read_one_frame_blocking(sock: socket.socket, timeout: float = 30.0) -> bytes:
    sock.settimeout(timeout)
    data = b""
    while len(data) < 4:
        chunk = sock.recv(4 - len(data))
        if not chunk:
            raise SessionError("worker hung up during handshake")
        data += chunk
    (n,) = _U32.unpack(data)
    body = bytearray()
    while len(body) < n:
        chunk = sock.recv(n - len(body))
        if not chunk:
            raise SessionError("worker hung up during handshake")
        body += chunk
    return data + bytes(body)


# ------------------------------------------------------------------------- #
# Worker process
# ------------------------------------------------------------------------- #


class _WorkerNode(BaseRuntime):
    """The runtime surface inside one worker process; the parent drives it
    through control frames, so its own loop (:meth:`run`) replaces
    ``run_for`` / ``run_until``.

    Local destinations deliver in-process (same semantics as the parent's
    pending queue); everything else is encoded once and sent to the router.

    Under supervision the node is the worker half of the group commit from
    the module docstring: a remote send is stamped with the next emission
    id and queued to the socket at once (the parent parks it), and at the
    end of a loop turn that delivered an input or emitted a frame
    :meth:`_commit` sends a snapshot — input ack, last emission id, pickled
    actor state (journal-backed actors excluded) — behind them.  Per TCP
    FIFO the snapshot reaches the parent after every frame it covers, and
    the parent routes nothing a snapshot it holds does not cover.
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
        self._heartbeat_interval = 0.5
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
        seq = ctrl["seq"]
        try:
            if op == "load":
                self.register_all(pickle.loads(ctrl["actors"]))
                self._reply({"seq": seq, "value": None})
            elif op == "restore":
                # Replace the world: snapshot state (or the initial shipped
                # blob) plus journal-recovered actors from the parent.
                world: Dict[str, Actor] = {}
                state_blob = ctrl.get("state")
                if state_blob is not None:
                    world.update(pickle.loads(state_blob))
                initial = ctrl.get("initial")
                if initial is not None:
                    world.update((actor.name, actor) for actor in pickle.loads(initial))
                jblob = ctrl.get("journaled")
                if jblob is not None:
                    # Journal replacements override any stale initial copy.
                    world.update(pickle.loads(jblob))
                self._actors.clear()
                self._pending.clear()
                self._started = False
                self.register_all(world.values())
                self._reply({"seq": seq, "value": None})
            elif op == "configure":
                self._supervised = True
                self._heartbeat_interval = float(ctrl["heartbeat_interval"])
                self._journaled = set(ctrl.get("journaled", ()))
                self._delivered_seq = int(ctrl.get("delivered", 0))
                self._emission = int(ctrl.get("emission", 0))
                self._last_snap = (self._delivered_seq, self._emission)
                self._reply({"seq": seq, "value": None})
            elif op == "start":
                if not self._started:
                    self.start()
                    if self._supervised:
                        self._arm_supervision()
                self._reply({"seq": seq, "value": None})
            elif op == "fetch_many":
                self._reply(
                    {"seq": seq, "value": self._pickle_detached(list(ctrl["names"]))}
                )
            elif op == "peek":
                value = ctrl["fn"](self._actors[ctrl["name"]])
                self._reply({"seq": seq, "value": value})
            elif op == "drain":
                # Force a snapshot (which first drains local pending work);
                # the reply rides behind it in FIFO order, so the parent's
                # ack is current when it arrives.
                self._snapshot()
                self._reply({"seq": seq, "value": {"ack": self._delivered_seq}})
            elif op == "stop":
                if self._supervised:
                    self._snapshot()
                self._stopping = True
                self._reply({"seq": seq, "value": None})
            else:
                self._reply({"seq": seq, "error": f"unknown control op {op!r}"})
        except Exception as exc:  # noqa: BLE001 - reported to the parent
            self._reply({"seq": seq, "error": _format_error(exc)})

    def _arm_supervision(self) -> None:
        def heartbeat() -> None:
            self._reply({"heartbeat": self.worker_id, "ack": self._delivered_seq})
            self.loop.schedule(self._heartbeat_interval, heartbeat)

        # Baseline snapshot straight away: a worker that dies before any
        # traffic is restorable to its exact post-start state.
        self._snapshot()
        self.loop.schedule(self._heartbeat_interval, heartbeat)

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
        try:
            while not self._stopping:
                while self._pending:
                    src, dst, message = self._pending.popleft()
                    self._dispatch_safely(src, dst, message)
                self.loop.fire_due()
                idle = self._commit() if self._supervised else self._IDLE_WAIT
                if self.conn.wants_write:
                    self.conn.flush()
                wait = (
                    0.0
                    if self._pending
                    else min(idle, self.loop.seconds_to_next(idle))
                )
                selector.modify(
                    self.conn.sock,
                    selectors.EVENT_READ
                    | (selectors.EVENT_WRITE if self.conn.wants_write else 0),
                    self.conn,
                )
                for _key, mask in selector.select(wait):
                    if mask & selectors.EVENT_READ:
                        for frame in self.conn.read_frames():
                            self._on_frame(frame)
                if self.conn.closed:
                    break
                if self.conn.wants_write:
                    self.conn.flush()
            # Final flush so stop-acks and late sends reach the parent.
            deadline = _wall_clock() + 2.0
            while self.conn.wants_write and _wall_clock() < deadline:
                self.conn.flush()
        finally:
            selector.close()
            self.conn.close()

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
        # `payload` views `frame` (immutable bytes), so lazy RecordBatch
        # views decoded here stay valid for the life of the batch.
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
