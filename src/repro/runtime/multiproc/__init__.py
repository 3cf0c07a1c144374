"""Multi-process runtime: one OS process per stage group, sockets between.

Every other runtime in this repo hosts all actors inside one Python
process, so the GIL caps pipeline throughput no matter how many stages a
deployment declares.  :class:`MultiprocRuntime` places actors in worker
processes (``multiprocessing`` spawn) connected to the parent by localhost
TCP sockets; the parent is the message **router** and the home of
control-plane actors (clients, controllers, GC, load generators).

The package is four modules:

* :mod:`.wire` — the 0xC6 envelope (routed without decoding the payload),
  framed sockets and the selector turn both sides run;
* :mod:`.worker` — the worker process and the node hosting its actors;
* :mod:`.supervision` — the parent half of the supervised exactly-once
  protocol, present only when a
  :class:`~repro.runtime.supervisor.ProcessSupervisor` is registered;
* this module — placement, routing, the control channel and the pump.

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

Faults come from the one plan every runtime takes (``chaos``, a
:class:`~repro.chaos.plan.FaultPlan`, applied by
:class:`~repro.runtime.local.BaseRuntime`).  Its kills SIGKILL worker
processes at the scheduled times (counted in ``plan.stats
["workers_killed"]``), which supervision recovers from.  Its
drop / delay / duplicate / reorder rules and partitions apply once per
message that crosses the parent router — in :meth:`MultiprocRuntime.send`
and where a worker's frame is forwarded — keyed by the envelope's source
and destination; a message between two actors of one worker never reaches
the router and is not faulted.  Crash events and ``message_type`` rules are
refused at :meth:`MultiprocRuntime.start`: a whole worker dies, not one
actor, and worker frames are routed without being decoded.
"""

from __future__ import annotations

import pickle
import selectors
import socket
import time
from collections import Counter, deque
from multiprocessing import get_context
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, TYPE_CHECKING
from zlib import crc32

from ...core.errors import ConfigurationError, RuntimeExhaustedError, SessionError
from ...net.binary_codec import decode_value_binary, encode_value_binary
from ..actor import Actor
from ..local import BaseRuntime
from ..supervisor import ProcessSupervisor
from .supervision import Supervision
from .wire import (
    _K_CTRL,
    _K_MSG,
    _K_REPLY,
    _envelope,
    _FrameConn,
    _parse_envelope,
    _read_one_frame_blocking,
    _turn,
    _wall_clock,
)
from .worker import _RealtimeLoop, _worker_main

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...chaos.plan import FaultPlan

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


class MultiprocRuntime(BaseRuntime):
    """Actor runtime spanning OS processes; the parent routes messages.

    ``workers=0`` is the inline mode: every actor lives in the parent and a
    message is queued as the object itself, never encoded — the real-time
    loop and routing without processes.

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
        self._ctrl_seq = 0
        self._ctrl_replies: Dict[int, Dict[str, Any]] = {}
        self._worker_error: Optional[str] = None
        #: Set at :meth:`start` when a ProcessSupervisor is registered.
        self._supervision: Optional[Supervision] = None
        self.messages_routed = 0
        self.bytes_routed = 0
        #: Supervision counters (stay zero unsupervised): snapshot frames
        #: received and their total bytes, and the most bytes ever parked
        #: awaiting a commit marker on one worker.
        self.snapshots_received = 0
        self.snapshot_bytes = 0
        self.uncommitted_peak_bytes = 0
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
            supervisor = next(
                (a for a in self._actors.values() if isinstance(a, ProcessSupervisor)), None
            )
            if supervisor is not None:
                self._supervision = Supervision(self, supervisor)
            self._spawn_workers()
            self._ship_actors()
        for name, actor in self._actors.items():
            if self._location[name] is None:
                actor.on_start()
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
        for conn in self._conns:
            self._selector.register(conn.sock, selectors.EVENT_READ, conn)

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
        by_worker: Dict[int, Dict[str, Actor]] = {}
        for name, actor in self._actors.items():
            wid = self._location[name]
            if wid is not None:
                by_worker.setdefault(wid, {})[name] = actor
        for wid in range(self.workers):
            group = by_worker.get(wid, {})
            for actor in group.values():
                actor.runtime = None
            # One pickle per worker keeps objects shared between co-located
            # actors (ownership plans, filter maps) shared after transfer.
            state = pickle.dumps(group, protocol=pickle.HIGHEST_PROTOCOL)
            self._control(wid, {"op": "restore", "state": state})
            if self._supervision is not None:
                self._supervision.shipped(wid, state)
            for actor in group.values():  # parent keeps shadows for introspection
                actor.runtime = self

    def stop(self) -> None:
        """Shut workers down, then *always* reap children and close every
        parent-side socket — even when the graceful control round fails
        (idempotent; a worker that died early must not leak its socket or
        linger as a zombie)."""
        if self._stopped:
            return
        self._stopped = True
        supervision = self._supervision
        try:
            for wid, conn in enumerate(self._conns):
                if conn.closed:
                    continue
                if supervision is not None and supervision.slots[wid].failed:
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

    def prepare_encoded(self, src: str, dst: str, payload: bytes) -> bytes:
        """The complete wire frame a message with the encoded ``payload``
        from ``src`` to ``dst`` is routed as."""
        if dst not in self._location and dst not in self._actors:
            raise ConfigurationError(f"prepare_encoded for unknown actor {dst!r}")
        return _envelope(_K_MSG, src, dst, payload)

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
            return
        self.messages_routed += 1
        self.bytes_routed += len(item)
        if self._supervision is None:
            self._conns[wid].queue(item)
        else:
            self._supervision._admit_frame(wid, item)

    # -- control channel ---------------------------------------------------- #

    def _control(self, wid: int, payload: Dict[str, Any], timeout: float = 30.0) -> Any:
        slot = self._supervision.slots[wid] if self._supervision is not None else None
        epoch = slot.epoch if slot is not None else 0
        self._ctrl_seq += 1
        seq = self._ctrl_seq
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
        if "error" in reply:
            raise SessionError(f"worker {wid} error: {reply['error']}")
        return reply["value"]

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
        supervision = self._supervision
        for wid, group in sorted(by_worker.items()):
            if supervision is not None and supervision.slots[wid].failed:
                continue
            try:
                blob = self._control(wid, {"op": "fetch_many", "names": group})
            except SessionError:
                if supervision is None:
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

    # -- supervision entry points ------------------------------------------- #

    def check_workers(self) -> int:
        """Detect dead/hung workers and respawn them; returns respawns.

        Called by :class:`~repro.runtime.supervisor.ProcessSupervisor` on
        its sweep timer (which fires from the parent pump), and safe to call
        directly from drivers.
        """
        if self._supervision is None or self._stopped:
            return 0
        return self._supervision.check_workers()

    def drain_worker(self, wid: int, timeout: float = 5.0) -> bool:
        """Quiesce worker ``wid`` into a snapshot covering every frame
        delivered to it (:meth:`Supervision.drain_worker`)."""
        return self._supervised("drain_worker").drain_worker(wid, timeout)

    def restart_worker(
        self, wid: int, drain: bool = True, drain_timeout: float = 5.0
    ) -> bool:
        """Planned restart: drain, then respawn
        (:meth:`Supervision.restart_worker`)."""
        return self._supervised("restart_worker").restart_worker(wid, drain, drain_timeout)

    def _supervised(self, what: str) -> Supervision:
        if self._supervision is None:
            raise ConfigurationError(f"{what} requires a ProcessSupervisor")
        return self._supervision

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
        if self._selector is not None and self._conns:
            wait = 0.0 if (progressed or self._serving and self._pending_local) else min(
                max_wait, self.loop.seconds_to_next(max_wait)
            )
            _turn(self._selector, self._conns, wait, self._on_ready)
        elif not progressed and not self._pending_local:
            time.sleep(min(max_wait, self.loop.seconds_to_next(max_wait)))

    def _on_ready(self, conn: _FrameConn, frames: List[bytes]) -> None:
        for frame in frames:
            self._route_frame(conn.wid, frame)
        if conn.closed and not self._stopped:
            if self._supervision is not None:
                self._supervision._mark_worker_down(conn.wid, "disconnected")
            else:
                self._worker_error = "a worker process disconnected"

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
        supervision = self._supervision
        if kind == _K_REPLY:
            reply = pickle.loads(payload)
            if "worker_error" in reply:
                self._worker_error = reply["worker_error"]
            elif "snapshot" in reply and supervision is not None:
                self.snapshots_received += 1
                self.snapshot_bytes += len(frame)
                supervision._on_snapshot(wid, reply["snapshot"])
            elif "heartbeat" in reply:
                pass  # liveness is the connection's heard_at
            else:
                self._ctrl_replies[reply["seq"]] = reply
            return
        if kind != _K_MSG:
            raise SessionError(f"unexpected frame kind {kind} at the router")
        if seq and supervision is not None:
            supervision._park(wid, seq, src, dst, payload, frame)
            return
        self._forward(src, dst, payload, frame)

    def _forward(self, src: str, dst: str, payload: memoryview, frame: bytes) -> None:
        target = self._location.get(dst)
        if target is None:
            if dst not in self._actors:
                raise SessionError(f"route to unknown actor {dst!r}")
            self._route(None, src, dst, decode_value_binary(payload))
            return
        # Worker→worker: forward the original frame bytes untouched (the
        # supervised path re-stamps seq with the destination's delivery
        # number on a copy in Supervision._admit_frame).
        self._route(target, src, dst, frame)

