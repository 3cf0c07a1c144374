"""Real-time asyncio runtime: the same actors, over real sockets.

:class:`AioRuntime` hosts the protocol actors on an asyncio event loop of
its own and routes **every** message through a localhost TCP connection:
each ``send`` serialises the message with the binary codec, frames it,
writes it to the router socket, and the router's server side decodes and
dispatches it to the destination actor.  Timers run on real (wall-clock)
time.

This is the strongest in-repo demonstration that the protocol is
network-ready: a whole multi-datacenter Chariots deployment — batchers,
filters, the queue token, replication shipments, gossip — runs with every
single message crossing the TCP stack and the codec.

It is driven like every other :class:`~repro.runtime.actor.Runtime`,
synchronously: :meth:`start` opens the loop and the router socket pair,
the loop advances only inside ``run_for`` / ``run_until`` / ``settle``,
and :meth:`stop` closes both, after which no actor timer fires.  Call it
from plain code, never from inside a coroutine.

Faults come from the one plan every runtime takes (``chaos``, applied by
:class:`~repro.runtime.local.BaseRuntime`): a dropped message is never
written, a delayed copy is written when its timer fires, the plan's crash
events are scheduled at :meth:`start`, and a frame that arrives for a
crashed actor is parked until a supervisor restarts it.  Worker kills are
refused: there are no worker processes.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from ..core.errors import ConfigurationError, RuntimeExhaustedError
from ..runtime.local import BaseRuntime
from .protocol import FrameProtocol, encode_frame_binary

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..chaos.plan import FaultPlan

#: Real seconds ``run_until`` lets the loop run between predicate checks.
_POLL = 0.001


class _AioTimer:
    """Cancellable handle of one :class:`_AioTimers` timer."""

    __slots__ = ("callback", "handle", "cancelled")

    def __init__(self, callback: Callable[[], None]) -> None:
        self.callback = callback
        self.handle: Optional[asyncio.TimerHandle] = None
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True
        if self.handle is not None:
            self.handle.cancel()


class _AioTimers:
    """The runtime's ``loop``: real-time timers on its asyncio loop.

    Timers set before the runtime starts are armed when it starts; once
    :attr:`live` drops (at ``stop()``) none fires."""

    def __init__(self) -> None:
        self._aio: Optional[asyncio.AbstractEventLoop] = None
        self._epoch = 0.0
        self._early: List[Tuple[float, _AioTimer]] = []
        self.live = False

    def bind(self, loop: asyncio.AbstractEventLoop) -> None:
        self._aio = loop
        self._epoch = loop.time()
        self.live = True
        early, self._early = self._early, []
        for delay, timer in early:
            self._arm(timer, delay)

    @property
    def now(self) -> float:
        if self._aio is None:
            return 0.0
        return self._aio.time() - self._epoch

    def schedule(self, delay: float, callback: Callable[[], None]) -> _AioTimer:
        timer = _AioTimer(callback)
        if self._aio is None:
            self._early.append((delay, timer))
        else:
            self._arm(timer, delay)
        return timer

    def _arm(self, timer: _AioTimer, delay: float) -> None:
        assert self._aio is not None
        if not timer.cancelled:
            timer.handle = self._aio.call_later(max(0.0, delay), self._fire, timer)

    def _fire(self, timer: _AioTimer) -> None:
        if self.live:
            timer.callback()


class _HubConnection(FrameProtocol):
    """Either end of the router's socket pair.  The accepting end dispatches
    each routed envelope to its actor; the sending end never gets a frame."""

    def __init__(self, runtime: "AioRuntime") -> None:
        super().__init__()
        self._runtime = runtime

    def frame_received(self, envelope: Dict[str, Any]) -> None:
        self._runtime._dispatch(envelope)


class AioRuntime(BaseRuntime):
    """Actor runtime whose transport is a real localhost TCP connection."""

    loop: _AioTimers

    def __init__(
        self,
        host: str = "127.0.0.1",
        chaos: Optional["FaultPlan"] = None,
    ) -> None:
        super().__init__(chaos)
        self.loop = _AioTimers()
        self._host = host
        self._aio: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        #: Sending end of the router pair, then the accepted end(s).
        self._writer: Optional[asyncio.Transport] = None
        self._hub: List[_HubConnection] = []
        self.messages_routed = 0
        self.bytes_routed = 0

    # -- lifecycle --------------------------------------------------------- #

    def start(self) -> "AioRuntime":
        """Open the event loop and the router socket pair, then start every
        actor (idempotent)."""
        if self._aio is None:
            self._refuse_faults()  # before any socket is opened
            aio = self._aio = asyncio.new_event_loop()
            server = aio.run_until_complete(
                aio.create_server(self._hub_connection, self._host, 0)
            )
            self._server = server
            port = server.sockets[0].getsockname()[1]
            # The sending side of the router never receives frames; the
            # accepted side dispatches directly to the actors.
            self._writer, _sender = aio.run_until_complete(
                aio.create_connection(self._hub_connection, self._host, port)
            )
            self.loop.bind(aio)
        super().start()
        return self

    def stop(self) -> None:
        """Close the sockets and the event loop; no timer fires afterwards
        (idempotent)."""
        aio, self._writer = self._aio, None
        if aio is None or aio.is_closed():
            return
        self.loop.live = False
        server, self._server = self._server, None
        hub, self._hub = self._hub, []
        if server is not None:
            server.close()
        for connection in hub:
            aio.run_until_complete(connection.aclose())
        if server is not None:
            aio.run_until_complete(server.wait_closed())
        aio.close()

    def _hub_connection(self) -> _HubConnection:
        connection = _HubConnection(self)
        self._hub.append(connection)
        return connection

    def _dispatch(self, envelope: Dict[str, Any]) -> None:
        dst = envelope["d"]
        if dst not in self._actors:
            return  # destination retired while the frame was in flight
        self.messages_routed += 1
        self._on_deliver(envelope["s"], dst, envelope["m"])

    # -- transport ----------------------------------------------------------- #

    def _schedule_delivery(
        self, src: str, dst: str, message: Any, delays: Sequence[float]
    ) -> None:
        """Serialise once; write each copy to the router socket now, or when
        its delay's timer fires (timers stop with the runtime)."""
        if self._writer is None:
            raise ConfigurationError("AioRuntime not started; call start()")
        frame = encode_frame_binary({"type": "route", "s": src, "d": dst, "m": message})
        for delay in delays:
            if delay > 0.0:
                self.loop.schedule(delay, lambda: self._write(frame))
            else:
                self._write(frame)

    def _write(self, frame: bytes) -> None:
        assert self._writer is not None
        self.bytes_routed += len(frame)
        self._writer.write(frame)

    # -- drivers ------------------------------------------------------------ #

    def _turn(self, seconds: float) -> None:
        """Let the event loop run for ``seconds`` of real time."""
        self.start()
        if self._writer is None:
            raise ConfigurationError("AioRuntime stopped")
        assert self._aio is not None
        self._aio.run_until_complete(asyncio.sleep(seconds))

    def run_for(self, duration: float) -> float:
        """Let the deployment run for ``duration`` seconds of real time."""
        self._turn(duration)
        return self.now

    def run_until(self, predicate: Callable[[], bool], timeout: float = 60.0) -> float:
        """Run until ``predicate()`` holds (checked every millisecond)."""
        self.start()
        deadline = self.now + timeout
        while not predicate():
            if self.now > deadline:
                raise RuntimeExhaustedError(f"condition still false after {timeout}s")
            self._turn(_POLL)
        return self.now
