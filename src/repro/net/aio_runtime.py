"""Real-time asyncio runtime: the same actors, over real sockets.

:class:`AioRuntime` hosts the protocol actors on the asyncio event loop and
routes **every** message through a localhost TCP connection: each ``send``
serialises the message with the binary codec, frames it, writes it to
the router socket, and the router's server side decodes and dispatches it to
the destination actor.  Timers run on real (wall-clock) time.

This is the strongest in-repo demonstration that the protocol is
network-ready: a whole multi-datacenter Chariots deployment — batchers,
filters, the queue token, replication shipments, gossip — runs with every
single message crossing the TCP stack and the codec.

The runtime implements the same registration/`send` surface as
:class:`~repro.runtime.local.BaseRuntime`, so ``ChariotsDeployment`` and
``FLStore`` build on it unchanged; use the async helpers
(:meth:`run_for`, :meth:`settle`) instead of the synchronous ones.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, Iterable, List, Optional, TYPE_CHECKING

from ..core.errors import ConfigurationError
from ..runtime.actor import Actor
from .protocol import FrameProtocol, encode_frame_binary

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..chaos.plan import FaultPlan


class _AioTimerHandle:
    """Cancellable handle matching the EventLoop handle surface."""

    __slots__ = ("_handle",)

    def __init__(self, handle: asyncio.TimerHandle) -> None:
        self._handle = handle

    def cancel(self) -> None:
        self._handle.cancel()


class _AioLoopShim:
    """The subset of :class:`~repro.runtime.loop.EventLoop` actors use,
    backed by the asyncio loop (real time)."""

    def __init__(self) -> None:
        self._aio: Optional[asyncio.AbstractEventLoop] = None
        self._epoch = 0.0

    def bind(self, loop: asyncio.AbstractEventLoop) -> None:
        self._aio = loop
        self._epoch = loop.time()

    @property
    def now(self) -> float:
        if self._aio is None:
            return 0.0
        return self._aio.time() - self._epoch

    def schedule(self, delay: float, callback: Callable[[], None]) -> _AioTimerHandle:
        if self._aio is None:
            raise ConfigurationError("AioRuntime not started; timers unavailable")
        return _AioTimerHandle(self._aio.call_later(max(0.0, delay), callback))


class _HubConnection(FrameProtocol):
    """Either end of the router's socket pair.  The accepting end dispatches
    each routed envelope to its actor; the sending end never gets a frame."""

    def __init__(self, runtime: "AioRuntime") -> None:
        super().__init__()
        self._runtime = runtime

    def frame_received(self, envelope: Dict[str, Any]) -> None:
        self._runtime._dispatch(envelope)


class AioRuntime:
    """Actor runtime whose transport is a real localhost TCP connection."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        chaos: Optional["FaultPlan"] = None,
    ) -> None:
        self.loop = _AioLoopShim()
        self._host = host
        self._actors: Dict[str, Actor] = {}
        self._started = False
        self._server: Optional[asyncio.AbstractServer] = None
        #: Sending end of the router pair, then the accepted end(s).
        self._writer: Optional[asyncio.Transport] = None
        self._hub: List[_HubConnection] = []
        #: Optional FaultPlan applied to every routed frame (drop / delay /
        #: duplicate / reorder); crashes and partitions also apply, keyed by
        #: actor-name prefixes, making TCP-backed chaos runs possible.
        self.chaos = chaos
        self.messages_routed = 0
        self.messages_dropped = 0
        self.bytes_routed = 0

    # -- registry (BaseRuntime-compatible surface) ------------------------ #

    def register(self, actor: Actor) -> Actor:
        if actor.name in self._actors:
            raise ConfigurationError(f"actor name {actor.name!r} already registered")
        actor.runtime = self  # type: ignore[assignment]
        self._actors[actor.name] = actor
        if self._started:
            actor.on_start()
        return actor

    def register_all(self, actors: Iterable[Actor]) -> List[Actor]:
        return [self.register(actor) for actor in actors]

    def actor(self, name: str) -> Actor:
        return self._actors[name]

    def has_actor(self, name: str) -> bool:
        return name in self._actors

    @property
    def now(self) -> float:
        return self.loop.now

    # -- lifecycle --------------------------------------------------------- #

    async def start(self) -> None:
        """Open the router socket pair and start every actor."""
        if self._started:
            return
        # Claim the flag before the first await: a second start() racing
        # through the check above would otherwise open a second socket pair
        # and orphan one of them.
        self._started = True
        self.loop.bind(asyncio.get_running_loop())
        loop = asyncio.get_running_loop()
        server = await loop.create_server(self._hub_connection, self._host, 0)
        self._server = server
        port = server.sockets[0].getsockname()[1]
        # The sending side of the router never receives frames; the accepted
        # side dispatches directly to the actors.
        self._writer, _sender = await loop.create_connection(
            self._hub_connection, self._host, port
        )
        for actor in list(self._actors.values()):
            actor.on_start()

    def _hub_connection(self) -> _HubConnection:
        connection = _HubConnection(self)
        self._hub.append(connection)
        return connection

    def _dispatch(self, envelope: Dict[str, Any]) -> None:
        dst = envelope["d"]
        target = self._actors.get(dst)
        if target is None:
            return  # destination retired while the frame was in flight
        self.messages_routed += 1
        target.on_message(envelope["s"], envelope["m"])

    # -- transport ----------------------------------------------------------- #

    def send(self, src: str, dst: str, message: Any) -> None:
        """Serialise and route one message through the TCP stack."""
        if self._writer is None:
            raise ConfigurationError("AioRuntime not started; call await start()")
        if dst not in self._actors:
            raise ConfigurationError(f"message from {src!r} to unknown actor {dst!r}")
        frame = encode_frame_binary({"type": "route", "s": src, "d": dst, "m": message})
        if self.chaos is not None:
            copies = self.chaos.intercept(src, dst, message, self.loop.now)
            if copies is None:
                self.messages_dropped += 1
                return
            for extra in copies:
                if extra <= 0.0:
                    self.bytes_routed += len(frame)
                    self._writer.write(frame)
                else:
                    self.loop.schedule(extra, lambda f=frame: self._write_later(f))
            return
        self.bytes_routed += len(frame)
        self._writer.write(frame)

    def _write_later(self, frame: bytes) -> None:
        """Deferred write for chaos-delayed frames (no-op after stop())."""
        if self._writer is not None:
            self.bytes_routed += len(frame)
            self._writer.write(frame)

    # -- async drivers ---------------------------------------------------------- #

    async def run_for(self, seconds: float) -> None:
        """Let the deployment run for ``seconds`` of real time."""
        await asyncio.sleep(seconds)

    async def settle(
        self,
        predicate: Callable[[], bool],
        max_seconds: float = 10.0,
        check_interval: float = 0.05,
    ) -> bool:
        """Run until ``predicate`` holds (checked every ``check_interval``)."""
        deadline = self.loop.now + max_seconds
        while self.loop.now < deadline:
            if predicate():
                return True
            await asyncio.sleep(check_interval)
        return predicate()

    async def stop(self) -> None:
        # Detach the transport attributes before awaiting: send() and
        # _write_later() check ``self._writer`` from other coroutines, and a
        # concurrent stop() must never double-close either endpoint.
        self._started = False
        self._writer = None
        server, self._server = self._server, None
        hub, self._hub = self._hub, []
        if server is not None:
            server.close()
        for connection in hub:
            await connection.aclose()
        if server is not None:
            await server.wait_closed()
