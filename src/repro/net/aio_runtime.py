"""Real-time socket runtime: the same actors, over a real TCP connection.

:class:`AioRuntime` hosts the protocol actors in one process and routes
**every** message through a localhost TCP connection: each ``send``
serialises the message with the binary codec into one envelope of the
multiproc wire (:mod:`repro.runtime.multiproc.wire`), queues it on one end
of a loopback socket pair, and the other end reassembles the frame, decodes
it and dispatches it to the destination actor.  Timers run on real
(wall-clock) time, on the timer loop the multiproc runtime uses too.

This is the strongest in-repo demonstration that the protocol is
network-ready: a whole multi-datacenter Chariots deployment — batchers,
filters, the queue token, replication shipments, gossip — runs with every
single message crossing the TCP stack and the codec.

It is driven like every other :class:`~repro.runtime.actor.Runtime`,
synchronously: :meth:`start` opens the socket pair, timers and frames
advance only inside ``run_for`` / ``run_until`` / ``settle`` (one selector
turn at a time), and :meth:`stop` closes both ends, after which no actor
timer fires.

Faults come from the one plan every runtime takes (``chaos``, applied by
:class:`~repro.runtime.local.BaseRuntime`): a dropped message is never
written, a delayed copy is written when its timer fires, the plan's crash
events are scheduled at :meth:`start`, and a frame that arrives for a
crashed actor is parked until a supervisor restarts it.  Worker kills are
refused: there are no worker processes.
"""

from __future__ import annotations

import selectors
import socket
from typing import Any, Callable, List, Optional, Sequence, TYPE_CHECKING

from ..core.errors import ConfigurationError, RuntimeExhaustedError
from ..runtime.local import BaseRuntime
from ..runtime.multiproc.wire import (
    _K_MSG, _envelope, _FrameConn, _parse_envelope, _RealtimeLoop, _turn, _wall_clock,
)
from .binary_codec import decode_value_binary, encode_value_binary

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..chaos.plan import FaultPlan

#: Longest real-time wait of one ``run_until`` turn between predicate checks.
_POLL = 0.001


class AioRuntime(BaseRuntime):
    """Actor runtime whose transport is a real localhost TCP connection."""

    loop: _RealtimeLoop

    def __init__(self, host: str = "127.0.0.1", chaos: Optional["FaultPlan"] = None) -> None:
        super().__init__(chaos)
        self.loop = _RealtimeLoop()
        self._host = host
        self._selector: Optional[selectors.BaseSelector] = None
        #: The sending end of the socket pair, then the receiving end; empty
        #: before :meth:`start` and after :meth:`stop`.
        self._conns: List[_FrameConn] = []
        self.messages_routed = 0
        self.bytes_routed = 0

    # -- lifecycle --------------------------------------------------------- #

    def start(self) -> "AioRuntime":
        """Open the socket pair, then start every actor (idempotent)."""
        if self._selector is None:
            self._refuse_faults()  # before any socket is opened
            with socket.create_server((self._host, 0)) as listener:
                listener.settimeout(30.0)
                sender = socket.create_connection(listener.getsockname()[:2], 30.0)
                receiver, _peer = listener.accept()
            self._conns = [_FrameConn(sender), _FrameConn(receiver)]
            self._selector = selectors.DefaultSelector()
            for conn in self._conns:
                self._selector.register(conn.sock, selectors.EVENT_READ, conn)
        super().start()
        return self

    def stop(self) -> None:
        """Close both sockets; no timer fires afterwards (idempotent)."""
        conns, self._conns = self._conns, []
        if conns and self._selector is not None:
            self._selector.close()
            for conn in conns:
                conn.close()
        super().stop()

    # -- transport ----------------------------------------------------------- #

    def _schedule_delivery(
        self, src: str, dst: str, message: Any, delays: Sequence[float]
    ) -> None:
        """Serialise once; queue each copy on the socket now, or when its
        delay's timer fires (timers stop with the runtime)."""
        if not self._conns:
            raise ConfigurationError("AioRuntime not started; call start()")
        frame = _envelope(_K_MSG, src, dst, encode_value_binary(message))
        for delay in delays:
            if delay > 0.0:
                self.loop.schedule(delay, lambda: self._write(frame))
            else:
                self._write(frame)

    def _write(self, frame: bytes) -> None:
        self.bytes_routed += len(frame)
        self._conns[0].queue(frame)

    def _on_ready(self, _conn: _FrameConn, frames: List[bytes]) -> None:
        for frame in frames:
            _kind, _seq, src, dst, payload = _parse_envelope(memoryview(frame)[4:])
            self.messages_routed += 1
            self._on_deliver(src, dst, decode_value_binary(payload))

    # -- drivers ------------------------------------------------------------ #

    def _pump(self, max_wait: float) -> None:
        """Fire the due timers, then one selector turn that waits at most
        ``max_wait`` seconds (less when a timer falls due sooner)."""
        self._refuse_stopped()
        self.start()
        self.loop.fire_due()
        wait = min(max_wait, self.loop.seconds_to_next(max_wait))
        _turn(self._selector, self._conns, wait, self._on_ready)

    def run_for(self, duration: float) -> float:
        """Let the deployment run for ``duration`` seconds of real time."""
        deadline = _wall_clock() + duration
        self._pump(duration)
        while (remaining := deadline - _wall_clock()) > 0.0:
            self._pump(remaining)
        return self.now

    def run_until(self, predicate: Callable[[], bool], timeout: float = 60.0) -> float:
        """Run until ``predicate()`` holds (checked after every turn, at
        least every millisecond)."""
        self._refuse_stopped()
        self.start()
        deadline = self.now + timeout
        while not predicate():
            if self.now > deadline:
                raise RuntimeExhaustedError(f"condition still false after {timeout}s")
            self._pump(_POLL)
        return self.now
