"""Wire protocol and transport for the asyncio FLStore deployment.

Frames are ``4-byte big-endian length || body``.  A body is ``0xC5``
(:data:`~repro.net.binary_codec.BINARY_MAGIC`) followed by a
:mod:`~repro.net.binary_codec` value that decodes to a typed message dict
(``{"type": ..., ...}``); records, entries, append results and read rules
travel inside it as native objects.  That is the only format: a body that
starts with any other byte is rejected, and the connection it arrived on is
dropped.

:class:`FrameProtocol` is the one frame parser: the component servers, the
``AioRuntime`` hub and :class:`Connection` (the outbound side: client
requests, gossip and postings links) all subclass it, so a complete frame is
handled inside the transport's read callback — no task, future or reader
wake-up per frame on the receiving side.
"""

from __future__ import annotations

import asyncio
import struct
from typing import Any, Dict, Optional

from ..core.errors import ChariotsError, NetworkProtocolError
from .binary_codec import BINARY_MAGIC, decode_value_binary, encode_value_binary

_LENGTH = struct.Struct(">I")
MAX_FRAME_BYTES = 64 * 1024 * 1024
#: Size of a connection's receive buffer until a larger frame arrives.
_READ_BYTES = 64 * 1024

#: The one wire codec's name.  Kept for callers that still pass
#: ``FLStoreNetDeployment.client(codec=CODEC_BINARY)``.
CODEC_BINARY = "binary"

_MAGIC_BYTE = bytes([BINARY_MAGIC])


def encode_frame_binary(message: Dict[str, Any]) -> bytes:
    body = encode_value_binary(message)
    if len(body) + 1 > MAX_FRAME_BYTES:
        raise NetworkProtocolError(f"frame too large: {len(body) + 1} bytes")
    return _LENGTH.pack(len(body) + 1) + _MAGIC_BYTE + body


def decode_body(body: bytes) -> Dict[str, Any]:
    if body[:1] != _MAGIC_BYTE:
        raise NetworkProtocolError(
            f"frame body starts {body[:1]!r}, not the binary magic {_MAGIC_BYTE!r}"
        )
    message = decode_value_binary(body, 1)
    if not isinstance(message, dict) or "type" not in message:
        raise NetworkProtocolError("frame is not a typed message object")
    return message


class FrameProtocol(asyncio.BufferedProtocol):
    """Splits the byte stream into frames and hands each decoded message to
    :meth:`frame_received`, synchronously, in arrival order.

    The socket is read straight into one receive buffer the connection keeps
    (``get_buffer`` / ``buffer_updated``): a plain ``data_received`` protocol
    is handed a fresh 256 KB allocation per read, which the C allocator maps
    and unmaps every time in a young process.

    A frame that cannot be trusted (declared length above
    :data:`MAX_FRAME_BYTES`, body without the magic, untyped message) ends
    this connection, and nothing else; :attr:`failure` then says why.  An EOF
    in the middle of a frame just closes, as any EOF does.

    :meth:`pause` holds back further frames (also the ones already buffered)
    until a matching :meth:`resume`; the kernel's receive buffer then pushes
    back on the peer.
    """

    def __init__(self) -> None:
        self.transport: Optional[asyncio.Transport] = None
        self.failure: Optional[NetworkProtocolError] = None
        #: Done once ``connection_lost`` ran (what a ``stop()`` awaits).
        self.closed: Optional["asyncio.Future[None]"] = None
        self._buffer = bytearray(_READ_BYTES)
        #: ``_buffer[:_filled]`` is input not yet handled.
        self._filled = 0
        self._pauses = 0

    # -- asyncio.BufferedProtocol ------------------------------------------ #

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        assert isinstance(transport, asyncio.Transport)
        self.transport = transport
        self.closed = asyncio.get_running_loop().create_future()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.transport = None
        if self.closed is not None and not self.closed.done():
            self.closed.set_result(None)

    def get_buffer(self, sizehint: int) -> memoryview:
        if self._filled == len(self._buffer):
            # A frame larger than the buffer is arriving: make room.
            self._buffer += bytes(len(self._buffer))
        elif not self._filled and len(self._buffer) > _READ_BYTES:
            self._buffer = bytearray(_READ_BYTES)  # a large frame has passed
        return memoryview(self._buffer)[self._filled :]

    def buffer_updated(self, nbytes: int) -> None:
        self._filled += nbytes
        self._parse()

    # -- for subclasses ----------------------------------------------------- #

    def frame_received(self, message: Dict[str, Any]) -> None:
        raise NotImplementedError

    def pause(self) -> None:
        self._pauses += 1
        if self._pauses == 1 and self.transport is not None:
            self.transport.pause_reading()

    def resume(self) -> None:
        self._pauses -= 1
        if self._pauses == 0 and self.transport is not None:
            self.transport.resume_reading()
            self._parse()

    def write(self, message: Dict[str, Any]) -> None:
        """Queue one frame on the transport (dropped if it already closed)."""
        frame = encode_frame_binary(message)
        if self.transport is not None:
            self.transport.write(frame)

    def abort(self) -> None:
        """Drop the connection; ``connection_lost`` follows from the loop."""
        transport, self.transport = self.transport, None
        if transport is not None:
            transport.abort()

    async def aclose(self) -> None:
        """Drop the connection and wait until its socket is closed."""
        self.abort()
        if self.closed is not None:
            await self.closed

    # -- parsing -------------------------------------------------------------- #

    def _parse(self) -> None:
        """Handle every complete frame in the buffer; keep the rest."""
        buffer = self._buffer
        pos = 0
        end = self._filled
        try:
            while end - pos >= 4 and not self._pauses and self.transport is not None:
                (length,) = _LENGTH.unpack_from(buffer, pos)
                if length > MAX_FRAME_BYTES:
                    raise NetworkProtocolError(f"declared frame length {length} too large")
                stop = pos + 4 + length
                if stop > end:
                    break
                message = decode_body(bytes(buffer[pos + 4 : stop]))
                pos = stop
                self.frame_received(message)
        except NetworkProtocolError as exc:
            # Framing can no longer be trusted: drop the connection now.
            self.failure = exc
            self.abort()
            pos = end
        if pos:
            # Moved, not deleted: the transport still holds a view of the
            # buffer while buffer_updated runs, so it must keep its size.
            self._filled = end - pos
            buffer[: end - pos] = buffer[pos:end]


class _Link(FrameProtocol):
    """The protocol side of one :class:`Connection`: at most one reply is
    awaited at a time, so the next frame in is that request's reply."""

    def __init__(self, address: str) -> None:
        super().__init__()
        self.address = address
        self.waiter: Optional["asyncio.Future[Dict[str, Any]]"] = None
        #: False while the transport's send buffer is above its high-water
        #: mark, i.e. the peer has stopped reading.
        self.writable = True

    def frame_received(self, message: Dict[str, Any]) -> None:
        waiter, self.waiter = self.waiter, None
        if waiter is None:
            raise NetworkProtocolError(f"server {self.address} sent an unrequested frame")
        if not waiter.done():
            waiter.set_result(message)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        super().connection_lost(exc)
        waiter, self.waiter = self.waiter, None
        if waiter is not None and not waiter.done():
            waiter.set_exception(
                exc
                or self.failure
                or NetworkProtocolError(f"server {self.address} closed the connection")
            )

    def pause_writing(self) -> None:
        self.writable = False

    def resume_writing(self) -> None:
        self.writable = True


def _expire(waiter: "asyncio.Future[Any]") -> None:
    if not waiter.done():
        waiter.set_exception(asyncio.TimeoutError())


class Connection:
    """One long-lived outbound TCP connection with lazy (re)connect.

    :meth:`request` is request/response with one request in flight (the lock
    queues the rest), which is what makes "the next frame in is my reply"
    sound; :meth:`post` sends a one-way frame (gossip, postings) on the same
    kind of link.  Whatever goes wrong while a reply is outstanding — a
    timeout, a transport error, the caller's cancellation — drops the link
    before the lock is released, so a late reply can never be taken for the
    next request's; the next call reconnects.

    ``timeout`` bounds the connect and the wait for the reply, each; the
    reply wait costs a ``call_later`` timer, not a task.
    """

    def __init__(self, address: str) -> None:
        self.address = address
        self._link: Optional[_Link] = None
        self._lock = asyncio.Lock()

    async def _ensure_locked(self, timeout: Optional[float]) -> _Link:
        link = self._link
        if link is not None and link.transport is not None:
            return link
        loop = asyncio.get_running_loop()
        host, _, port = self.address.rpartition(":")
        # Connecting is rare, so it may cost a task (asyncio.wait bounds it
        # with a timer of its own).
        connecting = loop.create_task(
            loop.create_connection(lambda: _Link(self.address), host, int(port))
        )
        try:
            done, _pending = await asyncio.wait((connecting,), timeout=timeout)
        finally:
            connecting.cancel()  # a no-op once it has finished
        if not done:
            raise asyncio.TimeoutError()
        link = connecting.result()[1]
        self._link = link
        return link

    async def request(
        self, message: Dict[str, Any], timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        frame = encode_frame_binary(message)
        async with self._lock:
            link = await self._ensure_locked(timeout)
            assert link.transport is not None
            loop = asyncio.get_running_loop()
            waiter: "asyncio.Future[Dict[str, Any]]" = loop.create_future()
            link.waiter = waiter
            link.transport.write(frame)
            timer = None if timeout is None else loop.call_later(timeout, _expire, waiter)
            try:
                response = await waiter
            except BaseException:
                link.abort()
                raise
            finally:
                if timer is not None:
                    timer.cancel()
        if response.get("type") == "error":
            raise ChariotsError(response.get("error", "remote error"))
        return response

    async def post(self, message: Dict[str, Any]) -> None:
        """Send one frame that has no reply.  A peer that stopped reading
        (send buffer above its high-water mark) costs the link, not memory."""
        frame = encode_frame_binary(message)
        async with self._lock:
            link = await self._ensure_locked(None)
            assert link.transport is not None
            if not link.writable:
                link.abort()
                raise ConnectionError(f"server {self.address} stopped reading")
            link.transport.write(frame)

    async def close(self) -> None:
        # Detach first so a concurrent request() reconnects cleanly instead
        # of racing the teardown of the old link.
        link, self._link = self._link, None
        if link is not None:
            await link.aclose()
