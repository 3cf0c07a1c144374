"""The multiproc wire: envelopes, framed sockets and the one selector turn.

Every frame between the parent and a worker is a length-prefixed envelope
the router can parse *without touching the payload*::

    u32 total_len || 0xC6 || kind || u32 seq || u16 dst_len || dst ||
    u16 src_len || src || payload

so a worker→worker message is forwarded as raw bytes — the only processes
that ever decode a payload are the sender and the final receiver.  ``seq``
is zero on unsupervised traffic; under supervision it carries the parent's
per-worker delivery number (parent→worker) or the worker's emission id
(worker→parent), see :mod:`.supervision`.
"""

from __future__ import annotations

import selectors
import socket
import struct
import time
from collections import deque
from typing import Callable, List, Sequence, Tuple, Union

from ...core.errors import SessionError

#: First byte of every multiproc envelope body (binary codec frames start
#: with 0xC5 — the router does not speak those directly).
ENVELOPE_MAGIC = 0xC6

_K_MSG = 0  # routed actor message
_K_CTRL = 1  # parent → worker control (pickled dict)
_K_REPLY = 2  # worker → parent control reply (pickled dict)

_U32 = struct.Struct(">I")
_HDR = struct.Struct(">IBBIH")  # total_len, magic, kind, seq, dst_len

#: Byte offset of the envelope ``seq`` field within a full frame (i.e. the
#: u32 length prefix, then magic + kind).  Supervised forwarding patches a
#: per-worker delivery sequence number in place at this offset.
_SEQ_OFF = 6

#: Hard sanity cap per routed frame (matches net/protocol.py).
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: A complete wire frame.  Frames read off a socket or built by
#: :func:`_envelope` are immutable ``bytes``; the supervised parent queues
#: the ``bytearray`` it patched the delivery ``seq`` into, uncopied.
Frame = Union[bytes, bytearray]


def _wall_clock() -> float:
    """This runtime is real time by design, like ``net/aio_runtime``: OS
    processes and sockets do not replay from a seed, so deadlines and the
    timer loop read the monotonic clock rather than a simulated one."""
    return time.monotonic()  # chariots: noqa=CHR003 - real-time runtime


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
        #: When bytes last arrived (or the connection was made): a worker
        #: silent for longer than its heartbeat timeout counts as hung.
        self.heard_at = _wall_clock()
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
        if taken:
            self.heard_at = _wall_clock()
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


def _turn(
    selector: selectors.BaseSelector,
    conns: Sequence[_FrameConn],
    wait: float,
    on_ready: Callable[[_FrameConn, List[bytes]], None],
) -> None:
    """One selector turn, the same on both sides of the wire: flush every
    open connection, wait up to ``wait`` seconds for one to turn readable
    (or writable, while it has a backlog), hand each ready connection and
    the complete frames read off it to ``on_ready``, then flush again so
    what the handlers queued leaves at once."""
    for conn in conns:
        if conn.wants_write and not conn.closed:
            conn.flush()
    # Backlogged conns must wake the select on writability too, or flush
    # progress gates on unrelated inbound traffic (slow and wildly variable
    # under bulk sends).
    for conn in conns:
        if not conn.closed:
            events = selectors.EVENT_READ | (
                selectors.EVENT_WRITE if conn.wants_write else 0
            )
            selector.modify(conn.sock, events, conn)
    for key, mask in selector.select(wait):
        conn = key.data
        on_ready(conn, conn.read_frames() if mask & selectors.EVENT_READ else [])
    for conn in conns:
        if conn.wants_write and not conn.closed:
            conn.flush()


def _read_one_frame_blocking(sock: socket.socket, timeout: float = 30.0) -> bytes:
    """One whole frame off a blocking socket: a worker's handshake."""
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
