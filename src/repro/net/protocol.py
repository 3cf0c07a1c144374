"""Wire protocol for the asyncio FLStore deployment.

Frames are ``4-byte big-endian length || body``.  A body is ``0xC5``
(:data:`~repro.net.binary_codec.BINARY_MAGIC`) followed by a
:mod:`~repro.net.binary_codec` value that decodes to a typed message dict
(``{"type": ..., ...}``); records, entries, append results and read rules
travel inside it as native objects.  That is the only format: a body that
starts with any other byte is rejected, and the connection it arrived on is
dropped.
"""

from __future__ import annotations

import struct
from asyncio import IncompleteReadError, StreamReader, StreamWriter
from typing import Any, Dict, Optional

from ..core.errors import NetworkProtocolError
from .binary_codec import BINARY_MAGIC, decode_value_binary, encode_value_binary

_LENGTH = struct.Struct(">I")
MAX_FRAME_BYTES = 64 * 1024 * 1024

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


async def read_frame(reader: StreamReader) -> Optional[Dict[str, Any]]:
    """Read one frame; returns ``None`` on clean EOF."""
    try:
        header = await reader.readexactly(_LENGTH.size)
    except IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise NetworkProtocolError("truncated frame header") from exc
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise NetworkProtocolError(f"declared frame length {length} too large")
    try:
        body = await reader.readexactly(length)
    except IncompleteReadError as exc:
        raise NetworkProtocolError("truncated frame body") from exc
    return decode_body(body)


async def write_frame(writer: StreamWriter, message: Dict[str, Any]) -> None:
    writer.write(encode_frame_binary(message))
    await writer.drain()
