"""The wire codec: the protocol messages over the packed value layer.

Every message that crosses a socket in this repository — in a TCP FLStore
frame, or inside an envelope of the socket wire that
:class:`~repro.net.aio_runtime.AioRuntime` and the multiproc runtime share —
is encoded here.  The value layer (scalars,
containers, the ``Record`` / ``RecordId`` / ``LogEntry`` / ``AppendResult``
/ ``RecordRun`` layouts, and the record / placement / entry / result / posting run shapes)
lives in :mod:`repro.core.value_codec`, where the storage layer shares it;
this module installs in it what only the network layer knows:

* ``DraftRecord`` (tag ``0x14``) and ``RecordBatch`` (tag ``0x15``, decoded
  lazily) get bespoke packed layouts;
* every registered protocol message (:data:`_MESSAGE_TYPES`, tag ``0x1F``):
  a generic ``(type index, fields...)`` layout over the name-sorted
  registry;
* the draft run shape (tag ``0x16``): a list of at least
  ``_RUN_MIN`` drafts is packed **a column per list** by the
  value layer's one list rule (:data:`~repro.core.value_codec._RUN_OF`),
  the rule that packs every other record-bearing list too — in a message
  field, a TCP frame's dict or a journal block alike.

Encoding is symmetric: ``decode(encode(x)) == x`` for every registered
message type and every application body built from the value layer's
scalars and containers, with exact Python types.
For *any* byte string :func:`decode_value_binary` returns a value or raises
:class:`~repro.core.errors.NetworkProtocolError`, allocating no more than
a small multiple of the input's length.
Framing lives in :mod:`repro.runtime.multiproc.wire` (the actor runtimes)
and :mod:`repro.net.protocol` (the legacy TCP FLStore stack).
"""

from __future__ import annotations

import dataclasses
import struct
from itertools import repeat
from operator import attrgetter
from typing import Any, Callable, Dict, List, Tuple, Type

from ..baseline.sequencer import ReservedRange, SequencerRequest
from ..chariots import messages as cmsg
from ..chariots.messages import DraftRecord
from ..core.errors import NetworkProtocolError
from ..core.record import AppendResult, LogEntry, ReadRules, Record, RecordId, RecordRun
from ..core.value_codec import (
    _MALFORMED,
    _RUN_OF,
    _RUN_SHAPES,
    _TAG_DECODERS,
    _TYPE_ENCODERS,
    _all_of,
    _dec_deps,
    _dec_payload_columns,
    _dec_record_fields,
    _dec_str_column,
    _dec_tag_lists,
    _decode_value,
    _enc_deps,
    _enc_len,
    _enc_payload_columns,
    _enc_record_fields,
    _enc_str_column,
    _enc_tag_lists,
    _encode_value,
    _pack_i64,
    _pack_u32,
    _tuple_new,
    _unpack_i64,
    _unpack_u32,
    decode_value_binary,
    encode_value_binary,
)
from ..flstore import messages as fmsg
from ..runtime.messages import RecordBatch

# Decoders build a ``DraftRecord`` (a NamedTuple) with the C-level
# ``_tuple_new``, skipping a Python-level ``__new__`` for fields that come
# straight off the wire.

#: First byte of every frame body; anything else is not a frame of ours.
BINARY_MAGIC = 0xC5

# The value tags of this layer (the rest are the value layer's).
_T_DRAFT = 0x14
_T_BATCH = 0x15
_T_MESSAGE = 0x1F

# The run shape of this layer: what one element of the list is.
_RUN_DRAFT = 3  # DraftRecord

# --------------------------------------------------------------------- #
# Message-type registry and the deterministic type table derived from it
# --------------------------------------------------------------------- #

#: Every message type that may cross a socket.  Field values are encoded
#: with :func:`_encode_value`, so nested records/entries/containers work.
_MESSAGE_TYPES: Tuple[Type[Any], ...] = (
    # FLStore
    fmsg.AppendRequest,
    fmsg.AppendReply,
    fmsg.PlaceRecords,
    fmsg.ReadRequest,
    fmsg.ReadReply,
    fmsg.ReadNewRequest,
    fmsg.ReadNewReply,
    fmsg.GossipHL,
    fmsg.HeadRequest,
    fmsg.HeadReply,
    fmsg.IndexUpdate,
    fmsg.LookupRequest,
    fmsg.LookupReply,
    fmsg.SessionRequest,
    fmsg.SessionInfo,
    fmsg.LoadReport,
    fmsg.TruncateBelow,
    fmsg.PruneIndexBelow,
    fmsg.GcReport,
    # Chariots
    cmsg.DraftRecord,
    cmsg.DraftBatch,
    cmsg.FilterBatch,
    cmsg.AdmittedBatch,
    cmsg.Token,
    cmsg.TokenPass,
    cmsg.DraftCommitBatch,
    cmsg.FrontierUpdate,
    cmsg.ReplicationShipment,
    cmsg.ShipmentAck,
    cmsg.AtableSnapshot,
    # Runtime.  Built only by drivers outside src/ (the ledger's codec
    # calibration, tests) and, lazily, by this module's own decoder.
    RecordBatch,  # chariots: noqa=CHR012 - driver-constructed
    # Baseline
    SequencerRequest,
    ReservedRange,
    # A plain dataclass used inside ReadRequest/LookupRequest.
    ReadRules,
)

#: Types with bespoke binary layouts; they never take the generic path.
_SPECIAL_CLASSES = (
    Record, RecordId, RecordRun, LogEntry, AppendResult, DraftRecord, RecordBatch
)

#: Everything else gets a type index: its position in name order, so the
#: table does not depend on the order of the registry above.
_MSG_CLASSES: List[Type[Any]] = sorted(
    (cls for cls in _MESSAGE_TYPES if cls not in _SPECIAL_CLASSES),
    key=attrgetter("__name__"),
)

#: class → (type index, attrgetter over the dataclass fields in order,
#: single-field flag).
_MSG_ENCODERS: Dict[Type[Any], Tuple[int, Callable[[Any], Any], bool]] = {}
#: type index → (class, field count).
_MSG_DECODERS: List[Tuple[Type[Any], int]] = []

for _index, _cls in enumerate(_MSG_CLASSES):
    _names = [f.name for f in dataclasses.fields(_cls)]
    _MSG_ENCODERS[_cls] = (_index, attrgetter(*_names), len(_names) == 1)
    _MSG_DECODERS.append((_cls, len(_names)))


# --------------------------------------------------------------------- #
# Zero-copy RecordBatch frame
# --------------------------------------------------------------------- #

# Slot descriptor for RecordBatch.records (dataclass slots=True), used by the
# lazy subclass to store the materialised list under its shadowing property.
_RB_RECORDS = RecordBatch.__dict__["records"]


class LazyRecordBatch(RecordBatch):
    """A ``RecordBatch`` decoded lazily from one contiguous binary frame.

    The ``0x15`` batch frame is ``u32 count`` followed by ``count`` runs of
    ``u32 span_len || packed-record-fields``.  Decoding only validates the
    span bounds and keeps a :class:`memoryview` over the frame — no Record,
    RecordId, or tuple objects exist until a consumer touches ``records``.
    The view pins the source buffer, so the batch stays valid after the
    caller drops its own reference to the frame bytes.

    Sizing queries (``len``, ``record_count``) answer from the span table;
    re-encoding an untouched batch copies the raw spans straight back out,
    so a decode → encode trip is byte-identical and parse-free.
    """

    __slots__ = ("_frame", "_spans")

    def __init__(self, frame: "memoryview", spans: List[Tuple[int, int]]) -> None:
        self._frame: Any = frame
        self._spans: Any = spans

    @property
    def records(self) -> List[Record]:  # type: ignore[override]
        spans = self._spans
        if spans is not None:
            data = bytes(self._frame)
            materialised: List[Record] = []
            for start, end in spans:
                try:
                    record, pos = _dec_record_fields(data, start)
                except _MALFORMED as exc:
                    raise NetworkProtocolError(
                        f"corrupt RecordBatch span: {exc!r}"
                    ) from exc
                if pos != end:
                    raise NetworkProtocolError(
                        f"RecordBatch span length mismatch at offset {start}"
                    )
                materialised.append(record)
            _RB_RECORDS.__set__(self, materialised)
            self._spans = None
            self._frame = None
        return _RB_RECORDS.__get__(self, LazyRecordBatch)  # type: ignore[no-any-return]

    @records.setter
    def records(self, value: List[Record]) -> None:
        _RB_RECORDS.__set__(self, value)
        self._spans = None
        self._frame = None

    @property
    def materialised(self) -> bool:
        """True once ``records`` has been touched (views released)."""
        return self._spans is None

    def __len__(self) -> int:
        spans = self._spans
        if spans is not None:
            return len(spans)
        return len(self.records)

    def record_count(self) -> int:
        return len(self)

    def __eq__(self, other: object) -> bool:
        # The dataclass __eq__ is exact-class; a lazy batch must compare
        # equal to the eager batch it decodes to (both directions — Python
        # tries the subclass's reflected op first).
        if isinstance(other, RecordBatch):
            return self.records == other.records
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]


def _enc_batch(batch: RecordBatch, out: bytearray) -> None:
    out.append(_T_BATCH)
    if type(batch) is LazyRecordBatch and batch._spans is not None:
        # Untouched lazy batch: copy the raw spans; nothing is re-parsed.
        spans = batch._spans
        frame = batch._frame
        out += _pack_u32(len(spans))
        for start, end in spans:
            out += _pack_u32(end - start)
            out += frame[start:end]
        return
    records = batch.records
    out += _pack_u32(len(records))
    for record in records:
        mark = len(out)
        out += b"\x00\x00\x00\x00"  # span length, backpatched below
        _enc_record_fields(record, out)
        out[mark : mark + 4] = _pack_u32(len(out) - mark - 4)


def _dec_batch(buf: Any, pos: int) -> Tuple["LazyRecordBatch", int]:
    """Validate span bounds and return a lazy view; ``buf`` is bytes or a
    memoryview (both satisfy ``unpack_from`` and slicing)."""
    limit = len(buf)
    if pos + 4 > limit:
        raise NetworkProtocolError("truncated RecordBatch frame (count)")
    (count,) = _unpack_u32(buf, pos)
    pos += 4
    view = buf if type(buf) is memoryview else memoryview(buf)
    spans: List[Tuple[int, int]] = []
    for _ in range(count):
        if pos + 4 > limit:
            raise NetworkProtocolError("truncated RecordBatch frame (span length)")
        (n,) = _unpack_u32(buf, pos)
        pos += 4
        end = pos + n
        if end > limit:
            raise NetworkProtocolError(
                f"truncated RecordBatch frame (span of {n} bytes past end)"
            )
        spans.append((pos, end))
        pos = end
    return LazyRecordBatch(view, spans), pos


# --------------------------------------------------------------------- #
# DraftRecord and the registered messages
# --------------------------------------------------------------------- #


def _enc_draft(value: DraftRecord, out: bytearray) -> None:
    out.append(_T_DRAFT)
    client = value.client.encode("utf-8")
    _enc_len(len(client), out)
    out += client
    out += _pack_i64(value.seq)
    _encode_value(value.body, out)
    _enc_tag_lists((value.tags,), out)
    _enc_deps(value.deps, out)


def _dec_draft(buf: Any, pos: int) -> Tuple[DraftRecord, int]:
    if type(buf) is not bytes:
        buf = bytes(buf)  # the top-level value of a memoryview
    n = buf[pos]
    pos += 1
    if n == 255:
        (n,) = _unpack_u32(buf, pos)
        pos += 4
    client = buf[pos : pos + n].decode("utf-8")
    pos += n
    (seq,) = _unpack_i64(buf, pos)
    pos += 8
    body, pos = _decode_value(buf, pos)
    tags: Tuple[Any, ...] = ()
    if buf[pos]:
        (tags,), pos = _dec_tag_lists(buf, pos, 1)
    else:
        pos += 1
    deps: Tuple[Any, ...] = ()
    if buf[pos]:
        deps, pos = _dec_deps(buf, pos)
    else:
        pos += 1
    return _tuple_new(DraftRecord, (client, seq, body, tags, deps)), pos


def _enc_message(value: Any, out: bytearray) -> None:
    index, getter, single = _MSG_ENCODERS[type(value)]
    out.append(_T_MESSAGE)
    out += _pack_u32(index)
    if single:
        _encode_value(getter(value), out)
    else:
        for field_value in getter(value):
            _encode_value(field_value, out)


def _dec_message(buf: Any, pos: int) -> Tuple[Any, int]:
    if type(buf) is not bytes:
        buf = bytes(buf)  # the top-level value of a memoryview
    (index,) = _unpack_u32(buf, pos)
    pos += 4
    if index >= len(_MSG_DECODERS):
        raise NetworkProtocolError(f"unknown binary message index {index}")
    cls, field_count = _MSG_DECODERS[index]
    values = []
    for _ in range(field_count):
        value, pos = _decode_value(buf, pos)
        values.append(value)
    return cls(*values), pos


# --------------------------------------------------------------------- #
# The draft run shape
# --------------------------------------------------------------------- #

def _enc_draft_run(items: List[Any], out: bytearray) -> None:
    _all_of(DraftRecord, items)
    clients, seqs, bodies, tags, deps = zip(*items)  # a draft is its field tuple
    _enc_str_column(clients, out)
    out += struct.pack(">%dq" % len(seqs), *seqs)
    _enc_payload_columns(deps, (), bodies, tags, out)


def _dec_draft_run(buf: bytes, pos: int, n: int) -> Tuple[List[Any], int]:
    clients, pos = _dec_str_column(buf, pos, n, False)
    seqs = struct.unpack_from(">%dq" % n, buf, pos)
    deps, _internal, bodies, tags, pos = _dec_payload_columns(buf, pos + 8 * n, n)
    fields = zip(clients, seqs, bodies, tags, deps)
    return list(map(_tuple_new, repeat(DraftRecord, n), fields)), pos


# --------------------------------------------------------------------- #
# Installing this layer's types in the value layer
# --------------------------------------------------------------------- #

_TYPE_ENCODERS[DraftRecord] = _enc_draft
_TYPE_ENCODERS[RecordBatch] = _TYPE_ENCODERS[LazyRecordBatch] = _enc_batch
_TYPE_ENCODERS.update(dict.fromkeys(_MSG_ENCODERS, _enc_message))
_TAG_DECODERS[_T_DRAFT] = _dec_draft
_TAG_DECODERS[_T_BATCH] = _dec_batch
_TAG_DECODERS[_T_MESSAGE] = _dec_message
# Byte floor: a draft's seq + body length.
_RUN_SHAPES[_RUN_DRAFT] = (12, _enc_draft_run, _dec_draft_run)
_RUN_OF[DraftRecord] = _RUN_DRAFT


def encode_message_binary(message: Any) -> bytes:
    """Encode a top-level protocol message (must be a registered type)."""
    kind = type(message)
    if kind not in _MSG_ENCODERS and kind not in _SPECIAL_CLASSES:
        raise NetworkProtocolError(
            f"{kind.__name__} is not a registered protocol message"
        )
    return encode_value_binary(message)


#: Inverse of :func:`encode_message_binary` (same routine: messages are
#: just top-level values).
decode_message_binary = decode_value_binary
