"""The value layer of the packed binary encoding.

One struct-packed form of the log's values, shared by everything that
writes them down: the wire codec (:mod:`repro.net.binary_codec`, which adds
the protocol messages on top) and the block journal
(:mod:`repro.flstore.journal`, which frames placement runs on disk).  It
needs nothing above :mod:`repro.core.record`, so the storage layer can use
it without importing the network layer.  The hot path is ``Record`` /
``LogEntry`` batches, so the encoding is built around them: a single
recursive pass that appends struct-packed bytes directly.

* scalars: ``None``/bools as one tag byte; ints as 8-byte big-endian
  (arbitrary-precision fallback for the rare overflow); floats as IEEE
  doubles; strings/bytes as length-prefixed payloads — the
  length is one byte for payloads under 255 bytes, else ``0xFF`` + u32;
* containers: lists, tuples, and dicts with 4-byte counts — dict keys are
  arbitrary encoded values, not just strings;
* hot value types: ``Record``, ``RecordId``, ``LogEntry`` and
  ``AppendResult`` get bespoke packed layouts; a ``RecordRun`` (tag
  ``0x17``) is its scalars — host, first TOId, count — then the columns of
  a record run (one shared deps tuple, the bodies, the tags), so it costs
  O(1) Python calls whatever its length;
* runs (tag ``0x16``): a list of records, ``(lid, record)`` placements,
  log entries, append results or ``(key, value, lid)`` tag postings packed
  **a column per list** — ids as one ``struct`` each, hosts / keys / whole
  deps tuples dictionary-coded, bodies as a length column plus one
  ``join``, and only the records with tags or a non-``bytes`` body paying
  the per-value encoding — so a run costs a handful of C-level passes
  instead of a Python call per field per element.  One rule picks it, in
  the list encoder, for every writer alike (wire messages, TCP frames,
  journal blocks): a list of at least :data:`_RUN_MIN` elements is the run
  shape of its first element (:data:`_RUN_OF`); a shorter list, or one the
  shape cannot hold exactly, keeps the per-element layout byte for byte;
* extension types: a layer above ``core`` that defines value types of its
  own (the network layer's ``DraftRecord``, ``RecordBatch`` and protocol
  messages, and the draft run shape) installs their layouts in
  :data:`_TYPE_ENCODERS`, :data:`_TAG_DECODERS`, :data:`_RUN_SHAPES` and
  :data:`_RUN_OF` when it is imported.  Nothing in this module depends on
  what is installed.

Encoding is symmetric: ``decode(encode(x)) == x`` for every value built
from the above, with exact Python types.
For *any* byte string :func:`decode_value_binary` returns a value or raises
:class:`~repro.core.errors.NetworkProtocolError`, allocating no more than
a small multiple of the input's length.
"""

from __future__ import annotations

import struct
from itertools import accumulate, repeat
from operator import attrgetter
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

from .errors import NetworkProtocolError
from .record import AppendResult, LogEntry, Record, RecordId, RecordRun

# The record model's types are tuples: a decoder builds one with a single
# C-level ``_tuple_new(T, (...))``, after making the range checks the types'
# constructors make (TOId >= 1, LId >= 0) — raising NetworkProtocolError
# where the constructors raise ConfigurationError.
_tuple_new = tuple.__new__


def _make_rid(host: str, toid: int) -> RecordId:
    if toid < 1:
        raise NetworkProtocolError(f"TOIds start at 1, got {toid}")
    return _tuple_new(RecordId, (host, toid))


def _make_entry(lid: int, record: Record) -> LogEntry:
    if lid < 0:
        raise NetworkProtocolError(f"LIds are non-negative, got {lid}")
    return _tuple_new(LogEntry, (lid, record))


# Value tags (one byte each).  0x14, 0x15 and 0x1F belong to the network
# layer's extension types (:mod:`repro.net.binary_codec`).
_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_BYTES = 0x06
_T_LIST = 0x07
_T_TUPLE = 0x08
_T_DICT = 0x09
_T_BIGINT = 0x0A
_T_RECORD = 0x10
_T_RECORD_ID = 0x11
_T_LOG_ENTRY = 0x12
_T_APPEND_RESULT = 0x13
_T_RUN = 0x16
_T_RECORD_RUN = 0x17

_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_I64_LIMIT = 1 << 63  # ints in [-_I64_LIMIT, _I64_LIMIT) take the i64 form
_F64 = struct.Struct(">d")
_I64U8 = struct.Struct(">qB")  # (toid, internal) pair in the Record layout
_I64U32 = struct.Struct(">qI")  # (first toid, count) in the RecordRun layout

_pack_u32 = _U32.pack
_pack_i64 = _I64.pack
_pack_f64 = _F64.pack
_pack_i64u8 = _I64U8.pack
_unpack_u32 = _U32.unpack_from
_unpack_i64 = _I64.unpack_from
_unpack_f64 = _F64.unpack_from
_unpack_i64u8 = _I64U8.unpack_from
_unpack_i64u32 = _I64U32.unpack_from

# --------------------------------------------------------------------- #
# Extension types
# --------------------------------------------------------------------- #

#: Exact type → ``encoder(value, out)`` for value types defined above
#: ``core``.  The encoder writes its own tag byte first.
_TYPE_ENCODERS: Dict[type, Callable[[Any, bytearray], None]] = {}

#: Tag byte → ``decoder(buf, pos)`` returning ``(value, pos)``; ``pos`` is
#: the byte after the tag.  ``buf`` is ``bytes``, except for the top-level
#: value of :func:`decode_value_binary`, where it is whatever the caller
#: passed (``bytes`` or a read-only ``memoryview`` a decoder may keep).
_TAG_DECODERS: Dict[int, Callable[[Any, int], Tuple[Any, int]]] = {}

# --------------------------------------------------------------------- #
# Encoding
# --------------------------------------------------------------------- #


def _enc_len(n: int, out: bytearray) -> None:
    """Variable-length byte-run prefix: one byte under 255, else 0xFF+u32."""
    if n < 255:
        out.append(n)
    else:
        out.append(255)
        out += _pack_u32(n)


def _enc_record_fields(record: Record, out: bytearray) -> None:
    """Packed Record body shared by the Record and LogEntry layouts."""
    rid = record.rid
    host = rid.host.encode("utf-8")
    _enc_len(len(host), out)
    out += host
    out += _pack_i64u8(rid.toid, 1 if record.internal else 0)
    _encode_value(record.body, out)
    _enc_tag_lists((record.tags,), out)
    _enc_deps(record.deps, out)


def _encode_value(value: Any, out: bytearray) -> None:
    kind = type(value)
    if kind is bytes:
        out.append(_T_BYTES)
        _enc_len(len(value), out)
        out += value
        return
    if kind is str:
        data = value.encode("utf-8")
        out.append(_T_STR)
        n = len(data)
        if n < 255:
            out.append(n)
        else:
            out.append(255)
            out += _pack_u32(n)
        out += data
        return
    if kind is bool:
        out.append(_T_TRUE if value else _T_FALSE)
        return
    if kind is int:
        try:
            packed = _pack_i64(value)
        except struct.error:
            data = str(value).encode("ascii")
            out.append(_T_BIGINT)
            _enc_len(len(data), out)
            out += data
            return
        out.append(_T_INT)
        out += packed
        return
    if value is None:
        out.append(_T_NONE)
        return
    if kind is float:
        out.append(_T_FLOAT)
        out += _pack_f64(value)
        return
    if kind is Record:
        out.append(_T_RECORD)
        _enc_record_fields(value, out)
        return
    if kind is LogEntry:
        out.append(_T_LOG_ENTRY)
        out += _pack_i64(value.lid)
        _enc_record_fields(value.record, out)
        return
    if kind is RecordId:
        out.append(_T_RECORD_ID)
        host = value.host.encode("utf-8")
        _enc_len(len(host), out)
        out += host
        out += _pack_i64(value.toid)
        return
    if kind is AppendResult:
        out.append(_T_APPEND_RESULT)
        host = value.rid.host.encode("utf-8")
        _enc_len(len(host), out)
        out += host
        out += _pack_i64(value.rid.toid)
        out += _pack_i64(value.lid)
        return
    if kind is list:
        if len(value) >= _RUN_MIN:
            first = value[0]
            element = type(first)
            shape = _RUN_OF.get((tuple, len(first)) if element is tuple else element)
            if shape is not None:
                _enc_run(value, shape, out)
                return
        # Per element; the loop stays in line, so a short list costs no extra call.
        out.append(_T_LIST)
        out += _pack_u32(len(value))
        for item in value:
            _encode_value(item, out)
        return
    if kind is tuple:
        out.append(_T_TUPLE)
        out += _pack_u32(len(value))
        for item in value:
            _encode_value(item, out)
        return
    if kind is dict:
        out.append(_T_DICT)
        out += _pack_u32(len(value))
        for key, item in value.items():
            _encode_value(key, out)
            _encode_value(item, out)
        return
    encoder = _TYPE_ENCODERS.get(kind)
    if encoder is not None:
        encoder(value, out)
        return
    # Subclasses of the containers (a namedtuple, an OrderedDict) encode as
    # their base type.
    if isinstance(value, tuple):
        out.append(_T_TUPLE)
        out += _pack_u32(len(value))
        for item in value:
            _encode_value(item, out)
        return
    if isinstance(value, list):
        out.append(_T_LIST)
        out += _pack_u32(len(value))
        for item in value:
            _encode_value(item, out)
        return
    if isinstance(value, dict):
        out.append(_T_DICT)
        out += _pack_u32(len(value))
        for key, item in value.items():
            _encode_value(key, out)
            _encode_value(item, out)
        return
    raise NetworkProtocolError(
        f"cannot encode value of type {type(value).__name__}: {value!r}"
    )


# --------------------------------------------------------------------- #
# Columnar runs (encode)
# --------------------------------------------------------------------- #

#: Shortest list that travels as a run.  A run has a fixed cost the
#: per-element layouts do not (three dictionary tables, three sparse-section
#: headers, a ``struct`` format per column: about 13 µs a message against
#: 2 µs, then 2 µs a record against 4.5).  Timed on this module, encode +
#: decode in µs per message, run vs per-element, ledger-shaped records
#: (512-byte bodies, one shared deps tuple, 20 % tagged):
#:
#:   n   PlaceRecords  ReadNewReply  DraftBatch  DraftCommitBatch  Shipment
#:   4    23 vs 22      25 vs 20     18 vs 15      11 vs 17        27 vs 22
#:   6    25 vs 28      26 vs 25     19 vs 22      13 vs 24        31 vs 31
#:   8    31 vs 40      34 vs 36     24 vs 27      15 vs 32        34 vs 36
#:  12    39 vs 59      43 vs 51     30 vs 39      18 vs 46        42 vs 51
#:
#: Eight is the first length at which the run wins for all five shapes.
#: End to end (four seed-paired ``geo-mp`` ledger runs, 8 against 4) the
#: throughput is the same and the ack p50 3.5 % lower with 8.
_RUN_MIN = 8

#: What makes a list "not a run": an element of another type, a field the
#: packed columns cannot hold exactly (an id outside i64, a non-``str``
#: host or key, a ``bool`` LId in a result or posting, an unhashable deps
#: tuple).  Such a list keeps the per-element encoding, which either carries
#: the value or raises what it always raised.
_NOT_A_RUN = (AttributeError, TypeError, ValueError, struct.error)

#: Shapes of a columnar run (the ``u8`` after the 0x16 tag): what one
#: element of the list is.  3 is the network layer's; 4 (a commit, before
#: commits travelled as runs) is retired.
_RUN_RECORD = 0  # Record
_RUN_PLACEMENT = 1  # (lid, Record)
_RUN_ENTRY = 2  # LogEntry
_RUN_RESULT = 5  # AppendResult
_RUN_POSTING = 6  # (tag key, tag value, lid)

#: shape → (fewest bytes one element occupies, ``encoder(items, out)`` of
#: the columns, ``decoder(buf, pos, n)`` returning ``(items, pos)``).  The
#: byte floor is the element's i64 ids and its u32 body length (dictionary
#: indices vanish with one-entry tables): a count the rest of the frame
#: cannot hold is refused before anything is sized by it, so allocation
#: stays bounded by the frame's length.  The per-count ``">%dq"`` formats go
#: through :mod:`struct`'s own cache, which is bounded too (it starts over
#: at 100 entries).
_RUN_SHAPES: Dict[
    int,
    Tuple[
        int,
        Callable[[List[Any], bytearray], None],
        Callable[[bytes, int, int], Tuple[List[Any], int]],
    ],
] = {}

#: The run rule: a list of at least :data:`_RUN_MIN` elements is encoded as
#: the run shape its first element names here — by exact type, or, for a
#: tuple, by ``(tuple, length)``.  A list whose first element names no shape
#: is encoded per element.
_RUN_OF: Dict[Any, int] = {
    Record: _RUN_RECORD,
    (tuple, 2): _RUN_PLACEMENT,
    LogEntry: _RUN_ENTRY,
    AppendResult: _RUN_RESULT,
    (tuple, 3): _RUN_POSTING,
}

_record_columns = attrgetter("rid.host", "rid.toid", "body", "tags", "deps", "internal")
_entry_columns = attrgetter("lid", "record")
_result_columns = attrgetter("rid", "lid")
_rid_columns = attrgetter("host", "toid")


def _enc_run(items: List[Any], shape: int, out: bytearray) -> None:
    """Encode ``items`` as one columnar run of ``shape``; a list the shape
    cannot hold exactly (see :data:`_NOT_A_RUN`) is encoded per element
    instead — each element on its own, the list never tried as a run again."""
    mark = len(out)
    try:
        out.append(_T_RUN)
        out.append(shape)
        out += _pack_u32(len(items))
        _RUN_SHAPES[shape][1](items, out)
    except _NOT_A_RUN:
        del out[mark:]
        out.append(_T_LIST)
        out += _pack_u32(len(items))
        for item in items:
            _encode_value(item, out)


def _all_of(kind: type, items: Iterable[Any]) -> None:
    if set(map(type, items)) != {kind}:
        raise TypeError(f"not a homogeneous run of {kind.__name__}")


# The column encoders: every pass below is one C-level sweep (``map``,
# ``zip``, ``struct.pack``, ``join``) over the whole run.


def _enc_record_run(records: Sequence[Any], out: bytearray) -> None:
    _all_of(Record, records)
    hosts, toids, bodies, tags, deps, internal = zip(*map(_record_columns, records))
    _enc_str_column(hosts, out)
    out += struct.pack(">%dq" % len(toids), *toids)
    _enc_payload_columns(deps, internal, bodies, tags, out)


def _enc_placement_run(items: List[Any], out: bytearray) -> None:
    _all_of(tuple, items)
    if set(map(len, items)) != {2}:
        raise TypeError("a placement is a (lid, record) pair")
    lids, records = zip(*items)
    out += struct.pack(">%dq" % len(lids), *lids)
    _enc_record_run(records, out)


def _enc_entry_run(items: List[Any], out: bytearray) -> None:
    _all_of(LogEntry, items)
    lids, records = zip(*map(_entry_columns, items))
    out += struct.pack(">%dq" % len(lids), *lids)
    _enc_record_run(records, out)


def _enc_result_run(items: List[Any], out: bytearray) -> None:
    """Hosts, then the TOId and LId columns (one ``struct`` for both)."""
    _all_of(AppendResult, items)
    rids, lids = zip(*map(_result_columns, items))
    _all_of(RecordId, rids)
    _all_of(int, lids)
    hosts, toids = zip(*map(_rid_columns, rids))
    _enc_str_column(hosts, out)
    out += struct.pack(">%dq" % (2 * len(lids)), *toids, *lids)


def _enc_posting_run(items: List[Any], out: bytearray) -> None:
    """Keys, LIds, then the values: an i64 column (flag 1) when every value
    is exactly an ``int``, else (flag 0) one encoded value each."""
    _all_of(tuple, items)
    if set(map(len, items)) != {3}:
        raise TypeError("a posting is a (key, value, lid) triple")
    keys, values, lids = zip(*items)
    _all_of(str, keys)
    _all_of(int, lids)
    _enc_str_column(keys, out)
    out += struct.pack(">%dq" % len(lids), *lids)
    if set(map(type, values)) == {int}:
        out.append(1)
        out += struct.pack(">%dq" % len(values), *values)
    else:
        out.append(0)
        for value in values:
            _encode_value(value, out)


def _enc_payload_columns(
    deps: Sequence[Any],
    internal: Sequence[Any],
    bodies: Sequence[Any],
    tags: Sequence[Any],
    out: bytearray,
) -> None:
    """The columns records and drafts share."""
    # deps: whole tuples, dictionary-coded (a batch shares one or a few).
    table = dict.fromkeys(deps)
    out += _pack_u32(len(table))
    for dep in table:
        if dep:
            _enc_deps(dep, out)
        else:
            out.append(0)
    if len(table) > 1:
        _enc_indices(deps, table, out)

    # internal: positions of the (rare) system records.
    _enc_positions(internal, out)

    # bodies: lengths, then the bytes back to back; anything that is not
    # plain ``bytes`` leaves an empty slot and goes through the generic
    # encoder in the sparse section that follows.
    odd: Sequence[bool] = ()
    plain: Sequence[bytes] = bodies
    if set(map(type, bodies)) != {bytes}:
        odd = [type(body) is not bytes for body in bodies]
        plain = [b"" if flag else body for flag, body in zip(odd, bodies)]
    out += struct.pack(">%dI" % len(plain), *map(len, plain))
    out += b"".join(plain)
    for at in _enc_positions(odd, out):
        _encode_value(bodies[at], out)

    # tags: only the records that have any.
    tagged = _enc_positions(tags, out)
    if tagged:
        _enc_tag_lists(map(tags.__getitem__, tagged), out)


def _enc_str_column(values: Sequence[str], out: bytearray) -> None:
    """A low-cardinality string column: the distinct values, then indices."""
    table = dict.fromkeys(values)
    out += _pack_u32(len(table))
    for text in table:
        data = text.encode("utf-8")
        _enc_len(len(data), out)
        out += data
    if len(table) > 1:
        _enc_indices(values, table, out)


def _enc_indices(values: Sequence[Any], table: Dict[Any, None], out: bytearray) -> None:
    """``n × u32`` positions of ``values`` in ``table`` (first-seen order);
    only a table of two or more entries has them."""
    index = dict(zip(table, range(len(table))))
    out += struct.pack(">%dI" % len(values), *map(index.__getitem__, values))


def _enc_positions(column: Sequence[Any], out: bytearray) -> Sequence[int]:
    """A sparse section's header — ``u32 count`` then ``count × u32`` — of
    where ``column`` holds something truthy; returns those positions, found
    without a Python-level pass when, as usual, there are none."""
    if not any(column):
        out += b"\x00\x00\x00\x00"
        return ()
    positions = [at for at, item in enumerate(column) if item]
    out += struct.pack(">%dI" % (len(positions) + 1), len(positions), *positions)
    return positions


def _enc_deps(deps: Tuple[Tuple[str, int], ...], out: bytearray) -> None:
    """Dependency list as in the Record layout: count, then (dc, toid)."""
    pack_i64 = _pack_i64
    count = len(deps)
    if count < 255:
        out.append(count)
    else:
        out.append(255)
        out += _pack_u32(count)
    for dc, toid in deps:
        data = dc.encode("utf-8")
        n = len(data)
        if n < 255:
            out.append(n)
        else:
            out.append(255)
            out += _pack_u32(n)
        out += data
        out += pack_i64(toid)


def _enc_tag_lists(lists: Iterable[Tuple[Tuple[Any, Any], ...]], out: bytearray) -> None:
    """Tag lists as in the Record layout, back to back: each a count, then
    (key, value) values — string keys and i64 values in line, so a run's
    tags cost one call, not a few per record."""
    pack_i64 = _pack_i64
    for tags in lists:
        count = len(tags)
        if count < 255:
            out.append(count)
        else:
            out.append(255)
            out += _pack_u32(count)
        for key, value in tags:
            if type(key) is str:
                data = key.encode("utf-8")
                out.append(_T_STR)
                n = len(data)
                if n < 255:
                    out.append(n)
                else:
                    out.append(255)
                    out += _pack_u32(n)
                out += data
            else:
                _encode_value(key, out)
            if type(value) is int and -_I64_LIMIT <= value < _I64_LIMIT:
                out.append(_T_INT)
                out += pack_i64(value)
            else:
                _encode_value(value, out)


def encode_value_binary(value: Any) -> bytes:
    """Encode any value into the packed binary form."""
    out = bytearray()
    # An extension type at the top (every protocol message is one) goes
    # straight to its encoder.
    encoder = _TYPE_ENCODERS.get(type(value))
    if encoder is not None:
        encoder(value, out)
    else:
        _encode_value(value, out)
    return bytes(out)


# --------------------------------------------------------------------- #
# Decoding
# --------------------------------------------------------------------- #

#: What hostile bytes can make the decoders raise besides
#: :class:`NetworkProtocolError`: a read past the end (``IndexError``,
#: ``struct.error``), bad UTF-8 or bigint digits (``ValueError``), an
#: unhashable dict key (``TypeError``), nesting deeper than the interpreter
#: allows (``RecursionError``).  The entry points turn every one of them into
#: ``NetworkProtocolError`` — the only decode error servers and runtimes
#: catch.
_MALFORMED = (IndexError, struct.error, ValueError, TypeError, RecursionError)

#: Datacenter-id bytes → interned str.  Host ids repeat constantly on the
#: hot path (there are only a handful of datacenters), so one dict hit
#: replaces a UTF-8 decode per occurrence.  Bounded by :func:`_intern_dc`.
_DC_CACHE: Dict[bytes, str] = {}

#: Far more datacenters than any deployment names; a peer that sends this
#: many distinct host strings is not describing datacenters.
_DC_CACHE_LIMIT = 1024


def _intern_dc(raw: bytes) -> str:
    """Decode a datacenter id missing from :data:`_DC_CACHE` and remember it.

    The cache starts over when full (as :mod:`struct`'s format cache does),
    so an untrusted peer cannot grow it without bound.
    """
    if len(_DC_CACHE) >= _DC_CACHE_LIMIT:
        _DC_CACHE.clear()
    name = _DC_CACHE[raw] = raw.decode("utf-8")
    return name


def _dec_record_fields(buf: bytes, pos: int) -> Tuple[Record, int]:
    unpack_u32 = _unpack_u32
    unpack_i64 = _unpack_i64
    decode_value = _decode_value
    dc_cache = _DC_CACHE

    n = buf[pos]
    pos += 1
    if n == 255:
        (n,) = unpack_u32(buf, pos)
        pos += 4
    raw = buf[pos : pos + n]
    host = dc_cache.get(raw)
    if host is None:
        host = _intern_dc(raw)
    pos += n
    toid, internal = _unpack_i64u8(buf, pos)
    pos += 9
    # Inline the common body shapes (bytes/str payloads) to skip a frame.
    tag = buf[pos]
    if tag == _T_BYTES:
        n = buf[pos + 1]
        pos += 2
        if n == 255:
            (n,) = unpack_u32(buf, pos)
            pos += 4
        body: Any = buf[pos : pos + n]
        pos += n
    elif tag == _T_STR:
        n = buf[pos + 1]
        pos += 2
        if n == 255:
            (n,) = unpack_u32(buf, pos)
            pos += 4
        body = buf[pos : pos + n].decode("utf-8")
        pos += n
    else:
        body, pos = decode_value(buf, pos)
    count = buf[pos]
    pos += 1
    if count == 255:
        (count,) = unpack_u32(buf, pos)
        pos += 4
    if count:
        tags = []
        for _ in range(count):
            # Tag keys are strings and values are usually small scalars;
            # inline those shapes and fall back to the generic decoder.
            tag = buf[pos]
            if tag == _T_STR:
                n = buf[pos + 1]
                pos += 2
                if n == 255:
                    (n,) = unpack_u32(buf, pos)
                    pos += 4
                key: Any = buf[pos : pos + n].decode("utf-8")
                pos += n
            else:
                key, pos = decode_value(buf, pos)
            tag = buf[pos]
            if tag == _T_INT:
                (value,) = unpack_i64(buf, pos + 1)
                pos += 9
            elif tag == _T_STR:
                n = buf[pos + 1]
                pos += 2
                if n == 255:
                    (n,) = unpack_u32(buf, pos)
                    pos += 4
                value = buf[pos : pos + n].decode("utf-8")
                pos += n
            else:
                value, pos = decode_value(buf, pos)
            tags.append((key, value))
        tags = tuple(tags)
    else:
        tags = ()
    count = buf[pos]
    pos += 1
    if count == 255:
        (count,) = unpack_u32(buf, pos)
        pos += 4
    if count:
        deps = []
        for _ in range(count):
            n = buf[pos]
            pos += 1
            if n == 255:
                (n,) = unpack_u32(buf, pos)
                pos += 4
            raw = buf[pos : pos + n]
            dc = dc_cache.get(raw)
            if dc is None:
                dc = _intern_dc(raw)
            pos += n
            (dep_toid,) = unpack_i64(buf, pos)
            pos += 8
            deps.append((dc, dep_toid))
        deps = tuple(deps)
    else:
        deps = ()
    if toid < 1:
        raise NetworkProtocolError(f"TOIds start at 1, got {toid}")
    rid = _tuple_new(RecordId, (host, toid))
    return _tuple_new(Record, (rid, body, tags, deps, internal == 1)), pos


def _dec_tag_lists(buf: bytes, pos: int, lists: int) -> Tuple[List[Tuple[Any, ...]], int]:
    """Inverse of :func:`_enc_tag_lists` for ``lists`` tag lists: string
    keys and int / string values are decoded in line, anything else by the
    generic decoder.  (:func:`_dec_record_fields` keeps its own copy of this
    loop and of :func:`_dec_deps`: a call fewer per record on the
    per-element path.)"""
    unpack_u32 = _unpack_u32
    decoded = []
    for _ in range(lists):
        count = buf[pos]
        pos += 1
        if count == 255:
            (count,) = unpack_u32(buf, pos)
            pos += 4
        tags = []
        for _ in range(count):
            tag = buf[pos]
            if tag == _T_STR:
                n = buf[pos + 1]
                pos += 2
                if n == 255:
                    (n,) = unpack_u32(buf, pos)
                    pos += 4
                key: Any = buf[pos : pos + n].decode("utf-8")
                pos += n
            else:
                key, pos = _decode_value(buf, pos)
            tag = buf[pos]
            if tag == _T_INT:
                (value,) = _unpack_i64(buf, pos + 1)
                pos += 9
            elif tag == _T_STR:
                n = buf[pos + 1]
                pos += 2
                if n == 255:
                    (n,) = unpack_u32(buf, pos)
                    pos += 4
                value = buf[pos : pos + n].decode("utf-8")
                pos += n
            else:
                value, pos = _decode_value(buf, pos)
            tags.append((key, value))
        decoded.append(tuple(tags))
    return decoded, pos


def _dec_deps(buf: bytes, pos: int) -> Tuple[Tuple[Tuple[str, int], ...], int]:
    """Inverse of :func:`_enc_deps`."""
    dc_cache = _DC_CACHE
    count = buf[pos]
    pos += 1
    if count == 255:
        (count,) = _unpack_u32(buf, pos)
        pos += 4
    deps = []
    for _ in range(count):
        n = buf[pos]
        pos += 1
        if n == 255:
            (n,) = _unpack_u32(buf, pos)
            pos += 4
        raw = buf[pos : pos + n]
        dc = dc_cache.get(raw)
        if dc is None:
            dc = _intern_dc(raw)
        pos += n
        (toid,) = _unpack_i64(buf, pos)
        pos += 8
        deps.append((dc, toid))
    return tuple(deps), pos


# --------------------------------------------------------------------- #
# Columnar runs (decode)
# --------------------------------------------------------------------- #


def _dec_run(buf: bytes, pos: int) -> Tuple[List[Any], int]:
    """Inverse of :func:`_enc_run`: the shape's decoder makes one pass per
    column, then one loop that builds the ``n`` objects from the zipped
    columns."""
    shape = buf[pos]
    (n,) = _unpack_u32(buf, pos + 1)
    pos += 5
    entry = _RUN_SHAPES.get(shape)
    if entry is None:
        raise NetworkProtocolError(f"unknown run shape {shape}")
    if n * entry[0] > len(buf) - pos:
        raise NetworkProtocolError(f"run of {n} does not fit its frame")
    return entry[2](buf, pos, n)


def _dec_record_run(buf: bytes, pos: int, n: int) -> Tuple[List[Any], int]:
    new = _tuple_new
    hosts, pos = _dec_str_column(buf, pos, n, True)
    toids = struct.unpack_from(">%dq" % n, buf, pos)
    if n and min(toids) < 1:
        raise NetworkProtocolError(f"TOIds start at 1, got {min(toids)}")
    deps, internal, bodies, tags, pos = _dec_payload_columns(buf, pos + 8 * n, n)
    records = [
        new(Record, (new(RecordId, (host, toid)), body, pairs, dep, flag))
        for host, toid, body, pairs, dep, flag in zip(hosts, toids, bodies, tags, deps, internal)
    ]
    return records, pos


def _dec_placement_run(buf: bytes, pos: int, n: int) -> Tuple[List[Any], int]:
    # Placement LIds are plain ints to the codec: no sign check.
    lids = struct.unpack_from(">%dq" % n, buf, pos)
    records, pos = _dec_record_run(buf, pos + 8 * n, n)
    return list(zip(lids, records)), pos


def _dec_entry_run(buf: bytes, pos: int, n: int) -> Tuple[List[Any], int]:
    lids = struct.unpack_from(">%dq" % n, buf, pos)
    if n and min(lids) < 0:
        raise NetworkProtocolError(f"LIds are non-negative, got {min(lids)}")
    records, pos = _dec_record_run(buf, pos + 8 * n, n)
    return [_tuple_new(LogEntry, pair) for pair in zip(lids, records)], pos


def _dec_result_run(buf: bytes, pos: int, n: int) -> Tuple[List[Any], int]:
    hosts, pos = _dec_str_column(buf, pos, n, True)
    ids = struct.unpack_from(">%dq" % (2 * n), buf, pos)
    toids = ids[:n]
    if n and min(toids) < 1:
        raise NetworkProtocolError(f"TOIds start at 1, got {min(toids)}")
    new = _tuple_new
    results = [
        new(AppendResult, (new(RecordId, (host, toid)), lid))
        for host, toid, lid in zip(hosts, toids, ids[n:])
    ]
    return results, pos + 16 * n


def _dec_posting_run(buf: bytes, pos: int, n: int) -> Tuple[List[Any], int]:
    keys, pos = _dec_str_column(buf, pos, n, False)
    lids = struct.unpack_from(">%dq" % n, buf, pos)
    pos += 8 * n
    flag = buf[pos]
    pos += 1
    values: Sequence[Any]
    if flag == 1:
        values = struct.unpack_from(">%dq" % n, buf, pos)
        pos += 8 * n
    elif flag == 0:
        values = []
        for _ in range(n):
            value, pos = _decode_value(buf, pos)
            values.append(value)
    else:
        raise NetworkProtocolError(f"unknown posting-value column {flag}")
    return list(zip(keys, values, lids)), pos


# Byte floors: ids and a u32 body length; a result's toid + lid; a
# posting's lid + a value of at least one byte.
_RUN_SHAPES[_RUN_RECORD] = (12, _enc_record_run, _dec_record_run)
_RUN_SHAPES[_RUN_PLACEMENT] = (20, _enc_placement_run, _dec_placement_run)
_RUN_SHAPES[_RUN_ENTRY] = (20, _enc_entry_run, _dec_entry_run)
_RUN_SHAPES[_RUN_RESULT] = (16, _enc_result_run, _dec_result_run)
_RUN_SHAPES[_RUN_POSTING] = (9, _enc_posting_run, _dec_posting_run)


def _dec_payload_columns(
    buf: bytes, pos: int, n: int
) -> Tuple[Iterable[Any], List[bool], List[Any], List[Tuple[Any, ...]], int]:
    """The columns records and drafts share — deps, internal flags, bodies,
    tags — as ``n``-long sequences, and the position after them."""
    (count,) = _unpack_u32(buf, pos)
    pos += 4
    if count > len(buf) - pos:
        raise NetworkProtocolError(f"deps table of {count} does not fit its frame")
    table = []
    for _ in range(count):
        if buf[pos]:
            dep, pos = _dec_deps(buf, pos)
        else:
            dep = ()
            pos += 1
        table.append(dep)
    deps, pos = _dec_indexed(table, buf, pos, n)

    internal = [False] * n
    marked, pos = _dec_positions(buf, pos, n)
    for at in marked:
        internal[at] = True

    lens = struct.unpack_from(">%dI" % n, buf, pos)
    ends = list(accumulate(lens, initial=pos + 4 * n))
    pos = ends[-1]
    if pos > len(buf):
        raise NetworkProtocolError("record-run bodies run past the frame")
    bodies: List[Any] = [buf[start:end] for start, end in zip(ends, ends[1:])]
    marked, pos = _dec_positions(buf, pos, n)
    for at in marked:
        bodies[at], pos = _decode_value(buf, pos)

    tags: List[Tuple[Any, ...]] = [()] * n
    marked, pos = _dec_positions(buf, pos, n)
    if marked:
        decoded, pos = _dec_tag_lists(buf, pos, len(marked))
        for at, pairs in zip(marked, decoded):
            tags[at] = pairs
    return deps, internal, bodies, tags, pos


def _dec_str_column(buf: bytes, pos: int, n: int, intern: bool) -> Tuple[Iterable[str], int]:
    """Inverse of :func:`_enc_str_column`; ``intern`` for datacenter ids."""
    (count,) = _unpack_u32(buf, pos)
    pos += 4
    if count > len(buf) - pos:
        raise NetworkProtocolError(f"string table of {count} does not fit its frame")
    table = []
    for _ in range(count):
        m = buf[pos]
        pos += 1
        if m == 255:
            (m,) = _unpack_u32(buf, pos)
            pos += 4
        raw = buf[pos : pos + m]
        pos += m
        if intern:
            text = _DC_CACHE.get(raw)
            if text is None:
                text = _intern_dc(raw)
        else:
            text = raw.decode("utf-8")
        table.append(text)
    return _dec_indexed(table, buf, pos, n)


def _dec_indexed(table: List[Any], buf: bytes, pos: int, n: int) -> Tuple[Iterable[Any], int]:
    """Expand a dictionary-coded column (inverse of :func:`_enc_indices`)."""
    if len(table) == 1:
        return repeat(table[0], n), pos
    indices = struct.unpack_from(">%dI" % n, buf, pos)
    if n and max(indices) >= len(table):
        raise NetworkProtocolError("run dictionary index out of range")
    return [table[i] for i in indices], pos + 4 * n


def _dec_positions(buf: bytes, pos: int, n: int) -> Tuple[Sequence[int], int]:
    """A sparse section's header (inverse of :func:`_enc_positions`)."""
    (count,) = _unpack_u32(buf, pos)
    pos += 4
    if not count:
        return (), pos
    if count > n:
        raise NetworkProtocolError(f"{count} sparse positions in a run of {n}")
    positions = struct.unpack_from(">%dI" % count, buf, pos)
    if max(positions) >= n:
        raise NetworkProtocolError("run sparse position out of range")
    return positions, pos + 4 * count


# --------------------------------------------------------------------- #
# RecordRun: scalars plus the record columns
# --------------------------------------------------------------------- #


def _enc_record_run_value(run: RecordRun, out: bytearray) -> None:
    """Tag, host, first TOId and count, then the columns a record run
    packs (:func:`_enc_payload_columns`) with a one-entry deps table and no
    internal record: a handful of C-level passes whatever the length."""
    out.append(_T_RECORD_RUN)
    host = run.host.encode("utf-8")
    _enc_len(len(host), out)
    out += host
    n = len(run.bodies)
    out += _pack_i64(run.first_toid)
    out += _pack_u32(n)
    _enc_payload_columns((run.deps,) * n, (), run.bodies, run.tags, out)


def _dec_record_run_value(buf: Any, pos: int) -> Tuple[RecordRun, int]:
    if type(buf) is not bytes:
        buf = bytes(buf)  # the top-level value of a memoryview
    n = buf[pos]
    pos += 1
    if n == 255:
        (n,) = _unpack_u32(buf, pos)
        pos += 4
    raw = buf[pos : pos + n]
    host = _DC_CACHE.get(raw)
    if host is None:
        host = _intern_dc(raw)
    pos += n
    first_toid, count = _unpack_i64u32(buf, pos)
    pos += 12
    if first_toid < 1:
        raise NetworkProtocolError(f"TOIds start at 1, got {first_toid}")
    if count < 1 or 4 * count > len(buf) - pos:  # a u32 body length each
        raise NetworkProtocolError(f"a record run of {count} does not fit its frame")
    deps, internal, bodies, tags, pos = _dec_payload_columns(buf, pos, count)
    if type(deps) is not repeat or any(internal):
        raise NetworkProtocolError("a record run has one deps tuple and no internal record")
    return RecordRun(host, first_toid, next(iter(deps)), bodies, tags), pos


_TYPE_ENCODERS[RecordRun] = _enc_record_run_value
_TAG_DECODERS[_T_RECORD_RUN] = _dec_record_run_value


def _decode_value(buf: bytes, pos: int) -> Tuple[Any, int]:
    tag = buf[pos]
    pos += 1
    if tag == _T_INT:
        (value,) = _unpack_i64(buf, pos)
        return value, pos + 8
    if tag == _T_STR:
        n = buf[pos]
        pos += 1
        if n == 255:
            (n,) = _unpack_u32(buf, pos)
            pos += 4
        return buf[pos : pos + n].decode("utf-8"), pos + n
    if tag == _T_BYTES:
        n = buf[pos]
        pos += 1
        if n == 255:
            (n,) = _unpack_u32(buf, pos)
            pos += 4
        return buf[pos : pos + n], pos + n
    if tag == _T_RECORD:
        return _dec_record_fields(buf, pos)
    if tag == _T_LOG_ENTRY:
        (lid,) = _unpack_i64(buf, pos)
        record, pos = _dec_record_fields(buf, pos + 8)
        return _make_entry(lid, record), pos
    if tag == _T_RUN:
        return _dec_run(buf, pos)
    if tag == _T_NONE:
        return None, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_FLOAT:
        (value,) = _unpack_f64(buf, pos)
        return value, pos + 8
    if tag == _T_LIST or tag == _T_TUPLE:
        (count,) = _unpack_u32(buf, pos)
        pos += 4
        items = []
        for _ in range(count):
            item, pos = _decode_value(buf, pos)
            items.append(item)
        return (tuple(items) if tag == _T_TUPLE else items), pos
    if tag == _T_DICT:
        (count,) = _unpack_u32(buf, pos)
        pos += 4
        result: Dict[Any, Any] = {}
        for _ in range(count):
            key, pos = _decode_value(buf, pos)
            value, pos = _decode_value(buf, pos)
            result[key] = value
        return result, pos
    if tag == _T_RECORD_ID:
        n = buf[pos]
        pos += 1
        if n == 255:
            (n,) = _unpack_u32(buf, pos)
            pos += 4
        host = buf[pos : pos + n].decode("utf-8")
        pos += n
        (toid,) = _unpack_i64(buf, pos)
        return _make_rid(host, toid), pos + 8
    if tag == _T_APPEND_RESULT:
        n = buf[pos]
        pos += 1
        if n == 255:
            (n,) = _unpack_u32(buf, pos)
            pos += 4
        host = buf[pos : pos + n].decode("utf-8")
        pos += n
        (toid,) = _unpack_i64(buf, pos)
        pos += 8
        (lid,) = _unpack_i64(buf, pos)
        return _tuple_new(AppendResult, (_make_rid(host, toid), lid)), pos + 8
    if tag == _T_BIGINT:
        n = buf[pos]
        pos += 1
        if n == 255:
            (n,) = _unpack_u32(buf, pos)
            pos += 4
        return int(buf[pos : pos + n].decode("ascii")), pos + n
    decoder = _TAG_DECODERS.get(tag)
    if decoder is not None:
        return decoder(buf, pos)
    raise NetworkProtocolError(f"unknown binary value tag 0x{tag:02x}")


def decode_value_binary(data: bytes, start: int = 0) -> Any:
    """Inverse of :func:`encode_value_binary`.

    ``start`` lets frame handling skip a prefix (the magic byte) without
    copying the buffer.  The top-level extension, Record and LogEntry shapes
    are dispatched directly — they dominate hot-path traffic.  An extension
    decoder gets the input as it came, ``bytes`` or a read-only
    ``memoryview`` (see :data:`_TAG_DECODERS`); everything else is decoded
    from ``bytes``.

    Malformed input of any kind raises :class:`NetworkProtocolError` — the
    one decode error connection loops and runtimes catch (:data:`_MALFORMED`).
    """
    if not isinstance(data, (bytes, memoryview)):
        data = bytes(data)
    try:
        tag = data[start]
        decoder = _TAG_DECODERS.get(tag)
        if decoder is not None:
            value, pos = decoder(data, start + 1)
        else:
            if not isinstance(data, bytes):
                data = bytes(data)
            if tag == _T_RECORD:
                value, pos = _dec_record_fields(data, start + 1)
            elif tag == _T_LOG_ENTRY:
                (lid,) = _unpack_i64(data, start + 1)
                record, pos = _dec_record_fields(data, start + 9)
                value = _make_entry(lid, record)
            else:
                value, pos = _decode_value(data, start)
    except _MALFORMED as exc:
        raise NetworkProtocolError(f"malformed binary value: {exc!r}") from exc
    if pos != len(data):
        raise NetworkProtocolError(
            f"trailing garbage after binary value ({len(data) - pos} bytes)"
        )
    return value
