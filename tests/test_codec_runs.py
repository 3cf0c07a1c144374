"""Columnar runs (binary value tag ``0x16``).

One rule picks them, in the value layer's list encoder: a list of at least
``_RUN_MIN`` elements travels as one packed column per field of the run
shape its first element names — ``Record``, ``(lid, Record)``,
``LogEntry``, ``DraftRecord``, ``DraftCommitted``, ``AppendResult`` or a
``(key, value, lid)`` posting — wherever the list sits (a message field, a
TCP frame's dict, a journal block).  Four things are pinned here:

* (a) round trips over seeded shapes, with exact decoded types;
* (b) golden bytes: what is *not* such a run is byte-identical to the commit
  before runs, and what the rule packs keeps the bytes recorded for it;
* (c) the decoder contract under seeded fuzzing: any byte string either
  decodes or raises ``NetworkProtocolError``, with allocation bounded by
  the frame's length;
* (d) an exact, host-independent cost guard: Python-level calls per record.
"""

from __future__ import annotations

import hashlib
import pickle
import random
import struct
import tracemalloc
from typing import Any, Callable, Dict, Iterator, List, Tuple

import pytest

from repro.chariots.messages import (
    AdmittedBatch,
    DraftBatch,
    DraftCommitBatch,
    DraftCommitted,
    DraftRecord,
    FilterBatch,
    ReplicationShipment,
)
from repro.core.errors import NetworkProtocolError
from repro.core import value_codec
from repro.core.record import AppendResult, LogEntry, Record, RecordId
from repro.flstore.messages import (
    AppendReply,
    AppendRequest,
    IndexUpdate,
    PlaceRecords,
    ReadNewReply,
    ReadReply,
)
from repro.net.binary_codec import (
    LazyRecordBatch,
    decode_value_binary,
    encode_value_binary,
)
from repro.net.protocol import encode_frame_binary
from repro.runtime.messages import RecordBatch

from conftest import python_calls

CROSSOVER = value_codec._RUN_MIN
#: Length of the small runs the structural tests take apart.
RUN_N = CROSSOVER
T_RUN = 0x16

# --------------------------------------------------------------------------- #
# Builders
# --------------------------------------------------------------------------- #

BODIES: Dict[str, Callable[[int], Any]] = {
    "bytes": lambda i: b"body-%05d" % i,
    "empty": lambda i: b"",
    "str": lambda i: "text-%d-é" % i,
    "none": lambda i: None,
    "tuple": lambda i: ("k", i),  # must not be mistaken for a tags tuple
    "dict": lambda i: {"i": i, "nested": [1, (2, None)]},
    "mixed": lambda i: [b"raw-%d" % i, "s%d" % i, None, ("t", i), i, 2.5][i % 6],
}


def make_records(
    n: int, hosts: int = 1, deps: str = "shared", tagged: float = 0.2,
    body: str = "bytes", internal: bool = False, seed: int = 0,
) -> List[Record]:
    rng = random.Random(f"{seed}/{n}/{hosts}/{deps}/{tagged}/{body}")
    shared = (("dc-b", 41), ("dc-c", 7))
    toids = [0] * hosts
    records = []
    for i in range(n):
        h = rng.randrange(hosts)
        toids[h] += 1
        if deps == "shared":
            dep: Tuple[Tuple[str, int], ...] = shared
        elif deps == "distinct":
            dep = (("dc-b", i + 1),)
        else:
            dep = ()
        tags: Tuple[Tuple[str, Any], ...] = ()
        if rng.random() < tagged:
            tags = (("k", rng.randrange(50)), ("who", "u%d" % i), ("f", 1.5))[: 1 + i % 3]
        records.append(
            Record(
                RecordId("dc-%d" % h, toids[h]), BODIES[body](i), tags, dep,
                internal=internal and i % 7 == 3,
            )
        )
    return records


def five_messages(records: List[Record], clients: int = 1) -> List[Any]:
    n = len(records)
    drafts = [
        DraftRecord("dc-0/client/%d" % (i % clients), i + 1, r.body, r.tags, r.deps)
        for i, r in enumerate(records)
    ]
    return [
        PlaceRecords([(1000 + i, r) for i, r in enumerate(records)]),
        ReadNewReply(7, [LogEntry(1000 + i, r) for i, r in enumerate(records)], 1000 + n),
        DraftBatch(drafts),
        DraftCommitBatch(
            [DraftCommitted(d.client, d.seq, r.rid, 1000 + i)
             for i, (d, r) in enumerate(zip(drafts, records))]
        ),
        ReplicationShipment("dc-0", "dc-0/send", "dc-0/store", 3, records, {"dc-0": n}, n, None),
    ]


RUN_FIELD = {
    PlaceRecords: ("placements", tuple),
    ReadNewReply: ("entries", LogEntry),
    DraftBatch: ("drafts", DraftRecord),
    DraftCommitBatch: ("commits", DraftCommitted),
    ReplicationShipment: ("records", Record),
}


@pytest.fixture
def runs_decoded(monkeypatch) -> List[int]:
    """Shapes of the runs the decoder met (decoding is tag-driven, so this
    is exactly "which lists were encoded as runs")."""
    seen: List[int] = []
    inner = value_codec._dec_run

    def spy(buf: bytes, pos: int) -> Any:
        seen.append(buf[pos])
        return inner(buf, pos)

    monkeypatch.setattr(value_codec, "_dec_run", spy)
    return seen


def round_trip(message: Any) -> Any:
    back = decode_value_binary(encode_value_binary(message))
    assert type(back) is type(message)
    assert back == message
    name, element = RUN_FIELD[type(message)]
    items = getattr(back, name)
    assert type(items) is list
    assert all(type(item) is element for item in items)
    # Supervised snapshots pickle whatever actors hold on to.
    assert pickle.loads(pickle.dumps(back)) == message
    return back


# --------------------------------------------------------------------------- #
# (a) Round trips
# --------------------------------------------------------------------------- #

SIZES = [0, 1, CROSSOVER - 1, CROSSOVER, 64]


class TestRoundTrip:
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("hosts", [1, 3])
    @pytest.mark.parametrize("deps", ["shared", "distinct", "empty"])
    @pytest.mark.parametrize("tagged", [0.0, 0.2, 1.0])
    def test_shapes(self, n, hosts, deps, tagged, runs_decoded):
        records = make_records(n, hosts=hosts, deps=deps, tagged=tagged, internal=True)
        for message in five_messages(records, clients=hosts):
            round_trip(message)
        # One run per message from the crossover on, none below it.
        assert sorted(runs_decoded) == ([0, 1, 2, 3, 4] if n >= CROSSOVER else [])

    @pytest.mark.parametrize("body", sorted(BODIES))
    @pytest.mark.parametrize("n", [CROSSOVER, 64])
    def test_body_kinds(self, body, n, runs_decoded):
        records = make_records(n, hosts=2, tagged=0.2, body=body)
        for message in five_messages(records):
            round_trip(message)
        assert sorted(runs_decoded) == [0, 1, 2, 3, 4]

    def test_a_large_run(self, runs_decoded):
        records = make_records(4096, hosts=2, deps="shared", tagged=0.2, body="mixed")
        for message in five_messages(records, clients=3):
            round_trip(message)
        assert sorted(runs_decoded) == [0, 1, 2, 3, 4]

    def test_decoded_objects_are_the_real_frozen_types(self):
        records = make_records(RUN_N, hosts=2, tagged=1.0, internal=True)
        place, read_new, drafts, _commits, shipment = (
            round_trip(m) for m in five_messages(records)
        )
        for original, (lid, record), entry, draft, shipped in zip(
            records, place.placements, read_new.entries, drafts.drafts, shipment.records
        ):
            assert hash(record) == hash(entry.record) == hash(shipped) == hash(original)
            assert hash(entry) == hash(LogEntry(lid, original))
            assert hash(draft) == hash(
                DraftRecord(draft.client, draft.seq, original.body, original.tags, original.deps)
            )
            assert record.internal is original.internal
            assert {record: 1}[original] == 1
            with pytest.raises(AttributeError):
                record.body = b"frozen"  # type: ignore[misc]

    def test_batch_shared_values_decode_to_one_object(self):
        back = round_trip(five_messages(make_records(16, deps="shared"))[0])
        records = [record for _lid, record in back.placements]
        assert all(r.deps is records[0].deps for r in records)
        assert all(r.rid.host is records[0].rid.host for r in records)

    def test_lids_outside_the_packed_column_fall_back_cleanly(self, runs_decoded):
        records = make_records(RUN_N)
        lids = list(range(RUN_N))
        for odd in (2**63, -(2**70)):
            round_trip(PlaceRecords(list(zip(lids[:3] + [odd] + lids[4:], records))))
        round_trip(
            DraftCommitBatch(
                [DraftCommitted("c", i + 1, r.rid, 2**64 + i) for i, r in enumerate(records)]
            )
        )
        assert runs_decoded == []
        # Placement LIds are plain ints to the codec: negative ones fit the column.
        round_trip(PlaceRecords(list(zip([lid - 3 for lid in lids], records))))
        assert runs_decoded == [1]

    def test_heterogeneous_lists_keep_the_per_element_encoding(self, runs_decoded):
        *records, last = make_records(RUN_N + 1)
        placements = list(enumerate(records))
        odd_lists = [
            PlaceRecords(placements + [[RUN_N, last]]),
            PlaceRecords(placements + [(RUN_N, last, "x")]),
            PlaceRecords(placements + [(None, last)]),
            PlaceRecords(placements + [(RUN_N, LogEntry(RUN_N, last))]),
            ReadNewReply(1, [LogEntry(i, r) for i, r in placements] + [last], RUN_N),
            DraftBatch([DraftRecord("c", i, b"") for i in range(RUN_N)] + [last]),
            DraftCommitBatch(
                [DraftCommitted("c", i, r.rid, i) for i, r in placements]
                + [DraftCommitted("c", 9, None, 9)]
            ),
            DraftCommitBatch([DraftCommitted(None, i, r.rid, i) for i, r in placements]),
            DraftCommitBatch([DraftCommitted("c", i, r.rid, 1.5) for i, r in placements]),
            ReplicationShipment("A", "s", "m", 1, records + [LogEntry(0, last)]),
        ]
        for message in odd_lists:
            assert decode_value_binary(encode_value_binary(message)) == message
        assert runs_decoded == []

    def test_the_element_type_picks_the_run(self, runs_decoded):
        records = make_records(32, tagged=1.0)
        entries = [LogEntry(i, r) for i, r in enumerate(records)]
        drafts = [DraftRecord("c", i, b"") for i in range(32)]
        results = [AppendResult(r.rid, i) for i, r in enumerate(records)]
        postings = [("k", i % 5, i) for i in range(32)]
        cases = [
            (records, [0]),
            ([(e.lid, e.record) for e in entries], [1]),
            (entries, [2]),
            (drafts, [3]),
            (results, [5]),
            (postings, [6]),
            (ReadReply(1, entries), [2]),
            (AppendRequest(1, records), [0]),
            (AppendReply(1, results, count=32), [5]),
            (IndexUpdate(postings), [6]),
            (FilterBatch(drafts, records), [3, 0]),
            (AdmittedBatch(drafts, records), [3, 0]),
            ({"type": "append", "records": records, "min_lid": None}, [0]),
            ({"type": "append_reply", "results": results}, [5]),
            ({"type": "read_reply", "entries": entries, "error": None}, [2]),
            ({"type": "index_update", "postings": postings}, [6]),
            ((records, entries), [0, 2]),
            (RecordBatch(records), []),  # its own frame, not a list
        ]
        for value, shapes in cases:
            runs_decoded.clear()
            assert decode_value_binary(encode_value_binary(value)) == value
            assert runs_decoded == shapes, value

    def test_what_a_shape_cannot_hold_keeps_the_per_element_bytes(self, runs_decoded):
        records = make_records(RUN_N)
        results = [AppendResult(r.rid, i) for i, r in enumerate(records)]
        postings = [("k", i, i) for i in range(RUN_N)]

        def per_element(items: List[Any]) -> bytes:
            return struct.pack(">BI", 0x07, len(items)) + b"".join(map(encode_value_binary, items))

        for items in [
            # short
            records[:-1],
            results[:-1],
            postings[:-1],
            # heterogeneous
            results[:-1] + [records[0]],
            postings[:-1] + [("k", 1)],
            postings[:-1] + [["k", 1, 2]],
            [(1, "k", 2)] * RUN_N,
            # unrepresentable
            postings[:-1] + [(b"k", 1, 2)],
            postings[:-1] + [(("k", 0), 1, 2)],
            postings[:-1] + [("k", 1, True)],
            postings[:-1] + [("k", 1, 2**63)],
            postings[:-1] + [("k", 2**70, 2)],
            [[r] for r in records],  # a list of lists: each inner list is short
        ]:
            assert encode_value_binary(items) == per_element(items)
            back = decode_value_binary(per_element(items))
            assert back == items and repr(back) == repr(items)
        # An append result's LId is an i64 in either layout.
        bool_lid = results[:-1] + [AppendResult(records[0].rid, True)]
        assert encode_value_binary(bool_lid) == per_element(bool_lid)
        assert runs_decoded == []

    @pytest.mark.parametrize(
        "value",
        [0, -(2**63), 2**63 - 1, True, False, 2.5, None, "text-é", b"\x00raw", ("t", 1)],
        ids=["int", "i64-min", "i64-max", "true", "false", "float", "none", "str", "bytes", "tuple"],
    )
    def test_posting_runs_keep_exact_types(self, value, runs_decoded):
        postings = [("k%d" % (i % 3), value if i % 2 else i, i * 7) for i in range(RUN_N)]
        postings[0] = ("k0", value, -(2**63))
        postings[-1] = ("k1", 1, 2**63 - 1)
        back = decode_value_binary(encode_value_binary(postings))
        assert back == postings and repr(back) == repr(postings)
        assert [type(v) for _k, v, _l in back] == [type(v) for _k, v, _l in postings]
        assert runs_decoded == [6]

    def test_result_runs_keep_exact_types(self, runs_decoded):
        hosts = ["A", "client/c0", "A", "é"]
        results = [
            AppendResult(RecordId(hosts[i % 4], 2**63 - 1 if i == 3 else i + 1), lid)
            for i, lid in enumerate([0, -(2**63), 2**63 - 1] + list(range(RUN_N)))
        ]
        back = decode_value_binary(encode_value_binary(results))
        assert back == results and repr(back) == repr(results)
        assert all(type(r) is AppendResult and type(r.rid) is RecordId for r in back)
        assert runs_decoded == [5]

    def test_unencodable_body_still_raises_the_codec_error(self):
        records = make_records(RUN_N)
        records[3] = Record(RecordId("dc-0", 99), object())
        with pytest.raises(NetworkProtocolError, match="cannot encode"):
            encode_value_binary(ReplicationShipment("A", "s", "m", 1, records))


# --------------------------------------------------------------------------- #
# (b) Golden bytes: what is not a run is byte-identical to the parent commit
# --------------------------------------------------------------------------- #


def _golden_record(i: int) -> Record:
    return Record(
        rid=RecordId("A" if i % 2 else "dc-b", i + 1),
        body=b"body-%03d" % i,
        tags=(("k", i % 5), ("s", "v%d" % i)) if i % 3 == 0 else (),
        deps=(("dc-b", i),) if i % 2 else (),
    )


#: name → (length, sha256) of the encoding, recorded with the builders
#: below at the commit before runs existed — except the frames holding a
#: list of eight or more records, entries, results or postings, which the
#: list rule packs as runs: those were recorded when the rule moved from a
#: per-message field table into the list encoder.
GOLDEN = {
    "tcp_append_request": (523, "ca2e7ec9af1cbc494833c0e5ce64015f71ea5f4078ca06e32ec4209c637ec1d9"),
    "append_reply": (92, "1429cb7a0bd61ddc7695ea46ce36e6e1604530d27a332a319968862193fd67db"),
    "read_reply_1": (74, "4e7aca629467c2c904d42a9307d1afc0f02a70a0ea470796a1f6ff108e83b329"),
    "read_reply_10": (575, "b004657b2d218359d9261443b069543dbcf288d5f443f2cfbfd74ed865828a57"),
    "tcp_append_reply": (107, "22ee35e26df565628e5356da3013611a1c8e27dad14dabc02e60786cb9fbb9ca"),
    "tcp_read_reply_1": (96, "b6fe0281436c8876f556ab31efc29278455b62d5d91925740f496f323e8b5c6a"),
    "tcp_read_reply_10": (597, "cf7c7a2b0616c0c1c250108dda8f5f0265aef8f4eda59197b49478c42a038d1a"),
    "tcp_append_reply_10": (256, "cad0a9be83d4c4d57ed8367b3b5852542d6c88fc0a7296994f86dbbb3d6c6b75"),
    "tcp_index_update_12": (245, "2e4b30b84614178fd08f0bbbb85fd79d5f4673dd34b510e17fa4524da28d490a"),
    "record": (46, "adcc7c0dbd4cdade1bf0632d2b8dd964f0656d46d6aa79024a8e42c36559c41c"),
    "log_entry": (64, "31f9a066767d5b999c59abd8eea012eac16f49b167eefab3f7b968821c5615a0"),
    "record_batch": (431, "17ddce7419cdc85ed658950d8bcbd67054bf162881b431a4ed2ee092c70a8c4d"),
    # Pipeline messages below the crossover keep the per-element form too.
    "draft": (64, "d52845c1ec1ffba110bd84085dea052ef4a0f2e280f1d5963afc33af53dd7fc4"),
    "draft_batch_3": (138, "96182a8801c54bd9fffb546cc417725c9fd00af274b22c1cb7fea8216ff97ee2"),
    "read_new_reply_3": (162, "ec4ced6279276cd3bbf049ea4a4bddb3a8a64aa7163ad7f88ea9337543a335ca"),
    "place_records_3": (162, "a7537da0ea4cf0cf540b56026f1385e897478ab4fa7c4cf19a2fd583a15930e2"),
}


def golden_cases() -> Dict[str, bytes]:
    records = [_golden_record(i) for i in range(10)]
    entries = [LogEntry(100 + i, r) for i, r in enumerate(records)]
    results = [AppendResult(r.rid, 100 + i) for i, r in enumerate(records[:3])]
    drafts = [
        DraftRecord("A/client/%d" % (i % 2), i + 1, r.body, r.tags, r.deps)
        for i, r in enumerate(records)
    ]
    return {
        "tcp_append_request": encode_frame_binary(
            {"type": "append", "records": records, "min_lid": None}
        ),
        "append_reply": encode_value_binary(AppendReply(7, results, count=3)),
        "read_reply_1": encode_value_binary(ReadReply(8, entries[:1])),
        "read_reply_10": encode_value_binary(ReadReply(9, entries)),
        "tcp_append_reply": encode_frame_binary({"type": "append_reply", "results": results}),
        "tcp_append_reply_10": encode_frame_binary(
            {"type": "append_reply", "results": [AppendResult(r.rid, 100 + i) for i, r in enumerate(records)]}
        ),
        "tcp_index_update_12": encode_frame_binary(
            {"type": "index_update", "postings": [("k", i % 5, 100 + i) for i in range(12)]}
        ),
        "tcp_read_reply_1": encode_frame_binary({"type": "read_reply", "entries": entries[:1]}),
        "tcp_read_reply_10": encode_frame_binary({"type": "read_reply", "entries": entries}),
        "record": encode_value_binary(records[0]),
        "log_entry": encode_value_binary(entries[3]),
        "record_batch": encode_value_binary(RecordBatch(records)),
        "draft": encode_value_binary(drafts[3]),
        "draft_batch_3": encode_value_binary(DraftBatch(drafts[:3])),
        "read_new_reply_3": encode_value_binary(ReadNewReply(4, entries[:3], 102)),
        "place_records_3": encode_value_binary(
            PlaceRecords([(e.lid, e.record) for e in entries[:3]])
        ),
    }


class TestGoldenBytes:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_encoding_is_byte_identical_to_the_parent_commit(self, name):
        wire = golden_cases()[name]
        assert (len(wire), hashlib.sha256(wire).hexdigest()) == GOLDEN[name]

    def test_spot_check_against_literal_bytes(self):
        # Two of the digests above, spelled out, so a mismatch can be read.
        cases = golden_cases()
        assert cases["record"].hex() == (
            "100464632d620000000000000001000608626f64792d3030300205016b03"
            "00000000000000000501730502763000"
        )
        assert cases["log_entry"].hex() == (
            "12000000000000006701410000000000000004000608626f64792d303033"
            "0205016b03000000000000000305017305027633010464632d6200000000"
            "00000003"
        )


# --------------------------------------------------------------------------- #
# (c) Decoder contract under hostile bytes
# --------------------------------------------------------------------------- #


def decode_fully(wire: bytes) -> None:
    """Decode, and materialise every lazy batch the value holds."""
    stack = [decode_value_binary(wire)]
    while stack:
        value = stack.pop()
        if isinstance(value, LazyRecordBatch):
            value.records
        elif isinstance(value, (list, tuple)):
            stack.extend(value)
        elif isinstance(value, dict):
            stack.extend(value.values())


def survives(wire: bytes) -> bool:
    """True if ``wire`` decodes; False if refused with the one allowed error."""
    try:
        decode_fully(wire)
    except NetworkProtocolError:
        return False
    return True


class TestNamedHostileFrames:
    """The four leaks found on the parent commit, by name."""

    @pytest.mark.parametrize(
        "wire",
        [
            pytest.param(b"\x07\x00\x00\x00\x01" * 5000 + b"\x00", id="5000-nested-lists"),
            pytest.param(b"\x09\x00\x00\x00\x01\x07\x00\x00\x00\x00\x00", id="list-as-dict-key"),
            pytest.param(b"\x05\x02\xff\xfe", id="invalid-utf8"),
            pytest.param(b"\x0a\x02zz", id="bigint-not-a-number"),
            pytest.param(b"\x0a\xff\x00\x00\x13\x88" + b"9" * 5000, id="bigint-too-long"),
        ],
    )
    def test_raises_the_protocol_error(self, wire):
        with pytest.raises(NetworkProtocolError):
            decode_value_binary(wire)

    def test_corrupt_text_inside_a_batch_span_fails_on_materialisation(self):
        wire = bytearray(encode_value_binary(RecordBatch([Record(RecordId("A", 1), "text")])))
        wire[wire.index(b"text")] = 0xFF
        lazy = decode_value_binary(bytes(wire))
        with pytest.raises(NetworkProtocolError):
            lazy.records

    def test_datacenter_intern_cache_is_bounded(self):
        limit = value_codec._DC_CACHE_LIMIT
        for i in range(limit + 50):
            decode_value_binary(encode_value_binary(Record(RecordId("host-%d" % i, 1), b"")))
            assert len(value_codec._DC_CACHE) <= limit


def run_frames(**shape: Any) -> List[bytes]:
    return [encode_value_binary(m) for m in five_messages(make_records(RUN_N, **shape))]


def result_and_posting_runs() -> List[bytes]:
    """A result run, and posting runs with an i64 value column and without."""
    records = make_records(RUN_N, hosts=2)
    return [
        encode_value_binary([AppendResult(r.rid, 100 + i) for i, r in enumerate(records)]),
        encode_value_binary([("k%d" % (i % 2), i, 100 + i) for i in range(RUN_N)]),
        encode_value_binary([("k", [None, "v", b"b", 1.5, True][i % 5], i) for i in range(RUN_N)]),
    ]


def set_u32(wire: bytes, offset: int, value: int) -> bytes:
    return wire[:offset] + struct.pack(">I", value) + wire[offset + 4 :]


def set_i64(wire: bytes, offset: int, value: int) -> bytes:
    return wire[:offset] + struct.pack(">q", value) + wire[offset + 8 :]


class TestMalformedRuns:
    def test_count_is_checked_before_anything_is_sized_by_it(self):
        for wire in run_frames() + result_and_posting_runs():
            at = wire.index(bytes([T_RUN])) + 2
            tracemalloc.start()
            try:
                for count in (2**32 - 1, 2**31, 10**6, RUN_N + 1):
                    with pytest.raises(NetworkProtocolError):
                        decode_value_binary(set_u32(wire, at, count))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 256 * 1024

    def test_unknown_shape_is_refused(self):
        wire = run_frames()[0]
        at = wire.index(bytes([T_RUN])) + 1
        assert 0x7F not in value_codec._RUN_SHAPES
        with pytest.raises(NetworkProtocolError, match="shape"):
            decode_value_binary(wire[:at] + b"\x7f" + wire[at + 1 :])

    def test_unknown_posting_value_column_is_refused(self):
        wire = result_and_posting_runs()[1]
        flag = wire.index(struct.pack(">q", 100 + RUN_N - 1)) + 8
        assert wire[flag] == 1
        with pytest.raises(NetworkProtocolError, match="posting-value column"):
            decode_value_binary(wire[:flag] + b"\x02" + wire[flag + 1 :])

    def test_dictionary_indices_are_bounds_checked(self):
        wire = encode_value_binary(five_messages(make_records(RUN_N, hosts=3, seed=4))[4])
        table = wire.index(b"\x00\x00\x00\x03\x04dc-")  # the three-entry host table
        indices = table + 4 + 3 * 5
        assert decode_value_binary(wire)
        with pytest.raises(NetworkProtocolError, match="index"):
            decode_value_binary(set_u32(wire, indices, 3))

    def test_toid_and_lid_invariants_are_kept(self):
        records = make_records(RUN_N)
        shipment = encode_value_binary(five_messages(records)[4])
        toid_column = shipment.index(struct.pack(">%dq" % RUN_N, *range(1, RUN_N + 1)))
        with pytest.raises(NetworkProtocolError, match="TOIds start at 1"):
            decode_value_binary(set_i64(shipment, toid_column + 16, 0))
        commits = encode_value_binary(five_messages(records)[3])
        toid_column = commits.rindex(struct.pack(">%dq" % RUN_N, *range(1, RUN_N + 1)))
        with pytest.raises(NetworkProtocolError, match="TOIds start at 1"):
            decode_value_binary(set_i64(commits, toid_column, -5))
        reply = encode_value_binary(five_messages(records)[1])
        lid_column = reply.index(struct.pack(">q", 1000))
        with pytest.raises(NetworkProtocolError, match="LIds are non-negative"):
            decode_value_binary(set_i64(reply, lid_column, -1))

    def test_body_lengths_may_not_run_past_the_frame(self):
        wire = encode_value_binary(five_messages(make_records(RUN_N, tagged=0.0))[4])
        lens = wire.index(struct.pack(">%dI" % RUN_N, *[10] * RUN_N))
        with pytest.raises(NetworkProtocolError):
            decode_value_binary(set_u32(wire, lens + 16, 2**31))
        with pytest.raises(NetworkProtocolError):
            decode_value_binary(set_u32(wire, lens, 11))

    def test_sparse_positions_are_bounds_checked(self):
        records = make_records(RUN_N, tagged=0.0)
        records[2] = Record(records[2].rid, "odd body", (), records[2].deps)
        wire = encode_value_binary(five_messages(records)[4])
        odd = wire.index(struct.pack(">II", 1, 2) + b"\x05\x08odd body")
        with pytest.raises(NetworkProtocolError, match="sparse"):
            decode_value_binary(set_u32(wire, odd + 4, RUN_N))
        with pytest.raises(NetworkProtocolError, match="sparse"):
            decode_value_binary(set_u32(wire, odd, RUN_N + 1))


def fuzz_seeds() -> List[bytes]:
    """Small frames of every kind the fuzzers mutate."""
    records = make_records(
        RUN_N, hosts=2, deps="distinct", tagged=0.4, body="mixed", internal=True
    )
    seeds = [encode_value_binary(m) for m in five_messages(records, clients=2)]
    seeds += run_frames(hosts=1, deps="shared", tagged=0.0)
    seeds += result_and_posting_runs()
    seeds.append(encode_value_binary(RecordBatch(records)))
    seeds.append(encode_value_binary({"batch": RecordBatch(records[:2]), "n": [1, (2.5, None)]}))
    results = [AppendResult(r.rid, 100 + i) for i, r in enumerate(records)]
    postings = [("k", i % 3, 100 + i) for i in range(RUN_N)]
    for frame in (
        {"type": "append", "records": records, "min_lid": None},
        {"type": "append_reply", "results": results},
        {"type": "index_update", "postings": postings},
    ):
        seeds.append(encode_frame_binary(frame)[5:])
    seeds.append(encode_value_binary(ReadReply(3, [LogEntry(i, r) for i, r in enumerate(records)])))
    seeds.append(
        encode_value_binary(
            [2**70, -1, "text", b"raw", True, {"k": (1, [2, {"x": None}])},
             AppendResult(RecordId("A", 2), 9), DraftRecord("c", 1, None, (("t", 1),), (("B", 2),))]
        )
    )
    return seeds


def mutations(seeds: List[bytes], rng: random.Random, rounds: int) -> Iterator[bytes]:
    """Truncate at every offset, then ``rounds`` each of: bit flip, byte
    overwrite, splice from another frame, and count / length inflation."""
    for wire in seeds:
        for cut in range(len(wire)):
            yield wire[:cut]
    inflated = (0xFFFFFFFF, 0x7FFFFFFF, 0x80000000, 0x00FFFFFF, 65536, 255, 6, 0)
    for _ in range(rounds):
        wire = rng.choice(seeds)
        at = rng.randrange(len(wire))
        yield wire[:at] + bytes([wire[at] ^ (1 << rng.randrange(8))]) + wire[at + 1 :]
        yield wire[:at] + bytes([rng.choice((0x00, 0x16, 0x15, 0x07, 0x09, 0xFF))]) + wire[at + 1 :]
        other = rng.choice(seeds)
        start = rng.randrange(len(other))
        chunk = other[start : start + rng.randrange(1, 40)]
        yield wire[:at] + chunk + wire[at + (len(chunk) if rng.random() < 0.5 else 0) :]
        yield set_u32(wire, min(at, max(0, len(wire) - 4)), rng.choice(inflated))


def fuzz(rounds: int, seed: int) -> Tuple[int, int]:
    """Run the mutation sweep; returns (mutations tried, of which decoded)."""
    seeds = fuzz_seeds()
    longest = max(len(wire) for wire in seeds)
    tried = decoded = 0
    tracemalloc.start()
    try:
        for wire in mutations(seeds, random.Random(seed), rounds):
            tried += 1
            decoded += survives(wire)  # anything but NetworkProtocolError fails the test
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Allocation is bounded by the frame: a few hundred bytes of input never
    # cost more than a fixed, small multiple (hostile counts are refused
    # before they size anything).
    assert peak < 512 * 1024 + 64 * longest, peak
    return tried, decoded


class TestFuzz:
    def test_seeded_mutations_decode_or_raise_the_protocol_error(self):
        for wire in fuzz_seeds():
            assert survives(wire)
        tried, decoded = fuzz(rounds=5000, seed=20181)
        assert tried >= 20_000
        assert 0 < decoded < tried  # both outcomes are exercised

    @pytest.mark.slow
    def test_longer_sweep(self):
        for seed in range(4):
            tried, _decoded = fuzz(rounds=25_000, seed=seed)
            assert tried >= 100_000


# --------------------------------------------------------------------------- #
# (d) Calls per record: an exact, host-independent cost guard
# --------------------------------------------------------------------------- #


def ledger_shaped(n: int) -> Dict[str, Any]:
    """The four crossing messages in the perf ledger's shape: 512-byte
    bodies, one batch-shared deps tuple, 20 % tagged."""
    deps = (("B", 41),)
    records = [
        Record(
            RecordId("A", i + 1), bytes([i % 251]) * 512,
            (("k", i % 50),) if i % 5 == 0 else (), deps,
        )
        for i in range(n)
    ]
    return {
        "PlaceRecords": PlaceRecords([(100 + i, r) for i, r in enumerate(records)]),
        "ReadNewReply": ReadNewReply(
            7, [LogEntry(100 + i, r) for i, r in enumerate(records)], 100 + n
        ),
        "DraftBatch": DraftBatch(
            [DraftRecord("A/client/0", i + 1, r.body, r.tags, ()) for i, r in enumerate(records)]
        ),
        "DraftCommitBatch": DraftCommitBatch(
            [DraftCommitted("A/client/0", i + 1, r.rid, 100 + i) for i, r in enumerate(records)]
        ),
    }


def tcp_shaped() -> Dict[str, Any]:
    """The ``flstore-tcp-mixed`` frames: a 20-record append (512-byte
    bodies, every record tagged), its 20 results, and one gossip tick's
    650 postings."""
    records = [
        Record.make("client/c0", t, bytes([t % 251]) * 512, tags={"k": t % 16})
        for t in range(1, 21)
    ]
    return {
        "append": {"type": "append", "records": records, "min_lid": None},
        "append_reply": {
            "type": "append_reply",
            "results": [AppendResult(r.rid, 100 + i) for i, r in enumerate(records)],
        },
        "index_update": {
            "type": "index_update",
            "postings": [("k", i % 16, 100 + i) for i in range(650)],
        },
    }


#: Calls made for the one-record messages at the commit before runs
#: (CPython 3.11; counted with ``python_calls`` there).
PARENT_CALLS_ONE_RECORD = {
    ("DraftBatch", "encode"): 12,
    ("DraftBatch", "decode"): 9,
    ("ReadNewReply", "encode"): 16,
    ("ReadNewReply", "decode"): 9,
}


class TestCallsPerRecord:
    @pytest.mark.parametrize(
        "name", ["PlaceRecords", "ReadNewReply", "DraftBatch", "DraftCommitBatch"]
    )
    def test_a_256_record_message_costs_at_most_one_call_per_record(self, name):
        # The per-element walk made about 8 calls per record to encode and
        # 3-7 to decode; a slide back to it fails here, not in a benchmark.
        message = ledger_shaped(256)[name]
        wire = encode_value_binary(message)
        assert decode_value_binary(wire) == message
        assert python_calls(encode_value_binary, message) / 256 <= 1.0
        assert python_calls(decode_value_binary, wire) / 256 <= 1.0

    @pytest.mark.parametrize(
        "name, n", [("append", 20), ("append_reply", 20), ("index_update", 650)]
    )
    def test_a_tcp_frame_costs_at_most_one_call_per_element(self, name, n):
        # The shapes of flstore-tcp-mixed: 20-record appends, their replies,
        # and one gossip tick's postings.  Per element they made 9.6, 2.5
        # and 5 calls to encode (2.4, 2.3, 4 to decode) before the list rule.
        message = tcp_shaped()[name]
        wire = encode_value_binary(message)
        assert decode_value_binary(wire) == message
        assert python_calls(encode_value_binary, message) / n <= 1.0
        assert python_calls(decode_value_binary, wire) / n <= 1.0

    @pytest.mark.parametrize("name", ["DraftBatch", "ReadNewReply"])
    def test_a_one_record_message_makes_no_more_calls_than_before(self, name):
        # A single interactive append is one-draft bursts all the way.
        message = ledger_shaped(1)[name]
        wire = encode_value_binary(message)
        encode_calls = python_calls(encode_value_binary, message)
        decode_calls = python_calls(decode_value_binary, wire)
        assert encode_calls <= PARENT_CALLS_ONE_RECORD[(name, "encode")]
        assert decode_calls <= PARENT_CALLS_ONE_RECORD[(name, "decode")]
