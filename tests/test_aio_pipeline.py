"""The full Chariots pipeline over real TCP sockets (repro.net.aio_runtime)."""

import pytest

from repro.chariots import ChariotsDeployment
from repro.core import ReadRules
from repro.core.errors import ConfigurationError
from repro.net.aio_runtime import AioRuntime


def _codec_samples():
    """One (or more) instances of every registered protocol message type.

    Bodies exercise the awkward value shapes the codec must preserve:
    nested tuples-in-lists, bytes, non-string dict keys, large ints.
    """
    from repro.baseline.sequencer import ReservedRange, SequencerRequest
    from repro.chariots import messages as cmsg
    from repro.core import ReadRules, Record
    from repro.core.record import AppendResult, LogEntry, RecordId
    from repro.flstore import messages as fmsg

    record = Record.make("A", 1, {"k": [1, (2, 3)]}, tags={"t": 1}, deps={"B": 2})
    nested = Record.make(
        "B",
        7,
        {3: "int-key", "blob": b"\x00\xff", "deep": [{"x": (1, [2])}, None, 2**72]},
        tags={"t": -1.5},
    )
    entry = LogEntry(4, record)
    return [
        record,
        nested,
        record.rid,
        RecordId("dc/with:odd chars", 2**40),
        entry,
        AppendResult(record.rid, 9),
        ReadRules(min_lid=2, tag_key="t", tag_value=1, limit=5),
        cmsg.Token({"A": 1, "B": 3}, 2, [nested]),
        *_codec_message_samples(record, nested, entry, cmsg, fmsg),
        SequencerRequest(1, 4),
        ReservedRange(1, 0, 4),
    ]


def _codec_message_samples(record, nested, entry, cmsg, fmsg):
    from repro.core import ReadRules
    from repro.core.record import AppendResult

    return [
        fmsg.AppendRequest(1, [record, nested], min_lid=3, want_results=False),
        fmsg.AppendReply(1, [AppendResult(record.rid, 3)], count=5, error=None),
        fmsg.PlaceRecords([(0, record)]),
        fmsg.ReadRequest(2, lid=1),
        fmsg.ReadRequest(3, rules=ReadRules(tag_key="t", limit=2)),
        fmsg.ReadReply(2, [entry]),
        fmsg.ReadNewRequest(4, after_lid=7, limit=10),
        fmsg.ReadNewReply(4, [entry], upto=4),
        fmsg.GossipHL("m0", 12),
        fmsg.HeadRequest(5),
        fmsg.HeadReply(5, 11),
        fmsg.IndexUpdate([("k", 1, 0)]),
        fmsg.LookupRequest(6, "k", tag_value=1, limit=3),
        fmsg.LookupReply(6, [0, 2]),
        fmsg.SessionRequest(7),
        fmsg.SessionInfo(7, ["m0"], ["ix"], 10, 3, [(0, 10, ("m0",))], "m0"),
        fmsg.LoadReport("m0", 100, 2.5),
        fmsg.TruncateBelow({"A": 3}, keep_from_lid=9),
        fmsg.PruneIndexBelow(4),
        fmsg.GcReport("m0", 5),
        cmsg.DraftRecord("c", 1, "body", tags=(("t", 1),), deps=(("B", 2),)),
        cmsg.DraftBatch([cmsg.DraftRecord("c", 1, None)]),
        cmsg.FilterBatch(drafts=[cmsg.DraftRecord("c", 1, 1)], externals=[record]),
        cmsg.AdmittedBatch(externals=[record]),
        cmsg.TokenPass(cmsg.Token({"A": 1}, 2, [record])),
        cmsg.DraftCommitted("c", 1, record.rid, 0),
        cmsg.DraftCommitBatch([cmsg.DraftCommitted("c", 1, record.rid, 0)]),
        cmsg.FrontierUpdate({"A": 1}, 2),
        cmsg.ReplicationShipment("A", "s", "m", 1, [record], {"A": 1}, 0,
                                 atable={"A": {"A": 1}}),
        cmsg.ShipmentAck("m", 1, 0, "B"),
        cmsg.PeerVector("B", {"A": 1}, matrix={"B": {"A": 1}}),
        cmsg.AtableSnapshot({"A": {"A": 1}}),
        _record_batch_sample(record, nested),
    ]


def _record_batch_sample(record, nested):
    from repro.runtime.messages import RecordBatch

    return RecordBatch([record, nested])


class TestCodecCoverage:
    def test_samples_cover_the_whole_registry(self):
        """Every registered message type (and special value type) has a
        sample — adding a protocol message without one fails here."""
        from repro.net import binary_codec

        sampled = {type(m) for m in _codec_samples()}
        registry = {*binary_codec._MESSAGE_TYPES, *binary_codec._SPECIAL_CLASSES}
        assert registry <= sampled, sorted(c.__name__ for c in registry - sampled)

    def test_every_message_round_trips_as_binary(self):
        from repro.net.binary_codec import (
            decode_message_binary,
            encode_message_binary,
        )

        for message in _codec_samples():
            wire = encode_message_binary(message)
            assert isinstance(wire, bytes)
            assert decode_message_binary(wire) == message, message


class TestPipelineOverSockets:
    """Convergence, timers and unknown destinations over TCP are checked with
    every other runtime by ``tests/test_runtime_contract.py``."""

    def test_reads_and_tag_lookups_over_tcp(self):
        runtime = AioRuntime()
        deployment = ChariotsDeployment(runtime, ["A"], batch_size=8)
        try:
            client = deployment.client("A")
            acks = []
            for i in range(4):
                client.append(f"v{i}", tags={"p": i % 2}, on_done=acks.append)
            assert runtime.settle(lambda: len(acks) == 4, max_seconds=10)
            runtime.run_for(0.1)  # postings flush to indexers

            replies = []
            client.read_rules(
                ReadRules(tag_key="p", tag_value=1, limit=2), replies.append
            )
            assert runtime.settle(lambda: bool(replies), max_seconds=10)
            entries = replies[0]
            assert len(entries) == 2
            assert all(e.record.tag_dict()["p"] == 1 for e in entries)
            assert runtime.messages_routed > 20  # real frames crossed TCP
        finally:
            runtime.stop()

    def test_send_requires_started_runtime(self):
        runtime = AioRuntime()

        class Dummy:
            name = "x"

        runtime._actors["x"] = Dummy()  # bypass registration for the check
        with pytest.raises(ConfigurationError):
            runtime.send("a", "x", "msg")


class TestCodecErrors:
    def test_unencodable_value_rejected(self):
        from repro.core.errors import NetworkProtocolError
        from repro.net.binary_codec import encode_value_binary

        class Opaque:
            pass

        with pytest.raises(NetworkProtocolError):
            encode_value_binary(Opaque())

    def test_unknown_tag_rejected(self):
        from repro.core.errors import NetworkProtocolError
        from repro.net.binary_codec import decode_value_binary

        with pytest.raises(NetworkProtocolError):
            decode_value_binary(b"\x1e")  # between the last value tag and 0x1F
        with pytest.raises(NetworkProtocolError):
            decode_value_binary(b"\x1f\xff\xff")  # no such message type index

    def test_unregistered_top_level_message_rejected(self):
        from repro.core.errors import NetworkProtocolError
        from repro.net.binary_codec import encode_message_binary

        with pytest.raises(NetworkProtocolError):
            encode_message_binary("a bare string is not a protocol message")

    def test_bytes_round_trip(self):
        from repro.net.binary_codec import decode_value_binary, encode_value_binary

        blob = bytes(range(256))
        assert decode_value_binary(encode_value_binary(blob)) == blob

    def test_nested_container_types_preserved(self):
        from repro.net.binary_codec import decode_value_binary, encode_value_binary

        value = {"a": (1, [2, {"b": b"\x00"}]), 3: "int-key"}
        restored = decode_value_binary(encode_value_binary(value))
        assert restored == value
        assert isinstance(restored["a"], tuple)
        assert isinstance(restored["a"][1], list)
