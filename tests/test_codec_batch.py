"""Zero-copy ``RecordBatch`` wire frame: laziness, bounds, and symmetry.

The binary codec encodes a whole batch as one contiguous ``0x15`` frame
(``u32 count`` then ``u32 span_len || record-fields`` per record) and
decodes it into a :class:`~repro.net.binary_codec.LazyRecordBatch` that
holds a memoryview over the frame — no per-record objects until a consumer
touches ``records``.
"""

import gc

import pytest

from repro.core.errors import NetworkProtocolError
from repro.core.record import Record, RecordId
from repro.net.binary_codec import (
    LazyRecordBatch,
    decode_value_binary,
    encode_value_binary,
)
from repro.runtime.messages import RecordBatch


def rec(host, toid, body=b"payload", tags=(), deps=()):
    return Record(
        rid=RecordId(host, toid), body=body, tags=tuple(tags), deps=tuple(deps)
    )


@pytest.fixture
def batch():
    return RecordBatch(
        [
            rec("A", 1, b"x" * 64, tags=(("k", 7),)),
            rec("B", 2, "text body", deps=(("A", 1),)),
            rec("A", 3, {"nested": [1, 2.5, None]}),
        ]
    )


class TestLaziness:
    def test_decode_returns_unmaterialised_lazy_batch(self, batch):
        lazy = decode_value_binary(encode_value_binary(batch))
        assert type(lazy) is LazyRecordBatch
        assert not lazy.materialised

    def test_sizing_answers_without_materialising(self, batch):
        lazy = decode_value_binary(encode_value_binary(batch))
        assert len(lazy) == 3
        assert lazy.record_count() == 3
        assert not lazy.materialised

    def test_touching_records_materialises_exactly(self, batch):
        lazy = decode_value_binary(encode_value_binary(batch))
        assert lazy.records == batch.records
        assert lazy.materialised

    def test_survives_source_buffer_release(self, batch):
        wire = encode_value_binary(batch)
        lazy = decode_value_binary(wire)
        del wire
        gc.collect()
        assert lazy.records == batch.records

    def test_decodes_from_memoryview_without_copy(self, batch):
        wire = encode_value_binary(batch)
        lazy = decode_value_binary(memoryview(wire))
        assert not lazy.materialised
        assert lazy == batch

    def test_equality_both_directions(self, batch):
        lazy = decode_value_binary(encode_value_binary(batch))
        assert lazy == batch
        assert batch == lazy
        other = RecordBatch([rec("C", 9)])
        assert lazy != other
        assert other != lazy


class TestSymmetry:
    def test_round_trips_equal(self, batch):
        assert decode_value_binary(encode_value_binary(batch)) == batch

    def test_lazy_reencode_is_byte_identical_and_parse_free(self, batch):
        wire = encode_value_binary(batch)
        lazy = decode_value_binary(wire)
        assert encode_value_binary(lazy) == wire
        assert not lazy.materialised  # re-encoding copied the raw spans

    def test_materialised_reencode_is_byte_identical_to_eager(self, batch):
        lazy = decode_value_binary(encode_value_binary(batch))
        _ = lazy.records
        assert encode_value_binary(lazy) == encode_value_binary(batch)

    def test_empty_batch(self):
        empty = RecordBatch([])
        lazy = decode_value_binary(encode_value_binary(empty))
        assert len(lazy) == 0
        assert lazy == empty

    def test_nested_inside_containers(self, batch):
        wrapped = {"k": [batch]}
        out = decode_value_binary(encode_value_binary(wrapped))
        assert out["k"][0] == batch

    def test_records_setter_replaces_views(self, batch):
        lazy = decode_value_binary(encode_value_binary(batch))
        lazy.records = [rec("Z", 5)]
        assert lazy.materialised
        assert lazy.records == [rec("Z", 5)]


class TestBounds:
    def test_every_truncated_prefix_is_rejected(self, batch):
        wire = encode_value_binary(batch)
        for cut in range(len(wire)):
            with pytest.raises(NetworkProtocolError):
                decode_value_binary(wire[:cut])

    def test_span_past_end_is_rejected_at_decode_time(self, batch):
        wire = bytearray(encode_value_binary(batch))
        # First span length sits right after tag + count; inflate it.
        wire[5:9] = (2**31).to_bytes(4, "big")
        with pytest.raises(NetworkProtocolError, match="truncated RecordBatch"):
            decode_value_binary(bytes(wire))

    def test_trailing_garbage_is_rejected(self, batch):
        wire = encode_value_binary(batch) + b"\x00"
        with pytest.raises(NetworkProtocolError, match="trailing garbage"):
            decode_value_binary(wire)

    def test_corrupt_span_content_fails_on_materialisation(self, batch):
        wire = bytearray(encode_value_binary(batch))
        (span_len,) = (int.from_bytes(wire[5:9], "big"),)
        # Shift the span boundary by one: bounds still valid, content not.
        wire[5:9] = (span_len - 1).to_bytes(4, "big")
        wire[9 + span_len - 1 : 9 + span_len] = b""
        lazy = decode_value_binary(bytes(wire))
        with pytest.raises(NetworkProtocolError):
            _ = lazy.records
