"""Tests for message payload sizing (the simulator's accounting inputs)."""


from repro.chariots.messages import (
    AdmittedBatch,
    DraftBatch,
    DraftRecord,
    FilterBatch,
    ReplicationShipment,
    Token,
    TokenPass,
)
from repro.flstore.messages import (
    AppendRequest,
    IndexUpdate,
    PlaceRecords,
    ReadNewReply,
    ReadReply,
)
from repro.core.record import LogEntry
from repro.runtime.messages import (
    CONTROL_MESSAGE_BYTES,
    Payload,
    RecordBatch,
    record_count_of,
    wire_size_of,
)

from conftest import rec


class TestGenericSizing:
    def test_control_message_defaults(self):
        assert record_count_of("plain string") == 0
        assert wire_size_of("plain string") == CONTROL_MESSAGE_BYTES

    def test_record_batch_counts_records(self):
        batch = RecordBatch([rec("A", 1), rec("A", 2)])
        assert record_count_of(batch) == 2
        assert wire_size_of(batch) > CONTROL_MESSAGE_BYTES

    def test_payload_base_class_without_records(self):
        assert Payload().record_count() == 0


class TestFLStoreMessageSizing:
    def test_append_request_counts_records(self):
        request = AppendRequest(1, records=[rec("A", t) for t in (1, 2, 3)])
        assert record_count_of(request) == 3

    def test_place_records_counts_placements(self):
        message = PlaceRecords(placements=[(0, rec("A", 1)), (1, rec("A", 2))])
        assert record_count_of(message) == 2
        assert wire_size_of(message) > 64

    def test_read_reply_counts_entries(self):
        reply = ReadReply(1, entries=[LogEntry(0, rec("A", 1))])
        assert record_count_of(reply) == 1

    def test_read_new_reply_counts_entries(self):
        reply = ReadNewReply(1, entries=[LogEntry(0, rec("A", 1))], upto=0)
        assert record_count_of(reply) == 1

    def test_index_update_counts_postings(self):
        update = IndexUpdate(postings=[("k", 1, 0), ("k", 2, 1)])
        assert record_count_of(update) == 2

    def test_wire_size_scales_with_record_size(self):
        big = AppendRequest(1, records=[rec("A", 1, body=b"\x00" * 1024)])
        small = AppendRequest(2, records=[rec("A", 2, body=b"\x00" * 64)])
        assert wire_size_of(big) > wire_size_of(small)


class TestChariotsMessageSizing:
    def test_draft_batch(self):
        drafts = [DraftRecord("c", i + 1, "x" * 100) for i in range(4)]
        batch = DraftBatch(drafts)
        assert record_count_of(batch) == 4
        assert wire_size_of(batch) >= 4 * 100

    def test_mixed_filter_batch(self):
        batch = FilterBatch(
            drafts=[DraftRecord("c", 1, "b")], externals=[rec("A", 1)]
        )
        assert record_count_of(batch) == 2

    def test_admitted_batch(self):
        batch = AdmittedBatch(externals=[rec("A", 1), rec("A", 2)])
        assert record_count_of(batch) == 2

    def test_token_pass_counts_deferred(self):
        token = Token(frontier={"A": 1}, next_lid=2, deferred=[rec("B", 2)])
        message = TokenPass(token)
        assert record_count_of(message) == 1
        assert wire_size_of(message) > 64

    def test_empty_token_pass_is_small(self):
        message = TokenPass(Token())
        assert record_count_of(message) == 0
        assert wire_size_of(message) < 256

    def test_replication_shipment(self):
        shipment = ReplicationShipment(
            from_dc="A", sender="s", maintainer="m", ship_seq=1,
            records=[rec("A", 1)],
        )
        assert record_count_of(shipment) == 1

    def test_draft_record_size_measures_body(self):
        text = DraftRecord("c", 1, "x" * 200)
        blob = DraftRecord("c", 2, b"\x00" * 300)
        opaque = DraftRecord("c", 3, {"k": 1})
        assert text.size_bytes() == 200 + 32
        assert blob.size_bytes() == 300 + 32
        assert opaque.size_bytes(default_body_size=512) == 512 + 32


class TestLoadBalancingFeedback:
    def test_controller_learns_load_and_suggests(self):
        from repro.flstore import FLStore
        from repro.runtime import LocalRuntime

        runtime = LocalRuntime()
        store = FLStore(runtime, n_maintainers=3, n_indexers=0, batch_size=5)
        client = store.blocking_client()
        for i in range(30):
            client.append(f"b{i}")
        runtime.run_for(0.1)  # gossip ticks carry load reports
        assert store.controller.core.approx_records() == 30
        suggestion = store.controller.core.least_loaded_maintainer()
        assert suggestion in {m.name for m in store.maintainers}

    def test_new_sessions_receive_the_suggestion(self):
        from repro.flstore import FLStore
        from repro.runtime import LocalRuntime

        runtime = LocalRuntime()
        store = FLStore(runtime, n_maintainers=2, n_indexers=0, batch_size=5)
        first = store.blocking_client()
        for i in range(10):
            first.append(f"b{i}")
        runtime.run_for(0.1)
        late = store.client()
        runtime.run_until(lambda: late._session is not None)
        assert late._session.suggested_maintainer is not None
