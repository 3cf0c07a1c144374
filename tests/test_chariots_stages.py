"""Unit tests for the individual pipeline stages (§6.2)."""


from repro.chaos import FaultPlan
from repro.chariots.batcher import Batcher
from repro.chariots.filters import FilterMap
from repro.chariots.gc import GcCoordinator
from repro.chariots.messages import (
    AdmittedBatch,
    DraftBatch,
    DraftCommitBatch,
    DraftRecord,
    AtableSnapshot,
    FilterBatch,
    FrontierUpdate,
    ShipmentAck,
)
from repro.chariots.queues import QueueStage
from repro.chariots.receiver import Receiver
from repro.chariots.sender import Sender
from repro.core import LogEntry, PipelineConfig, RecordId, RecordRun
from repro.core.record import split_placements
from repro.flstore.maintainer import LogMaintainer
from repro.flstore.messages import PlaceRecords, ReadNewReply, ReadNewRequest
from repro.flstore.range_map import OwnershipPlan
from repro.runtime import LocalRuntime

from conftest import SinkActor, rec, streams_caught_up


class ClockedSink(SinkActor):
    """A sink that also notes the virtual time each message arrived."""

    def __init__(self, name):
        super().__init__(name)
        self.arrivals = []

    def on_message(self, sender, message):
        super().on_message(sender, message)
        self.arrivals.append((self.now, message))


def draft(client, seq, body=None):
    return DraftRecord(client=client, seq=seq, body=body or f"{client}:{seq}")


class TestBatcher:
    def make(self, threshold=3):
        runtime = LocalRuntime()
        fmap = FilterMap(["filter"])
        sink = SinkActor("filter")
        runtime.register(sink)
        batcher = Batcher(
            "batcher", fmap, config=PipelineConfig(batcher_flush_threshold=threshold)
        )
        runtime.register(batcher)
        runtime.start()
        return runtime, batcher, sink

    def test_flush_on_threshold(self):
        runtime, batcher, sink = self.make(threshold=3)
        batcher.on_message("client", DraftBatch([draft("c", i + 1) for i in range(3)]))
        runtime.loop.run(max_events=10)
        assert len(sink.messages) == 1
        assert sink.records_received == 3

    def test_a_below_threshold_draft_leaves_at_the_end_of_its_turn(self):
        runtime, batcher, sink = self.make(threshold=10)
        batcher.on_message("client", DraftBatch([draft("c", 1)]))
        assert runtime.messages_sent == 0  # held for the rest of the turn
        runtime.loop.run(max_events=10)
        assert sink.records_received == 1
        assert runtime.now == 0.0  # no clock was waited on

    def test_drafts_of_one_turn_leave_as_one_filter_batch(self):
        runtime, batcher, sink = self.make(threshold=10)
        runtime.send("client", "batcher", DraftBatch([draft("c", 1)]))
        runtime.send("client", "batcher", DraftBatch([draft("c", 2), draft("c", 3)]))
        runtime.loop.run(max_events=2)  # both deliveries, nothing else
        assert batcher.records_batched == 3
        assert runtime.messages_sent == 2  # the two DraftBatches only
        runtime.loop.run(max_events=10)
        assert len(sink.messages) == 1
        assert type(sink.messages[0]) is FilterBatch
        assert [d.seq for d in sink.messages[0].drafts] == [1, 2, 3]
        assert runtime.now == 0.0

    def test_a_partial_buffer_leaves_and_the_batcher_falls_silent(self):
        runtime, batcher, sink = self.make(threshold=100)
        batcher.on_message("client", DraftBatch([draft("c", 1)]))
        runtime.run_for(0.05)
        assert sink.records_received == 1
        assert batcher._pending_records == 0 and not batcher._armed
        assert not runtime.loop._heap  # no timer left behind while idle

    def test_external_records_route_by_champion(self):
        runtime = LocalRuntime()
        fmap = FilterMap(["f0", "f1"])
        fmap.assign_host("A", ["f0"])
        fmap.assign_host("B", ["f1"])
        sinks = {name: SinkActor(name) for name in ("f0", "f1")}
        for sink in sinks.values():
            runtime.register(sink)
        batcher = Batcher(
            "batcher", fmap, config=PipelineConfig(batcher_flush_threshold=1)
        )
        runtime.register(batcher)
        runtime.start()
        batcher.on_message("recv", FilterBatch(externals=[rec("A", 1), rec("B", 1)]))
        runtime.loop.run(max_events=10)
        assert sinks["f0"].records_received == 1
        assert sinks["f1"].records_received == 1

    def test_split_host_externals_land_with_their_champions(self):
        fmap = FilterMap(["f0", "f1", "f2"])
        fmap.assign_host("A", ["f0"])
        fmap.reassign_host("A", ["f1", "f2"], from_toid=5)  # split by residue
        batcher = Batcher("batcher", fmap, config=PipelineConfig(batcher_flush_threshold=1000))
        LocalRuntime().register(batcher)  # buffering arms the end-of-turn flush
        externals = [rec("A", t) for t in range(1, 11)] + [rec("B", 1)]  # B: all three
        batcher.on_message("recv", FilterBatch(externals=externals))
        for record in externals:
            champion = fmap.filter_for(record.host, record.toid)
            assert record in batcher._buffers[champion].externals
        assert sum(len(b.externals) for b in batcher._buffers.values()) == len(externals)
        assert [r.toid for r in batcher._buffers["f0"].externals if r.host == "A"] == [1, 2, 3, 4]
        assert [r.toid for r in batcher._buffers["f2"].externals] == [5, 7, 9]

    def test_counts_records(self):
        runtime, batcher, sink = self.make()
        batcher.on_message("client", DraftBatch([draft("c", 1), draft("c", 2)]))
        assert batcher.records_batched == 2


class TestQueueStage:
    def make_solo(self):
        runtime = LocalRuntime()
        plan = OwnershipPlan(["store"], batch_size=10)
        store = LogMaintainer("store", plan, peers=["store"])
        runtime.register(store)
        listener = SinkActor("listener")
        runtime.register(listener)
        queue = QueueStage(
            "queue", "A", plan, gc="listener",
            holds_initial_token=True,
        )
        runtime.register(queue)
        runtime.start()
        return runtime, queue, store, listener

    def test_drafts_get_dense_toids_and_lids(self):
        runtime, queue, store, _ = self.make_solo()
        client = SinkActor("client")
        runtime.register(client)
        queue.on_message("f", AdmittedBatch(drafts=[draft("client", 1), draft("client", 2)]))
        runtime.loop.run(max_events=20)
        entries = store.core.stored_entries()
        assert [(e.lid, e.record.toid) for e in entries] == [(0, 1), (1, 2)]

    def test_externals_deferred_until_dependencies(self):
        runtime, queue, store, _ = self.make_solo()
        b2 = rec("B", 2)
        queue.on_message("f", AdmittedBatch(externals=[b2]))
        runtime.loop.run(max_events=20)
        assert queue.deferred_count == 1
        assert store.core.stored_count() == 0
        queue.on_message("f", AdmittedBatch(externals=[rec("B", 1)]))
        runtime.loop.run(max_events=20)
        assert queue.deferred_count == 0
        assert store.core.stored_count() == 2

    def test_frontier_updates_emitted(self):
        runtime, queue, store, listener = self.make_solo()
        client = SinkActor("client")
        runtime.register(client)
        queue.on_message("f", AdmittedBatch(drafts=[draft("client", 1)]))
        runtime.loop.run(max_events=20)
        updates = [m for m in listener.messages if isinstance(m, FrontierUpdate)]
        assert updates and updates[-1].vector == {"A": 1}

    def test_rounds_within_one_interval_give_one_report(self):
        # Three sequencing rounds 5 ms apart: one FrontierUpdate, carrying
        # the third round's frontier, one replication_interval after the
        # first round.
        runtime, queue, store, _ = self.make_solo()
        listener = ClockedSink("gc")
        runtime.register_all([listener, SinkActor("client")])
        queue.gc = "gc"
        interval = queue.config.replication_interval
        first = runtime.now
        for seq in (1, 2, 3):
            queue.on_message("f", AdmittedBatch(drafts=[draft("client", seq)]))
            runtime.run_for(interval / 4)
        runtime.run_for(interval)
        reports = [(at, m) for at, m in listener.arrivals if isinstance(m, FrontierUpdate)]
        assert [(at, m.vector) for at, m in reports] == [(first + interval, {"A": 3})]
        assert store.core.stored_count() == 3

    def test_a_queue_that_sequenced_nothing_sets_no_report_timer(self):
        runtime, queue, _, listener = self.make_solo()
        armed = []
        set_timer = queue.set_timer
        queue.set_timer = lambda *args, **kw: armed.append(args) or set_timer(*args, **kw)
        queue.on_message("f", AdmittedBatch(externals=[rec("B", 2)]))  # waits on B:1
        runtime.run_for(1.0)
        assert queue.deferred_count == 1 and queue.frontier == {}
        assert armed == []
        assert not any(isinstance(m, FrontierUpdate) for m in listener.messages)

    def test_duplicate_externals_dropped(self):
        runtime, queue, store, _ = self.make_solo()
        record = rec("B", 1)
        queue.on_message("f", AdmittedBatch(externals=[record]))
        queue.on_message("f", AdmittedBatch(externals=[record]))
        runtime.loop.run(max_events=30)
        assert store.core.stored_count() == 1

    def test_token_passes_in_a_ring(self):
        runtime = LocalRuntime()
        plan = OwnershipPlan(["store"], batch_size=10)
        store = LogMaintainer("store", plan, peers=["store"])
        runtime.register(store)
        config = PipelineConfig(token_hold_interval=0.001)
        q0 = QueueStage("q0", "A", plan, next_queue="q1", config=config,
                        holds_initial_token=True)
        q1 = QueueStage("q1", "A", plan, next_queue="q0", config=config)
        runtime.register_all([q0, q1])
        runtime.start()
        runtime.run_for(0.0015)
        assert not q0.holds_token
        assert q1.holds_token
        runtime.run_for(0.001)
        assert q0.holds_token

    def test_buffered_work_processed_on_token_arrival(self):
        runtime = LocalRuntime()
        plan = OwnershipPlan(["store"], batch_size=10)
        store = LogMaintainer("store", plan, peers=["store"])
        runtime.register(store)
        config = PipelineConfig(token_hold_interval=0.001)
        q0 = QueueStage("q0", "A", plan, next_queue="q1", config=config,
                        holds_initial_token=True)
        q1 = QueueStage("q1", "A", plan, next_queue="q0", config=config)
        client = SinkActor("client")
        runtime.register_all([q0, q1, client])
        runtime.start()
        q1.on_message("f", AdmittedBatch(drafts=[draft("client", 1)]))
        assert store.core.stored_count() == 0  # q1 has no token yet
        runtime.run_for(0.005)
        assert store.core.stored_count() == 1

    def test_deferred_records_travel_with_the_token(self):
        runtime = LocalRuntime()
        plan = OwnershipPlan(["store"], batch_size=10)
        store = LogMaintainer("store", plan, peers=["store"])
        runtime.register(store)
        config = PipelineConfig(token_hold_interval=0.001, token_deferred_limit=10)
        q0 = QueueStage("q0", "A", plan, next_queue="q1", config=config,
                        holds_initial_token=True)
        q1 = QueueStage("q1", "A", plan, next_queue="q0", config=config)
        runtime.register_all([q0, q1])
        runtime.start()
        q0.on_message("f", AdmittedBatch(externals=[rec("B", 2)]))  # blocked on B:1
        runtime.run_for(0.0015)  # token moved to q1 carrying the deferral
        q1.on_message("f", AdmittedBatch(externals=[rec("B", 1)]))
        runtime.run_for(0.005)
        assert store.core.stored_count() == 2


    def test_one_round_commits_each_draft_at_its_placed_lid(self):
        plan = OwnershipPlan(["m0", "m1"], batch_size=4)
        queue = QueueStage("queue", "A", plan, holds_initial_token=True)
        sent = []
        queue.send = lambda dst, message: sent.append((dst, message))
        queue._token.next_lid = 2  # LIds 2-3 are m0's, 4-7 m1's, 8-11 m0's again
        drafts = [draft("c2", 1), draft("c1", 1), draft("c2", 2), draft("c1", 2), draft("c2", 3)]
        queue.on_message("f", AdmittedBatch(externals=[rec("B", 2), rec("B", 1)], drafts=drafts))

        assert [dst for dst, _ in sent] == ["m0", "m1", "c2", "c1"]
        placed = {}
        for dst, message in sent[:2]:
            assert isinstance(message, PlaceRecords)
            for lid, record in split_placements(message.placements):
                assert plan.owner(lid) == dst
                placed[record.rid] = lid
        assert sorted(placed.values()) == list(range(2, 9))
        assert placed[RecordId("B", 1)] == 2 and placed[RecordId("B", 2)] == 3
        # The drafts are one run, split only where ownership changes.
        [(lid, run)] = sent[1][1].placements
        assert (lid, type(run), run.first_toid, len(run)) == (4, RecordRun, 1, 4)

        commits = {}
        for client, batch in sent[2:]:
            assert isinstance(batch, DraftCommitBatch) and batch.host == "A"
            for first_seq, first_toid, count in batch.runs:
                for k in range(count):
                    lid = first_toid + k + batch.lid_offset
                    assert placed[RecordId("A", first_toid + k)] == lid
                    commits[(client, first_seq + k)] = lid
        assert commits == {("c2", 1): 4, ("c1", 1): 5, ("c2", 2): 6, ("c1", 2): 7, ("c2", 3): 8}
        assert queue._token.next_lid == 9


class TestSenderReceiver:
    def make_pair(self, transitive=False):
        runtime = LocalRuntime()
        plan = OwnershipPlan(["A/store"], batch_size=10)
        store = LogMaintainer("A/store", plan, peers=["A/store"])
        batcher_sink = SinkActor("B/batcher")
        receiver = Receiver("B/recv", "B", batchers=["B/batcher"])
        sender = Sender(
            "A/send", "A", maintainers=["A/store"],
            peer_receivers={"B": ["B/recv"]},
            config=PipelineConfig(replication_interval=0.01),
            transitive=transitive,
        )
        runtime.register_all([store, batcher_sink, receiver, sender])
        runtime.start()
        return runtime, store, sender, receiver, batcher_sink

    def test_local_records_flow_to_remote_batchers(self):
        runtime, store, sender, receiver, batcher_sink = self.make_pair()
        store.core.append([rec("A", t) for t in (1, 2, 3)])
        runtime.run_for(0.05)
        assert batcher_sink.records_received == 3
        assert receiver.shipments_received >= 1

    def test_external_records_not_forwarded_in_direct_mode(self):
        runtime, store, sender, receiver, batcher_sink = self.make_pair()
        store.core.append([rec("C", 1)])  # an external record in A's log
        runtime.run_for(0.05)
        assert batcher_sink.records_received == 0

    def test_transitive_mode_forwards_third_party_records(self):
        runtime, store, sender, receiver, batcher_sink = self.make_pair(transitive=True)
        store.core.append([rec("C", 1)])
        runtime.run_for(0.05)
        assert batcher_sink.records_received == 1

    def test_transitive_mode_never_echoes_peers_own_records(self):
        runtime, store, sender, receiver, batcher_sink = self.make_pair(transitive=True)
        store.core.append([rec("B", 1)])  # B's own record, held at A
        runtime.run_for(0.05)
        assert batcher_sink.records_received == 0

    def test_retransmission_until_acked(self):
        runtime = LocalRuntime(chaos=FaultPlan().drop(message_type="ShipmentAck", end=0.3))
        plan = OwnershipPlan(["A/store"], batch_size=10)
        store = LogMaintainer("A/store", plan, peers=["A/store"])
        batcher_sink = SinkActor("B/batcher")
        receiver = Receiver("B/recv", "B", batchers=["B/batcher"])
        sender = Sender(
            "A/send", "A", maintainers=["A/store"],
            peer_receivers={"B": ["B/recv"]},
            config=PipelineConfig(
                replication_interval=0.01, retransmit_base=0.05, retransmit_max=0.4
            ),
        )
        runtime.register_all([store, batcher_sink, receiver, sender])
        runtime.start()
        store.core.append([rec("A", 1)])
        runtime.run_for(0.6)
        # Acks dropped early -> retransmissions -> eventually acked.
        assert receiver.shipments_received > 1
        assert streams_caught_up(sender, [store])  # the cursor passed the record

    def test_streams_catch_up_after_every_peer_acks(self):
        runtime, store, sender, receiver, batcher_sink = self.make_pair()
        store.core.append([rec("A", t) for t in (1, 2)])
        runtime.run_for(0.1)
        assert streams_caught_up(sender, [store])
        assert sender._streams[("B", "A/store")].acked_upto == 1

    def test_partial_ack_ships_from_the_first_unacked_lid(self):
        runtime = LocalRuntime()
        receiver = SinkActor("B/recv")
        sender = Sender(
            "A/send", "A", maintainers=["A/store"], peer_receivers={"B": ["B/recv"]},
            config=PipelineConfig(replication_interval=60.0, replication_batch_limit=4),
        )
        store = SinkActor("A/store")
        runtime.register_all([store, receiver, sender])
        runtime.start()
        entries = [LogEntry(lid, rec("A", lid + 1)) for lid in range(6)]
        runtime.run_for(60.001)  # the first tick reads
        read = store.messages[-1]
        assert read.after_lid == -1
        sender.on_message("A/store", ReadNewReply(read.request_id, entries[:4], upto=3))
        runtime.run_for(0.01)
        first = receiver.messages[-1]
        assert (first.upto_lid, [r.toid for r in first.records]) == (3, [1, 2, 3, 4])
        sender.on_message("B/recv", ShipmentAck("A/store", first.ship_seq, 1, from_dc="B"))
        runtime.run_for(60.0)
        # The next read (the next tick's) starts from the first unacked LId.
        read = store.messages[-1]
        assert isinstance(read, ReadNewRequest) and read.after_lid == 1
        sender.on_message("A/store", ReadNewReply(read.request_id, entries[2:], upto=5))
        runtime.run_for(0.01)
        second = receiver.messages[-1]
        assert second.ship_seq > first.ship_seq
        assert (second.upto_lid, [r.toid for r in second.records]) == (5, [3, 4, 5, 6])


class TestGcCoordinator:
    def test_sweep_truncates_when_everyone_knows(self):
        runtime = LocalRuntime()
        plan = OwnershipPlan(["store"], batch_size=10)
        store = LogMaintainer("store", plan, peers=["store"])
        gc = GcCoordinator(
            "gc", "A", ["A", "B"], maintainers=["store"],
            config=PipelineConfig(gc_interval=0.01),
        )
        runtime.register_all([store, gc])
        runtime.start()
        store.core.place(0, rec("A", 1))
        gc.on_message("queue", FrontierUpdate({"A": 1}))
        gc.on_message("B/gc", AtableSnapshot({"B": {"A": 1}}))
        runtime.run_for(0.05)
        assert store.core.stored_count() == 0

    def test_no_truncation_without_universal_knowledge(self):
        runtime = LocalRuntime()
        plan = OwnershipPlan(["store"], batch_size=10)
        store = LogMaintainer("store", plan, peers=["store"])
        gc = GcCoordinator(
            "gc", "A", ["A", "B"], maintainers=["store"],
            config=PipelineConfig(gc_interval=0.01),
        )
        runtime.register_all([store, gc])
        runtime.start()
        store.core.place(0, rec("A", 1))
        gc.on_message("queue", FrontierUpdate({"A": 1}))  # B silent
        runtime.run_for(0.05)
        assert store.core.stored_count() == 1

    def test_matrix_merge_from_peer(self):
        runtime = LocalRuntime()
        gc = GcCoordinator("gc", "A", ["A", "B", "C"], maintainers=[])
        runtime.register(gc)
        runtime.start()
        gc.on_message(
            "B/gc",
            AtableSnapshot({"B": {"A": 3}, "C": {"A": 2, "B": 0, "C": 0}}),
        )
        assert gc.atable.get("B", "A") == 3
        assert gc.atable.get("C", "A") == 2  # learned transitively

    def test_atable_gossip_reaches_peer_coordinators(self):
        # Every replication_interval, whether or not the table changed: a
        # lost snapshot is replaced by the next one.
        runtime = LocalRuntime()
        gc = GcCoordinator(
            "A/gc", "A", ["A", "B"], maintainers=[],
            config=PipelineConfig(replication_interval=0.01),
        )
        peer = SinkActor("B/gc")
        runtime.register_all([gc, peer])
        gc.peers.append("B/gc")
        runtime.start()
        gc.on_message("A/queue/0", FrontierUpdate({"A": 5}))
        runtime.run_for(0.035)
        snapshots = [m for m in peer.messages if isinstance(m, AtableSnapshot)]
        assert len(snapshots) == 3
        assert all(s.matrix["A"] == {"A": 5, "B": 0} for s in snapshots)
