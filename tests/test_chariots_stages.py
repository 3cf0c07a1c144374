"""Unit tests for the individual pipeline stages (§6.2)."""


from repro.chaos import FaultPlan
from repro.chariots.batcher import Batcher
from repro.chariots.filters import FilterMap
from repro.chariots.gc import GcCoordinator
from repro.chariots.messages import AdmittedBatch, DraftBatch, DraftRecord, FilterBatch, PeerVector
from repro.chariots.queues import QueueStage
from repro.chariots.receiver import Receiver
from repro.chariots.sender import Sender
from repro.core import PipelineConfig
from repro.flstore.maintainer import LogMaintainer
from repro.flstore.range_map import OwnershipPlan
from repro.runtime import LocalRuntime
from repro.sim.workload import SinkActor

from conftest import rec


def draft(client, seq, body=None):
    return DraftRecord(client=client, seq=seq, body=body or f"{client}:{seq}")


class TestBatcher:
    def make(self, threshold=3, interval=0.01):
        runtime = LocalRuntime()
        fmap = FilterMap(["filter"])
        sink = SinkActor("filter")
        runtime.register(sink)
        batcher = Batcher(
            "batcher",
            fmap,
            config=PipelineConfig(
                batcher_flush_threshold=threshold, batcher_flush_interval=interval
            ),
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

    def test_buffers_below_threshold(self):
        runtime, batcher, sink = self.make(threshold=10, interval=60.0)
        batcher.on_message("client", DraftBatch([draft("c", 1)]))
        runtime.loop.run(until_time=0.5)
        assert sink.messages == []

    def test_timer_flushes_partial_buffers(self):
        runtime, batcher, sink = self.make(threshold=100, interval=0.01)
        batcher.on_message("client", DraftBatch([draft("c", 1)]))
        runtime.run_for(0.05)
        assert sink.records_received == 1

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
            "queue", "A", plan, frontier_listeners=["listener"],
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
        from repro.chariots.messages import FrontierUpdate

        updates = [m for m in listener.messages if isinstance(m, FrontierUpdate)]
        assert updates and updates[-1].vector == {"A": 1}

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


class TestSenderReceiver:
    def make_pair(self, transitive=False):
        runtime = LocalRuntime()
        plan = OwnershipPlan(["A/store"], batch_size=10)
        store = LogMaintainer("A/store", plan, peers=["A/store"])
        batcher_sink = SinkActor("B/batcher")
        gc_sink = SinkActor("B/gc")
        receiver = Receiver("B/recv", "B", batchers=["B/batcher"], gc_coordinator="B/gc")
        sender = Sender(
            "A/send", "A", maintainers=["A/store"],
            peer_receivers={"B": ["B/recv"]},
            config=PipelineConfig(replication_interval=0.01),
            transitive=transitive,
        )
        runtime.register_all([store, batcher_sink, gc_sink, receiver, sender])
        runtime.start()
        return runtime, store, sender, receiver, batcher_sink, gc_sink

    def test_local_records_flow_to_remote_batchers(self):
        runtime, store, sender, receiver, batcher_sink, _ = self.make_pair()
        store.core.append([rec("A", t) for t in (1, 2, 3)])
        runtime.run_for(0.05)
        assert batcher_sink.records_received == 3
        assert receiver.shipments_received >= 1

    def test_external_records_not_forwarded_in_direct_mode(self):
        runtime, store, sender, receiver, batcher_sink, _ = self.make_pair()
        store.core.append([rec("C", 1)])  # an external record in A's log
        runtime.run_for(0.05)
        assert batcher_sink.records_received == 0

    def test_transitive_mode_forwards_third_party_records(self):
        runtime, store, sender, receiver, batcher_sink, _ = self.make_pair(transitive=True)
        store.core.append([rec("C", 1)])
        runtime.run_for(0.05)
        assert batcher_sink.records_received == 1

    def test_transitive_mode_never_echoes_peers_own_records(self):
        runtime, store, sender, receiver, batcher_sink, _ = self.make_pair(transitive=True)
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
            config=PipelineConfig(replication_interval=0.01),
            retransmit_timeout=0.05,
        )
        runtime.register_all([store, batcher_sink, receiver, sender])
        runtime.start()
        store.core.append([rec("A", 1)])
        runtime.run_for(0.6)
        # Acks dropped early -> retransmissions -> eventually acked.
        assert receiver.shipments_received > 1
        assert sender.buffered_records() == 0  # compacted after the ack

    def test_buffer_compaction_after_all_peers_ack(self):
        runtime, store, sender, receiver, batcher_sink, _ = self.make_pair()
        store.core.append([rec("A", t) for t in (1, 2)])
        runtime.run_for(0.1)
        assert sender.buffered_records() == 0

    def test_vector_reaches_remote_gc(self):
        runtime, store, sender, receiver, batcher_sink, gc_sink = self.make_pair()
        sender.on_message("queue", __import__(
            "repro.chariots.messages", fromlist=["FrontierUpdate"]
        ).FrontierUpdate({"A": 5}, 5))
        store.core.append([rec("A", 1)])
        runtime.run_for(0.05)
        vectors = [m for m in gc_sink.messages if isinstance(m, PeerVector)]
        assert vectors and vectors[-1].vector.get("A") == 5


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
        from repro.chariots.messages import FrontierUpdate

        gc.on_message("queue", FrontierUpdate({"A": 1}, 1))
        gc.on_message("recv", PeerVector("B", {"A": 1}))
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
        from repro.chariots.messages import FrontierUpdate

        gc.on_message("queue", FrontierUpdate({"A": 1}, 1))  # B silent
        runtime.run_for(0.05)
        assert store.core.stored_count() == 1

    def test_matrix_merge_from_peer(self):
        runtime = LocalRuntime()
        gc = GcCoordinator("gc", "A", ["A", "B", "C"], maintainers=[])
        runtime.register(gc)
        runtime.start()
        gc.on_message(
            "recv",
            PeerVector("B", {"A": 3}, matrix={"C": {"A": 2, "B": 0, "C": 0}}),
        )
        assert gc.atable.get("B", "A") == 3
        assert gc.atable.get("C", "A") == 2  # learned transitively
