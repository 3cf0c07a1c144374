"""Edge-case tests across subsystems: overflow paths, override hooks,
control-plane refresh after elasticity, heartbeat-only replication."""


from repro.chariots import ChariotsDeployment
from repro.chariots.elasticity import expand_maintainers
from repro.chariots.messages import AdmittedBatch, ReplicationShipment, ShipmentAck
from repro.core import MachineProfile, PipelineConfig
from repro.runtime import LocalRuntime
from repro.sim import SimRuntime

from conftest import SinkActor, rec


class TestTokenDeferredOverflow:
    def test_overflow_stays_local_and_still_drains(self):
        """token_deferred_limit bounds what travels with the token; the
        overflow waits at the queue and drains when dependencies arrive."""
        from repro.chariots.queues import QueueStage
        from repro.flstore.maintainer import LogMaintainer
        from repro.flstore.range_map import OwnershipPlan

        runtime = LocalRuntime()
        plan = OwnershipPlan(["store"], batch_size=100)
        store = LogMaintainer("store", plan, peers=["store"])
        config = PipelineConfig(token_hold_interval=0.001, token_deferred_limit=2)
        q0 = QueueStage("q0", "A", plan, next_queue="q1", config=config,
                        holds_initial_token=True)
        q1 = QueueStage("q1", "A", plan, next_queue="q0", config=config)
        runtime.register_all([store, q0, q1])
        runtime.start()
        # Five records blocked on B:1 — more than the token can carry.
        q0.on_message("f", AdmittedBatch(externals=[rec("B", t) for t in (2, 3, 4, 5, 6)]))
        runtime.run_for(0.0015)
        assert q0.deferred_count + len(q1._token.deferred if q1._token else []) >= 3
        q1.on_message("f", AdmittedBatch(externals=[rec("B", 1)]))
        runtime.run_for(0.02)  # several token circuits drain everything
        assert store.core.stored_count() == 6


class TestServiceCostOverride:
    def test_actor_override_beats_machine_default(self):
        class SlowActor(SinkActor):
            def service_cost(self, message):
                return 1.0  # one full second per message

        runtime = SimRuntime()
        slow = SlowActor("slow")
        fast_profile = MachineProfile(per_record_cost=1e-9)
        runtime.place_on_new_machine(slow, profile=fast_profile)
        src = SinkActor("src")
        runtime.place_on_new_machine(src, profile=fast_profile)
        runtime.start()
        runtime.send("src", "slow", "msg")
        runtime.run()
        assert runtime.now >= 1.0  # the override governed the service time

    def test_sequencer_grant_cost_override(self):
        from repro.baseline import Sequencer, SequencerRequest

        runtime = SimRuntime()
        sequencer = Sequencer("seq", grant_cost=0.5)
        runtime.place_on_new_machine(sequencer)
        src = SinkActor("src")
        runtime.place_on_new_machine(src)
        runtime.start()
        runtime.send("src", "seq", SequencerRequest(1, count=1))
        runtime.run()
        assert runtime.now >= 0.5


class TestControlPlaneAfterElasticity:
    def test_new_sessions_see_the_expanded_epoch_journal(self, runtime):
        deployment = ChariotsDeployment(runtime, ["A"], batch_size=4)
        client = deployment.blocking_client("A")
        for i in range(10):
            client.append(f"pre{i}")
        expand_maintainers(deployment["A"], 1)
        late = deployment.client("A")
        runtime.run_until(lambda: late._session is not None)
        assert len(late._session.epochs) == 2
        # The late client's routing plan resolves owners in both epochs.
        assert late._plan.owner(0) == deployment["A"].plan.owner(0)
        boundary = deployment["A"].plan.epochs[1].start_lid
        assert late._plan.owner(boundary) == deployment["A"].plan.owner(boundary)


class SendLog(LocalRuntime):
    """A local runtime that keeps every message sent."""

    def __init__(self):
        super().__init__()
        self.sent = []

    def send(self, src, dst, message):
        self.sent.append((src, dst, message))
        super().send(src, dst, message)


class TestHeartbeatOnlyReplication:
    def test_idle_datacenter_still_reports_knowledge(self, runtime):
        """B never appends, so it never ships records — but its GC
        coordinator's Awareness Table gossip must still tell A what B has
        incorporated, or garbage collection at A would stall forever."""
        deployment = ChariotsDeployment(runtime, ["A", "B"], batch_size=4)
        ca = deployment.blocking_client("A")
        for i in range(5):
            ca.append(f"a{i}")
        assert deployment.settle(max_seconds=20)
        runtime.run_for(1.0)  # gossip rounds
        atable = deployment["A"].gc.atable
        assert atable.get("B", "A") == 5

    def test_no_shipment_travels_without_records(self):
        """Replication carries records only: an idle datacenter sends no
        shipments, and every ack answers a shipment that carried records."""
        runtime = SendLog()
        deployment = ChariotsDeployment(runtime, ["A", "B"], batch_size=4)
        ca = deployment.blocking_client("A")
        for i in range(5):
            ca.append(f"a{i}")
        assert deployment.settle(max_seconds=20)
        runtime.run_for(1.0)
        shipments = {
            (src, m.maintainer, m.ship_seq): m
            for src, _dst, m in runtime.sent
            if isinstance(m, ReplicationShipment)
        }
        acks = [(dst, m) for _src, dst, m in runtime.sent if isinstance(m, ShipmentAck)]
        assert shipments and acks
        assert all(m.records for m in shipments.values())
        for dst, ack in acks:
            assert shipments[(dst, ack.maintainer, ack.ship_seq)].records
        assert deployment["A"].gc.atable.get("B", "A") == 5


class TestInternalRecordsStayInternal:
    def test_noop_fillers_are_not_replicated(self, runtime):
        from repro.core import FLStoreConfig

        deployment = ChariotsDeployment(
            runtime, ["A", "B"], batch_size=4,
            flstore_config=FLStoreConfig(fill_gaps_with_noops=True),
        )
        ca = deployment.blocking_client("A")
        ca.append("real")
        assert deployment.settle(max_seconds=10)
        b_hosts = {e.record.host for e in deployment["B"].all_entries()}
        assert all(not h.startswith("__noop__") for h in b_hosts)

    def test_internal_records_hidden_from_rule_reads(self):
        from repro.core import FLStoreConfig, ReadRules
        from repro.flstore import FLStore

        runtime = LocalRuntime()
        store = FLStore(
            runtime, n_maintainers=1, n_indexers=0, batch_size=10,
            config=FLStoreConfig(fill_gaps_with_noops=True),
        )
        client = store.blocking_client()
        client.append("visible", min_lid=3)  # forces no-op fill at 0..3
        entries = client.read(ReadRules())
        assert [e.record.body for e in entries] == ["visible"]


class TestReadRulesComposition:
    def test_host_and_toid_window_scan(self, two_dc_deployment):
        from repro.core import ReadRules

        ca = two_dc_deployment.blocking_client("A")
        cb = two_dc_deployment.blocking_client("B")
        for i in range(6):
            ca.append(f"a{i}")
            cb.append(f"b{i}")
        assert two_dc_deployment.settle(max_seconds=10)
        entries = ca.read(ReadRules(host="B", min_toid=2, max_toid=4, most_recent=False))
        assert [e.record.toid for e in entries] == [2, 3, 4]
        assert all(e.record.host == "B" for e in entries)
