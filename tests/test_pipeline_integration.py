"""Integration tests for the geo-replicated Chariots pipeline (§6.2)."""

import pytest

from repro.chaos import FaultPlan
from repro.chariots import ChariotsDeployment, check_logs
from repro.core import ReadRules
from repro.runtime import LocalRuntime


class TestSingleDatacenter:
    def test_append_assigns_dense_lids(self, runtime):
        deployment = ChariotsDeployment(runtime, ["A"], batch_size=4)
        client = deployment.blocking_client("A")
        lids = [client.append(f"b{i}").lid for i in range(10)]
        assert lids == list(range(10))

    def test_reads_see_appended_records(self, runtime):
        deployment = ChariotsDeployment(runtime, ["A"], batch_size=4)
        client = deployment.blocking_client("A")
        result = client.append("payload", tags={"k": "v"})
        assert client.read_lid(result.lid).entries[0].record.body == "payload"

    def test_multiple_clients_all_sequenced(self, runtime):
        deployment = ChariotsDeployment(runtime, ["A"], batch_size=4)
        clients = [deployment.blocking_client("A") for _ in range(3)]
        for i in range(5):
            for c in clients:
                c.append(f"b{i}")
        runtime.run_for(0.1)
        assert deployment["A"].total_records() == 15

    def test_per_client_fifo(self, runtime):
        deployment = ChariotsDeployment(runtime, ["A"], batch_size=4)
        client = deployment.blocking_client("A")
        results = [client.append(f"b{i}") for i in range(8)]
        toids = [r.toid for r in results]
        assert toids == sorted(toids)


class TestGeoReplication:
    def test_two_dc_convergence(self, two_dc_deployment):
        ca = two_dc_deployment.blocking_client("A")
        cb = two_dc_deployment.blocking_client("B")
        for i in range(5):
            ca.append(f"a{i}")
            cb.append(f"b{i}")
        assert two_dc_deployment.settle(max_seconds=10)
        assert two_dc_deployment["A"].total_records() == 10
        assert two_dc_deployment["B"].total_records() == 10

    def test_three_dc_convergence_with_scaled_stages(self, three_dc_deployment):
        clients = {dc: three_dc_deployment.blocking_client(dc) for dc in "ABC"}
        for i in range(4):
            for dc, client in clients.items():
                client.append(f"{dc}{i}")
        assert three_dc_deployment.settle(max_seconds=15)
        assert check_logs(three_dc_deployment.logs()).ok
        assert three_dc_deployment["A"].total_records() == 12

    def test_logs_causally_consistent_everywhere(self, two_dc_deployment):
        ca = two_dc_deployment.blocking_client("A")
        cb = two_dc_deployment.blocking_client("B")
        a1 = ca.append("a1")
        two_dc_deployment.settle(max_seconds=5)
        cb.append("b-after-a1", deps={"A": a1.toid})
        ca.append("a2")
        assert two_dc_deployment.settle(max_seconds=10)
        assert check_logs(two_dc_deployment.logs()).ok

    def test_figure_2_divergent_but_causal_orders(self, runtime):
        """The paper's Figure 2: uncoordinated puts may interleave
        differently at A and B, which is permissible without dependencies."""
        deployment = ChariotsDeployment(runtime, ["A", "B"], batch_size=8)
        ca = deployment.blocking_client("A")
        cb = deployment.blocking_client("B")
        ca.append("x=10", tags={"key": "x"})
        cb.append("x=30", tags={"key": "x"})
        assert deployment.settle(max_seconds=10)
        a_order = [e.record.body for e in deployment["A"].all_entries()]
        b_order = [e.record.body for e in deployment["B"].all_entries()]
        assert set(a_order) == set(b_order) == {"x=10", "x=30"}
        # The local record always precedes the remote one at its host.
        assert a_order[0] == "x=10"
        assert b_order[0] == "x=30"

    def test_toids_identical_across_copies(self, two_dc_deployment):
        ca = two_dc_deployment.blocking_client("A")
        results = [ca.append(f"a{i}") for i in range(3)]
        assert two_dc_deployment.settle(max_seconds=10)
        assert check_logs(two_dc_deployment.logs(), acks=results).ok


class TestExactlyOnce:
    def test_wan_reordering_does_not_duplicate_or_drop(self):
        runtime = LocalRuntime(chaos=FaultPlan(seed=7).reorder(delay=0.08))
        deployment = ChariotsDeployment(runtime, ["A", "B"], batch_size=4)
        ca = deployment.blocking_client("A")
        cb = deployment.blocking_client("B")
        for i in range(10):
            ca.append(f"a{i}")
            cb.append(f"b{i}")
        assert deployment.settle(max_seconds=30)
        assert check_logs(deployment.logs()).ok
        assert deployment["A"].total_records() == 20

    def test_replication_drops_recovered_by_retransmission(self):
        # Drop 30% of cross-datacenter shipments (never acks/local).
        plan = FaultPlan(seed=3).drop(message_type="ReplicationShipment", probability=0.3)
        runtime = LocalRuntime(chaos=plan)
        deployment = ChariotsDeployment(runtime, ["A", "B"], batch_size=4)
        ca = deployment.blocking_client("A")
        results = [ca.append(f"a{i}") for i in range(12)]
        assert deployment.settle(max_seconds=60)
        assert check_logs(deployment.logs(), acks=results).ok

    def test_duplicate_shipments_filtered(self):
        # Aggressive retransmission: every shipment is delivered twice.
        plan = FaultPlan().duplicate(message_type="ReplicationShipment", delay=0.0)
        runtime = LocalRuntime(chaos=plan)
        deployment = ChariotsDeployment(runtime, ["A", "B"], batch_size=4)
        ca = deployment.blocking_client("A")
        for i in range(8):
            ca.append(f"a{i}")
        assert deployment.settle(max_seconds=20)
        assert check_logs(deployment.logs()).ok
        assert deployment["B"].total_records() == 8


class TestPartitionTolerance:
    def test_datacenters_stay_available_during_partition(self):
        plan = FaultPlan().partition("A/", "B/")
        runtime = LocalRuntime(chaos=plan)
        deployment = ChariotsDeployment(runtime, ["A", "B"], batch_size=4)
        ca = deployment.blocking_client("A")
        cb = deployment.blocking_client("B")
        # Both sides accept writes while partitioned (AP choice, §1).
        for i in range(5):
            assert ca.append(f"a{i}").lid == i
            assert cb.append(f"b{i}").lid == i
        # Heal the partition; replication converges.
        plan.partitions[0].end = runtime.now
        assert deployment.settle(max_seconds=30)
        assert len(deployment["A"].all_entries()) == 10


class TestHeadAndSnapshots:
    def test_head_of_log_has_no_gaps(self, two_dc_deployment):
        runtime = two_dc_deployment.runtime
        ca = two_dc_deployment.blocking_client("A")
        for i in range(10):
            ca.append(f"a{i}")
        runtime.run_for(0.2)
        head = ca.head()
        for lid in range(head + 1):
            assert ca.read_lid(lid).error is None

    def test_tag_reads_over_pipeline(self, two_dc_deployment):
        ca = two_dc_deployment.blocking_client("A")
        for i in range(6):
            ca.append(f"v{i}", tags={"stream": "s", "i": i})
        two_dc_deployment.runtime.run_for(0.2)
        entries = ca.read(ReadRules(tag_key="stream", tag_value="s", limit=3))
        assert len(entries) == 3


class TestGcEndToEnd:
    def test_pipeline_gc_truncates_replicated_prefix(self):
        from repro.core import PipelineConfig

        runtime = LocalRuntime()
        deployment = ChariotsDeployment(
            runtime,
            ["A", "B"],
            batch_size=4,
            pipeline_config=PipelineConfig(gc_interval=0.05),
        )
        ca = deployment.blocking_client("A")
        cb = deployment.blocking_client("B")
        for i in range(8):
            ca.append(f"a{i}")
            cb.append(f"b{i}")
        assert deployment.settle(max_seconds=10)
        # Keep running with no appends: the GC coordinators gossip their
        # ATables, the tables converge, GC sweeps truncate.
        runtime.run_for(3.0)
        collected = sum(
            1
            for m in deployment["A"].maintainers
            if (m.core.gc_floor or 0) > (m.core.plan.first_owned_lid(m.core.name) or 0)
        )
        assert collected > 0
        assert deployment["A"].total_records() < 16

    def test_gc_under_a_partition_collects_nothing_the_peer_lacks(self):
        # A maintainer collects a record only once every datacenter has
        # incorporated it (the Awareness Table rule), so the senders'
        # cursors, resuming after the heal, find every record the peer
        # still lacks in the log: nothing is lost below a collected prefix.
        from repro.core import PipelineConfig

        plan = FaultPlan().partition("A/", "B/", start=0.4, end=1.4)
        runtime = LocalRuntime(chaos=plan)
        deployment = ChariotsDeployment(
            runtime,
            ["A", "B"],
            batch_size=4,
            pipeline_config=PipelineConfig(
                gc_interval=0.05, retransmit_base=0.05, retransmit_max=0.4,
                breaker_failure_threshold=3, breaker_reset_timeout=0.3,
            ),
        )
        runtime.start()
        clients = {dc: deployment.client(dc) for dc in "AB"}
        for chunk in range(20):  # before, during and after the partition
            for dc in "AB":
                for i in range(3):
                    clients[dc].append(f"{dc}{chunk}-{i}")
            runtime.run_for(0.1)
        assert plan.stats["partitioned"] > 0
        assert deployment.settle(max_seconds=60)
        runtime.run_for(1.0)  # GC sweeps what both sides now hold
        for dc in "AB":
            pipe = deployment[dc]
            collected = sum(m.core.records_collected for m in pipe.maintainers)
            assert collected > 0
            assert pipe.total_records() + collected == 120  # held or collected
            assert deployment.frontiers()[dc] == {"A": 60, "B": 60}


class TestVisibilityWait:
    def test_wait_until_visible_blocks_for_replication(self, two_dc_deployment):
        ca = two_dc_deployment.blocking_client("A")
        cb = two_dc_deployment.blocking_client("B")
        result = ca.append("cross-dc")
        assert two_dc_deployment.settle()
        rules = ReadRules(host="A", min_toid=result.toid, max_toid=result.toid, limit=1)
        [entry] = cb.read(rules)
        assert entry.record.body == "cross-dc"

    def test_wait_until_visible_times_out_cleanly(self, runtime):
        from repro.chariots import ChariotsDeployment
        from repro.core.errors import RuntimeExhaustedError

        deployment = ChariotsDeployment(runtime, ["A"], batch_size=4)
        deployment.blocking_client("A").append("local")
        with pytest.raises(RuntimeExhaustedError):
            runtime.run_until(lambda: "ghost-dc" in deployment["A"].frontier(), timeout=0.2)
