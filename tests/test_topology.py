"""Partial replication topologies and transitive shipping (§6.1's
Replicated-Dictionary-style propagation, extended to the pipeline)."""


from repro.chaos import FaultPlan
from repro.chariots import ChariotsDeployment, check_logs
from repro.core import PipelineConfig
from repro.runtime import LocalRuntime


def ring(dcs):
    return {dc: [dcs[(i + 1) % len(dcs)]] for i, dc in enumerate(dcs)}


def chain_topology(dcs):
    links = {dc: [] for dc in dcs}
    for a, b in zip(dcs, dcs[1:]):
        links[a].append(b)
        links[b].append(a)
    return links


class TestRingTopology:
    def test_ring_converges_with_transitive_shipping(self):
        runtime = LocalRuntime()
        deployment = ChariotsDeployment(
            runtime, ["A", "B", "C"], batch_size=4, topology=ring(["A", "B", "C"])
        )
        assert deployment.transitive  # implied by the custom topology
        clients = {dc: deployment.blocking_client(dc) for dc in "ABC"}
        for i in range(4):
            for dc, client in clients.items():
                client.append(f"{dc}{i}")
        assert deployment.settle(max_seconds=60)
        assert check_logs(deployment.logs()).ok
        assert deployment["A"].total_records() == 12

    def test_ring_logs_stay_causally_consistent(self):
        runtime = LocalRuntime()
        deployment = ChariotsDeployment(
            runtime, ["A", "B", "C"], batch_size=4, topology=ring(["A", "B", "C"])
        )
        ca = deployment.blocking_client("A")
        a1 = ca.append("base")
        deployment.settle(max_seconds=30)
        cc = deployment.blocking_client("C")
        cc.append("depends", deps={"A": a1.toid})
        assert deployment.settle(max_seconds=60)
        assert check_logs(deployment.logs()).ok

    def test_four_dc_ring(self):
        runtime = LocalRuntime()
        dcs = ["A", "B", "C", "D"]
        deployment = ChariotsDeployment(
            runtime, dcs, batch_size=4, topology=ring(dcs)
        )
        clients = {dc: deployment.blocking_client(dc) for dc in dcs}
        for dc, client in clients.items():
            client.append(f"from-{dc}")
        assert deployment.settle(max_seconds=90)
        assert check_logs(deployment.logs()).ok
        assert deployment["A"].total_records() == 4


class TestChainTopology:
    def test_chain_converges_via_the_middle(self):
        # A <-> B <-> C: A and C never talk directly.
        runtime = LocalRuntime()
        deployment = ChariotsDeployment(
            runtime, ["A", "B", "C"], batch_size=4,
            topology=chain_topology(["A", "B", "C"]),
        )
        ca = deployment.blocking_client("A")
        cc = deployment.blocking_client("C")
        ca.append("from-A")
        cc.append("from-C")
        assert deployment.settle(max_seconds=60)
        assert check_logs(deployment.logs()).ok  # C's record reached A, and B
        assert deployment["A"].total_records() == 2


class TestFullMeshDefaults:
    def test_full_mesh_is_direct_by_default(self):
        runtime = LocalRuntime()
        deployment = ChariotsDeployment(runtime, ["A", "B"], batch_size=4)
        assert not deployment.transitive
        for pipeline in deployment.pipelines.values():
            for sender in pipeline.senders:
                assert not sender.transitive

    def test_explicit_transitive_on_full_mesh(self):
        runtime = LocalRuntime()
        deployment = ChariotsDeployment(
            runtime, ["A", "B", "C"], batch_size=4, transitive=True
        )
        clients = {dc: deployment.blocking_client(dc) for dc in "ABC"}
        for dc, client in clients.items():
            client.append(f"x-{dc}")
        assert deployment.settle(max_seconds=30)
        # Transitive forwarding over a mesh must not duplicate records.
        assert check_logs(deployment.logs()).ok
        assert deployment["A"].total_records() == 3


class TestGcOverPartialTopology:
    def test_atable_converges_around_the_ring(self):
        runtime = LocalRuntime()
        deployment = ChariotsDeployment(
            runtime, ["A", "B", "C"], batch_size=4,
            topology=ring(["A", "B", "C"]),
            pipeline_config=PipelineConfig(gc_interval=0.05),
        )
        ca = deployment.blocking_client("A")
        for i in range(8):
            ca.append(f"a{i}")
        assert deployment.settle(max_seconds=60)
        runtime.run_for(3.0)
        # A hears what C knows only from C's coordinator, which gossips to A
        # along the ring's one edge into A.
        atable = deployment["A"].gc.atable
        assert atable.get("C", "A") >= 8

    def test_gc_fires_on_ring_topology(self):
        runtime = LocalRuntime()
        deployment = ChariotsDeployment(
            runtime, ["A", "B", "C"], batch_size=4,
            topology=ring(["A", "B", "C"]),
            pipeline_config=PipelineConfig(gc_interval=0.05),
        )
        clients = {dc: deployment.blocking_client(dc) for dc in "ABC"}
        for i in range(5):
            for client in clients.values():
                client.append(f"r{i}")
        assert deployment.settle(max_seconds=60)
        runtime.run_for(4.0)
        total_before_gc = 15
        assert deployment["A"].total_records() < total_before_gc

    def test_pipeline_atable_never_overclaims(self):
        """The pipeline counterpart of the abstract solution's property: a
        cell ``T_X[Y, h]`` never exceeds what Y's own queues have reported,
        however the gossip is dropped, duplicated, reordered or partitioned."""
        dcs = ["A", "B", "C"]
        plan = (
            FaultPlan(seed=11)
            .drop(message_type="AtableSnapshot", probability=0.3)
            .duplicate(message_type="AtableSnapshot", probability=0.3, delay=0.03)
            .reorder(message_type="AtableSnapshot", delay=0.05)
            .partition("A/", "B/", start=0.5, end=1.5)
        )
        runtime = LocalRuntime(chaos=plan)
        deployment = ChariotsDeployment(
            runtime, dcs, batch_size=4, topology=ring(dcs),
            pipeline_config=PipelineConfig(
                gc_interval=0.05, retransmit_base=0.05, retransmit_max=0.4,
            ),
        )
        runtime.start()
        clients = {dc: deployment.client(dc) for dc in dcs}

        def never_overclaims():
            frontiers = {dc: deployment[dc].frontier() for dc in dcs}
            for x in dcs:
                table = deployment[x].gc.atable
                for y in dcs:
                    for host in dcs:
                        assert table.get(y, host) <= frontiers[y][host], (x, y, host)

        for step in range(2500):
            if step % 100 == 0 and step < 2000:  # before, during and after the partition
                for dc in dcs:
                    for i in range(2):
                        clients[dc].append(f"{dc}{step}-{i}")
            runtime.run_for(0.001)
            never_overclaims()
        assert plan.stats["partitioned"] > 0 and plan.stats["dropped"] > 0
        assert plan.stats["duplicated"] > 0 and plan.stats["reordered"] > 0
        assert deployment.settle(max_seconds=60)
        runtime.run_for(1.0)  # GC sweeps what every datacenter now holds
        never_overclaims()
        for dc in dcs:
            pipe = deployment[dc]
            collected = sum(m.core.records_collected for m in pipe.maintainers)
            assert collected >= 1
            assert pipe.total_records() + collected == 120  # held or collected
            assert deployment.frontiers()[dc] == {"A": 40, "B": 40, "C": 40}
