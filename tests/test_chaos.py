"""Chaos layer: seeded fault plans and pipeline ≡ abstract equivalence under chaos.

The fault model (docs/FAULTS.md) says a seeded :class:`FaultPlan` reproduces
the same failure schedule bit-for-bit, and the ISSUE's acceptance criterion is
that a chaos run with drops + duplicates + reorders + a maintainer crash + a
datacenter partition stays observationally equivalent to the abstract model —
exactly-once filtering and causal order must survive everything the plan
throws at the pipeline.
"""

import random

import pytest

from repro.chaos import (
    CrashEvent,
    FaultPlan,
    FaultRule,
    KillEvent,
    NetChaos,
    PartitionEvent,
)
from repro.chariots import ChariotsDeployment, check_logs
from repro.core import PipelineConfig
from repro.core.errors import ConfigurationError
from repro.runtime import Actor, LocalRuntime
from repro.sim import SimRuntime

from conftest import SinkActor, run_abstract
from test_sim import SIMPLE

DCS = ["A", "B", "C"]

#: Replication traffic is the safe chaos target: shipments are retransmitted
#: until acked and the filters admit exactly once, so drops / duplicates /
#: reorders there must never change the observable outcome.
SHIP = "ReplicationShipment"
ACK = "ShipmentAck"


class Ping:
    """A named message class so FaultRule.message_type has something to match."""


class Pong:
    pass


class Probe(Actor):
    """Counts everything it receives (with arrival times)."""

    def __init__(self, name: str = "probe") -> None:
        super().__init__(name)
        self.received = []

    def on_message(self, sender, message):
        self.received.append((self.now, sender, message))


# --------------------------------------------------------------------------- #
# FaultRule / FaultPlan unit behaviour
# --------------------------------------------------------------------------- #


class TestFaultRule:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultRule("explode")

    def test_probability_validated(self):
        with pytest.raises(ConfigurationError):
            FaultRule("drop", probability=1.5)

    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultRule("delay", delay=-0.1)

    def test_prefix_and_type_scoping(self):
        rule = FaultRule("drop", src="A/", dst="B/", message_type="Ping")
        assert rule.matches("A/sender/0", "B/receiver/0", Ping(), 0.0)
        assert not rule.matches("C/sender/0", "B/receiver/0", Ping(), 0.0)
        assert not rule.matches("A/sender/0", "C/receiver/0", Ping(), 0.0)
        assert not rule.matches("A/sender/0", "B/receiver/0", Pong(), 0.0)

    def test_window_is_half_open(self):
        rule = FaultRule("drop", start=1.0, end=2.0)
        assert not rule.matches("x", "y", Ping(), 0.99)
        assert rule.matches("x", "y", Ping(), 1.0)
        assert not rule.matches("x", "y", Ping(), 2.0)

    def test_max_count_bounds_firings(self):
        plan = FaultPlan(seed=1).drop(max_count=2)
        outcomes = [plan.intercept("x", "y", Ping(), 0.0) for _ in range(5)]
        assert outcomes[:2] == [None, None]
        assert all(out == [0.0] for out in outcomes[2:])


class TestPartitionEvent:
    def test_bidirectional_within_window(self):
        part = PartitionEvent("A/", "B/", start=1.0, end=3.0)
        assert part.active("A/sender/0", "B/receiver/0", 2.0)
        assert part.active("B/sender/0", "A/receiver/0", 2.0)
        assert not part.active("A/sender/0", "C/receiver/0", 2.0)
        assert not part.active("A/sender/0", "B/receiver/0", 3.0)


class TestFaultPlan:
    def test_drop_returns_none_and_counts(self):
        plan = FaultPlan(seed=3).drop(message_type="Ping")
        assert plan.intercept("x", "y", Ping(), 0.0) is None
        assert plan.intercept("x", "y", Pong(), 0.0) == [0.0]
        assert plan.stats["dropped"] == 1

    def test_duplicate_yields_two_copies(self):
        plan = FaultPlan(seed=3).duplicate(delay=0.02)
        copies = plan.intercept("x", "y", Ping(), 0.0)
        assert len(copies) == 2
        assert copies[0] == 0.0
        assert 0.0 <= copies[1] <= 0.02

    def test_delay_and_reorder_bounded(self):
        plan = FaultPlan(seed=3).delay(delay=0.1).reorder(delay=0.05)
        copies = plan.intercept("x", "y", Ping(), 0.0)
        assert len(copies) == 1
        # delay adds [0.05, 0.1], reorder adds [0, 0.05)
        assert 0.05 <= copies[0] < 0.15

    def test_same_seed_same_schedule(self):
        def outcomes(plan):
            return [plan.intercept("x", "y", Ping(), float(i)) for i in range(200)]

        build = lambda: FaultPlan(seed=42).drop(probability=0.3).duplicate(probability=0.3)
        assert outcomes(build()) == outcomes(build())

    def test_different_seed_different_schedule(self):
        def outcomes(seed):
            plan = FaultPlan(seed=seed).drop(probability=0.5)
            return [plan.intercept("x", "y", Ping(), 0.0) for _ in range(100)]

        assert outcomes(1) != outcomes(2)

    def test_dict_round_trip(self):
        plan = (
            FaultPlan(seed=7)
            .drop(src="A/", message_type=SHIP, probability=0.25, end=6.0)
            .duplicate(probability=0.2, delay=0.03)
            .reorder(dst="B/", delay=0.05, max_count=10)
            .crash("A/store/0", at=1.0)
            .kill("A/batcher/0", at=0.5)
            .partition("C/", "A/", start=2.0, end=5.0)
        )
        data = plan.to_dict()
        restored = FaultPlan.from_dict(data)
        assert restored.to_dict() == data
        assert restored.seed == 7
        assert restored.crashes == [CrashEvent("A/store/0", 1.0)]
        assert restored.kills == [KillEvent("A/batcher/0", 0.5)]
        assert restored.partitions == [PartitionEvent("C/", "A/", 2.0, 5.0)]


class TestNetChaos:
    def test_probability_validated(self):
        with pytest.raises(ConfigurationError):
            NetChaos(drop_probability=2.0)

    def test_pass_by_default(self):
        chaos = NetChaos(seed=1)
        assert chaos.decide("read_lid") == ("pass", 0.0)
        assert not chaos.stats

    def test_request_type_scoping(self):
        chaos = NetChaos(seed=1, drop_probability=1.0, request_types=["append"])
        assert chaos.decide("read_lid") == ("pass", 0.0)
        assert chaos.decide("append")[0] == "drop"

    def test_max_faults_guarantees_eventual_success(self):
        chaos = NetChaos(seed=1, drop_probability=1.0, max_faults=3)
        actions = [chaos.decide("read_lid")[0] for _ in range(6)]
        assert actions == ["drop", "drop", "drop", "pass", "pass", "pass"]

    def test_same_seed_same_decisions(self):
        build = lambda: NetChaos(seed=9, drop_probability=0.3, delay_probability=0.3)
        a, b = build(), build()
        assert [a.decide("x") for _ in range(100)] == [b.decide("x") for _ in range(100)]


# --------------------------------------------------------------------------- #
# Runtime integration: the plan actually shapes delivery (the same plan on
# every runtime, crash parking included: tests/test_runtime_contract.py)
# --------------------------------------------------------------------------- #


class TestLocalRuntimeChaos:
    def test_dropped_messages_never_delivered(self):
        runtime = LocalRuntime(chaos=FaultPlan(seed=1).drop(message_type="Ping"))
        probe = runtime.register(Probe())
        runtime.start()
        runtime.send("ghost", probe.name, Ping())
        runtime.send("ghost", probe.name, Pong())
        runtime.run()
        assert [type(m).__name__ for _, _, m in probe.received] == ["Pong"]
        assert runtime.messages_dropped == 1

    def test_duplicates_delivered_twice(self):
        runtime = LocalRuntime(chaos=FaultPlan(seed=1).duplicate(delay=0.01))
        probe = runtime.register(Probe())
        runtime.start()
        runtime.send("ghost", probe.name, Ping())
        runtime.run()
        assert len(probe.received) == 2

    def test_partition_blocks_both_directions(self):
        plan = FaultPlan(seed=1).partition("A/", "B/", start=0.0, end=1.0)
        runtime = LocalRuntime(chaos=plan)
        a = runtime.register(Probe("A/probe"))
        b = runtime.register(Probe("B/probe"))
        runtime.start()
        runtime.send("A/x", b.name, Ping())
        runtime.send("B/x", a.name, Ping())
        runtime.run_for(0.5)
        assert not a.received and not b.received
        runtime.run_for(1.0)  # window over: traffic flows again
        runtime.send("A/x", b.name, Ping())
        runtime.run()
        assert len(b.received) == 1
        assert plan.stats["partitioned"] == 2

    def test_crashed_actor_sends_nothing(self):
        runtime = LocalRuntime()
        probe = runtime.register(Probe())
        runtime.register(Probe("dead"))
        runtime.start()
        runtime.crash("dead")
        runtime.send("dead", probe.name, Ping())
        runtime.run()
        assert not probe.received
        assert runtime.messages_dropped == 1

    def test_crash_unknown_actor_rejected(self):
        runtime = LocalRuntime()
        with pytest.raises(ConfigurationError):
            runtime.crash("nobody")


class TestSimRuntimeChaos:
    def test_drops_apply_under_the_capacity_model(self):
        from repro.runtime import RecordBatch
        from conftest import rec

        runtime = SimRuntime(chaos=FaultPlan(seed=1).drop(message_type="RecordBatch"))
        sink = SinkActor("sink")
        runtime.place_on_new_machine(sink, profile=SIMPLE)
        src = SinkActor("src")
        runtime.place_on_new_machine(src, profile=SIMPLE)
        runtime.start()
        runtime.send("src", "sink", RecordBatch([rec("A", 1)]))
        runtime.run()
        assert sink.records_received == 0
        assert runtime.messages_dropped == 1


# --------------------------------------------------------------------------- #
# Pipeline ≡ abstract equivalence under chaos (the acceptance criterion)
# --------------------------------------------------------------------------- #

#: Faster retransmissions + breaker probes than production defaults so chaos
#: runs converge in a few simulated seconds.
CHAOS_CONFIG = PipelineConfig(
    retransmit_base=0.1,
    retransmit_max=0.8,
    breaker_failure_threshold=4,
    breaker_reset_timeout=0.5,
)


def make_workload(seed, size=20):
    rng = random.Random(seed)
    return [(DCS[rng.randrange(len(DCS))], f"p{i}") for i in range(size)]


def run_chaotic_pipeline(workload, plan, max_seconds=120):
    runtime = LocalRuntime(chaos=plan)
    deployment = ChariotsDeployment(
        runtime, DCS, batch_size=4, pipeline_config=CHAOS_CONFIG
    )
    clients = {dc: deployment.blocking_client(dc) for dc in DCS}
    for dc, body in workload:
        clients[dc].append(body)
    assert deployment.settle(max_seconds=max_seconds)
    return deployment


def replication_chaos(seed):
    """Drops + duplicates + reorders on replication traffic, bounded window."""
    return (
        FaultPlan(seed=seed)
        .drop(message_type=SHIP, probability=0.25, end=6.0)
        .drop(message_type=ACK, probability=0.25, end=6.0)
        .duplicate(message_type=SHIP, probability=0.25, delay=0.05, end=6.0)
        .reorder(message_type=SHIP, delay=0.05, end=6.0)
        .reorder(message_type=ACK, delay=0.05, end=6.0)
    )


class TestEquivalenceUnderChaos:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_drops_dups_reorders_preserve_equivalence(self, seed):
        workload = make_workload(seed)
        plan = replication_chaos(seed)
        pipeline = run_chaotic_pipeline(workload, plan)
        # The plan must actually have interfered for the run to mean anything.
        assert plan.stats["dropped"] > 0
        assert plan.stats["duplicated"] > 0
        assert plan.stats["reordered"] > 0
        assert check_logs(pipeline.logs(), reference=run_abstract(DCS, workload)).ok

    def test_full_acceptance_run(self):
        """drops + dups + reorders + one maintainer crash + one DC partition,
        under supervision — still observationally equivalent."""
        workload = make_workload(99, size=24)
        plan = (
            replication_chaos(99)
            .crash("A/store/0", at=0.3)
            .partition("C/", "A/", start=0.5, end=2.0)
            .partition("C/", "B/", start=0.5, end=2.0)
        )
        runtime = LocalRuntime(chaos=plan)
        deployment = ChariotsDeployment(
            runtime, DCS, batch_size=4, pipeline_config=CHAOS_CONFIG
        )
        supervisor = deployment.supervise()
        clients = {dc: deployment.blocking_client(dc) for dc in DCS}
        # First wave before the faults; then drive time into the partition
        # window (the crash at 0.3 fires on the way) and append the rest
        # while C is dark and A's maintainer is being restarted.
        for dc, body in workload[:12]:
            clients[dc].append(body)
        runtime.run_for(max(0.0, 0.8 - runtime.now))
        for dc, body in workload[12:]:
            clients[dc].append(body)
        assert deployment.settle(max_seconds=120)

        assert supervisor.restarts["A/store/0"] >= 1
        assert plan.stats["partitioned"] > 0
        assert plan.stats["dropped"] > 0
        assert plan.stats["duplicated"] > 0
        assert plan.stats["reordered"] > 0
        assert check_logs(deployment.logs(), reference=run_abstract(DCS, workload)).ok

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", [11, 12, 13, 14, 15])
    def test_soak_many_seeds_with_crash_and_partition(self, seed):
        """Long variant of the acceptance run: larger workloads, more seeds."""
        workload = make_workload(seed, size=60)
        plan = (
            replication_chaos(seed)
            .crash("B/store/0", at=0.4)
            .partition("A/", "C/", start=1.0, end=3.0)
        )
        runtime = LocalRuntime(chaos=plan)
        deployment = ChariotsDeployment(
            runtime, DCS, batch_size=4, pipeline_config=CHAOS_CONFIG
        )
        supervisor = deployment.supervise()
        clients = {dc: deployment.blocking_client(dc) for dc in DCS}
        for dc, body in workload[:30]:
            clients[dc].append(body)
        runtime.run_for(max(0.0, 1.5 - runtime.now))  # crash fired; partition on
        for dc, body in workload[30:]:
            clients[dc].append(body)
        assert deployment.settle(max_seconds=300)
        assert supervisor.restarts["B/store/0"] >= 1
        assert plan.stats["partitioned"] > 0
        assert check_logs(deployment.logs(), reference=run_abstract(DCS, workload)).ok
