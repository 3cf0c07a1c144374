"""Resilience policies: retry/backoff, circuit breakers, supervised recovery.

Covers the shared :mod:`repro.core.retry` mechanisms, the sender's backoff /
circuit-breaker retransmission schedule, supervised journal-based maintainer
restart (no lost or duplicated LIds), partition → heal → ATable-driven
catch-up, and the asyncio client's retry behaviour against an adversarial
server (``NetChaos``).
"""

import asyncio
import math
import random

import pytest

from repro.chaos import FaultPlan, NetChaos
from repro.chariots import ChariotsDeployment, check_logs
from repro.core import CircuitBreaker, PipelineConfig, RetryPolicy
from repro.core.errors import (
    AppendDeferred,
    ChariotsError,
    CircuitOpenError,
    ConfigurationError,
)
from repro.net.client import AsyncFLStoreClient
from repro.net.deploy import FLStoreNetDeployment
from repro.runtime import LocalRuntime, Supervisor

from conftest import streams_caught_up


def run(coro):
    return asyncio.run(coro)


#: Fast retransmissions / breaker probes for seconds-scale tests.
FAST = PipelineConfig(
    retransmit_base=0.1,
    retransmit_max=0.8,
    breaker_failure_threshold=3,
    breaker_reset_timeout=0.5,
)


# --------------------------------------------------------------------------- #
# RetryPolicy
# --------------------------------------------------------------------------- #


class TestRetryPolicy:
    def test_exponential_growth_capped(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=0.8, multiplier=2.0, jitter=0.0)
        assert [policy.delay(i) for i in range(5)] == pytest.approx(
            [0.1, 0.2, 0.4, 0.8, 0.8]
        )

    def test_jitter_stays_within_bounds(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=0.1, jitter=0.2)
        rng = random.Random(7)
        for _ in range(100):
            assert 0.08 <= policy.delay(0, rng) <= 0.12

    def test_jitter_deterministic_under_seeded_rng(self):
        policy = RetryPolicy(jitter=0.3)
        a = [policy.delay(i, random.Random(5)) for i in range(4)]
        b = [policy.delay(i, random.Random(5)) for i in range(4)]
        assert a == b

    def test_delays_yields_one_wait_per_retry(self):
        policy = RetryPolicy(max_attempts=4, jitter=0.0)
        assert len(list(policy.delays())) == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"base_delay": 0.0},
            {"base_delay": 0.2, "max_delay": 0.1},
            {"multiplier": 0.5},
            {"jitter": 1.0},
            {"max_attempts": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**kwargs)

    def test_config_derives_retransmit_policy(self):
        config = PipelineConfig(retransmit_base=0.2, retransmit_max=1.6)
        policy = config.retransmit_policy()
        assert policy.base_delay == 0.2
        assert policy.max_delay == 1.6
        assert (policy.multiplier, policy.jitter) == (2.0, 0.1)
        assert policy.max_attempts > 1000  # senders retransmit until acked


# --------------------------------------------------------------------------- #
# CircuitBreaker
# --------------------------------------------------------------------------- #


class TestCircuitBreaker:
    def test_closed_allows_traffic(self):
        breaker = CircuitBreaker()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow(0.0)

    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout=1.0)
        for t in range(2):
            breaker.record_failure(float(t))
            assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure(2.0)
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.opens == 1
        assert not breaker.allow(2.5)

    def test_success_resets_the_failure_count(self):
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout=1.0)
        breaker.record_failure(0.0)
        breaker.record_success(0.1)
        breaker.record_failure(0.2)
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_probe_after_reset_timeout(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=1.0)
        breaker.record_failure(0.0)
        assert not breaker.allow(0.5)
        assert breaker.allow(1.0)  # the single probe
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.probes == 1
        assert not breaker.allow(1.0)  # probe already in flight

    def test_probe_success_closes(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=1.0)
        breaker.record_failure(0.0)
        assert breaker.allow(1.0)
        breaker.record_success(1.1)
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow(1.1)

    def test_probe_failure_reopens_and_restarts_cooldown(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=1.0)
        breaker.record_failure(0.0)
        assert breaker.allow(1.0)
        breaker.record_failure(1.1)
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.opens == 2
        assert not breaker.allow(1.5)  # cooldown restarted at 1.1
        assert breaker.allow(2.1)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ConfigurationError):
            CircuitBreaker(reset_timeout=0.0)


# --------------------------------------------------------------------------- #
# Sender retransmission: backoff schedule + per-peer breaker
# --------------------------------------------------------------------------- #


class TestSenderBackoffAndBreaker:
    def build(self):
        """Two datacenters; acks are dropped inside the window of the
        returned rule (closed until its ``start`` is set), and the send time
        of every record-carrying shipment is logged."""
        times = []
        plan = FaultPlan().drop(message_type="ShipmentAck", start=math.inf)

        class ShipmentLog(LocalRuntime):
            def send(self, src, dst, message):
                if type(message).__name__ == "ReplicationShipment" and message.ship_seq > 0:
                    times.append(self.now)
                super().send(src, dst, message)

        runtime = ShipmentLog(chaos=plan)
        deployment = ChariotsDeployment(
            runtime, ["A", "B"], batch_size=4, pipeline_config=FAST
        )
        return runtime, deployment, plan.rules[0], times

    def test_retransmission_gaps_grow_exponentially(self):
        runtime, deployment, drop_acks, times = self.build()
        client = deployment.blocking_client("A")
        drop_acks.start = runtime.now
        client.append("unacked")
        runtime.run_for(1.2)
        # First transmission + retries with growing waits (0.1, ~0.2, ~0.4 ...).
        assert len(times) >= 3
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert gaps[1] > gaps[0] * 1.3
        if len(gaps) >= 3:
            assert gaps[2] > gaps[1] * 1.3

    def test_breaker_opens_after_repeated_timeouts_then_heals(self):
        runtime, deployment, drop_acks, times = self.build()
        client = deployment.blocking_client("A")
        drop_acks.start = runtime.now
        client.append("buffered")
        runtime.run_for(4.0)
        sender = deployment["A"].senders[0]
        breaker = sender.breaker("B")
        assert breaker.opens >= 1  # peer declared down after 3 timeouts
        transmissions_down = len(times)

        drop_acks.end = runtime.now  # the "partition" heals
        assert deployment.settle(max_seconds=30)
        # settle() tracks incorporation, not sender bookkeeping: the records
        # already reached B during the outage, so convergence can precede the
        # final probe/ack cycle.  One more retry period closes the breaker.
        runtime.run_for(2.0)
        assert breaker.state == CircuitBreaker.CLOSED
        assert streams_caught_up(sender, deployment["A"].maintainers)  # acked everywhere
        assert len(times) > transmissions_down  # a probe/retransmit got through
        assert check_logs(deployment.logs()).ok
        assert deployment["B"].all_entries()

    def test_open_breaker_stops_retransmissions(self):
        runtime, deployment, drop_acks, times = self.build()
        client = deployment.blocking_client("A")
        drop_acks.start = runtime.now
        client.append("shed")
        runtime.run_for(4.0)
        # While OPEN the sender must not hammer the peer: during each 0.5 s
        # cooldown no transmission happens, so the send rate collapses well
        # below the one-per-tick (0.02 s) rate a naive retry loop would show.
        assert len(times) < 15


# --------------------------------------------------------------------------- #
# Supervised recovery: crash mid-batch, partition catch-up, degraded mode
# --------------------------------------------------------------------------- #


class TestSupervisedRecovery:
    def test_maintainer_crash_mid_batch_no_lost_or_duplicate_lids(self):
        runtime = LocalRuntime()
        deployment = ChariotsDeployment(
            runtime, ["A", "B"], batch_size=4, pipeline_config=FAST
        )
        supervisor = deployment.supervise(check_interval=0.02)
        client = deployment.blocking_client("A")
        pre = [client.append(f"pre{i}") for i in range(6)]
        runtime.crash("A/store/0")  # mid-batch: LIds 4..7 partially placed
        post = [client.append(f"post{i}") for i in range(6)]
        assert deployment.settle(max_seconds=60)

        assert supervisor.restarts["A/store/0"] >= 1
        # No LId duplicated, no record lost (every ack at its LId), and the
        # remote datacenter holding the same records.
        assert check_logs(deployment.logs(), acks=pre + post).ok
        assert deployment["A"].total_records() == 12

    def test_supervisor_restarts_repeated_crashes(self):
        runtime = LocalRuntime()
        deployment = ChariotsDeployment(
            runtime, ["A"], batch_size=4, pipeline_config=FAST
        )
        supervisor = deployment.supervise(check_interval=0.02)
        client = deployment.blocking_client("A")
        for round_no in range(3):
            client.append(f"r{round_no}")
            runtime.crash("A/store/0")
            runtime.run_for(0.1)  # supervisor sweep restarts it
            assert not "A/store/0" in runtime.crashed_actors()
        assert supervisor.restarts["A/store/0"] == 3
        assert deployment.settle(max_seconds=30)
        assert deployment["A"].total_records() == 3

    def test_unsupervised_actor_stays_down(self):
        runtime = LocalRuntime()
        supervisor = runtime.register(Supervisor(check_interval=0.01))
        from repro.runtime import Actor

        class Idle(Actor):
            def on_message(self, sender, message):
                pass

        runtime.register(Idle("loner"))
        runtime.start()
        runtime.crash("loner")
        runtime.run_for(0.1)
        assert "loner" in runtime.crashed_actors()  # no factory registered
        assert not supervisor.restarts

    def test_partition_heal_atable_catch_up(self):
        plan = FaultPlan(seed=5).partition("A/", "B/", start=1.0, end=3.0)
        runtime = LocalRuntime(chaos=plan)
        deployment = ChariotsDeployment(
            runtime, ["A", "B"], batch_size=4, pipeline_config=FAST
        )
        client = deployment.blocking_client("A")
        pre = [client.append(f"pre{i}") for i in range(4)]
        assert deployment.settle(max_seconds=20)
        pre_set = {e.rid for e in deployment["B"].all_entries()}
        assert len(pre_set) == 4

        # Inside the partition window: local appends stay available ...
        runtime.run_for(max(0.0, 1.1 - runtime.now))
        during = [client.append(f"during{i}") for i in range(4)]
        assert len({r.lid for r in during}) == 4
        runtime.run_for(0.8)
        # ... and the partitioned peer keeps serving its pre-failure log.
        assert {e.rid for e in deployment["B"].all_entries()} == pre_set
        assert plan.stats["partitioned"] > 0

        # Heal: the sender's breaker probes, retransmits, and the Awareness
        # Table frontiers re-converge with every record exactly once.
        assert deployment.settle(max_seconds=60)
        assert check_logs(deployment.logs()).ok
        assert len(deployment["B"].all_entries()) == 8
        assert (
            deployment["B"].frontier().get("A")
            == deployment["A"].frontier().get("A")
        )

    def test_crash_and_partition_together(self):
        """Degraded mode everywhere at once: B partitioned while A's only
        maintainer is down — supervision plus parking still converge."""
        plan = (
            FaultPlan(seed=6)
            .crash("A/store/0", at=0.5)
            .partition("A/", "B/", start=0.5, end=2.0)
        )
        runtime = LocalRuntime(chaos=plan)
        deployment = ChariotsDeployment(
            runtime, ["A", "B"], batch_size=4, pipeline_config=FAST
        )
        supervisor = deployment.supervise(check_interval=0.02)
        clients = {dc: deployment.blocking_client(dc) for dc in "AB"}
        for i in range(4):
            clients["A"].append(f"a{i}")
            clients["B"].append(f"b{i}")
        assert deployment.settle(max_seconds=60)
        assert check_logs(deployment.logs()).ok
        assert deployment["A"].total_records() == 8


# --------------------------------------------------------------------------- #
# asyncio client: retry policy, typed deferred appends, circuit breaker
# --------------------------------------------------------------------------- #


async def _client_for(deployment, **kwargs):
    client = AsyncFLStoreClient(deployment.controller.address, **kwargs)
    await client.connect()
    return client


class TestNetResilience:
    def test_reads_retry_through_dropped_requests(self):
        async def scenario():
            deployment = FLStoreNetDeployment(n_maintainers=1, n_indexers=0, batch_size=4)
            await deployment.start()
            try:
                client = await _client_for(
                    deployment,
                    retry_policy=RetryPolicy(
                        base_delay=0.02, max_delay=0.1, max_attempts=6, op_timeout=0.3
                    ),
                    breaker_failure_threshold=10,
                )
                result = await client.append("v0")
                chaos = NetChaos(
                    seed=2, drop_probability=1.0, max_faults=2,
                    request_types=["read_lid"],
                )
                deployment.maintainers[0].chaos = chaos
                entry = await client.read_lid(result.lid)  # 2 timeouts, then ok
                assert entry.record.body == "v0"
                assert chaos.stats["drop"] == 2
                await client.close()
            finally:
                await deployment.stop()

        run(scenario())

    def test_reads_retry_through_disconnects(self):
        async def scenario():
            deployment = FLStoreNetDeployment(n_maintainers=1, n_indexers=0, batch_size=4)
            await deployment.start()
            try:
                client = await _client_for(
                    deployment,
                    retry_policy=RetryPolicy(
                        base_delay=0.01, max_delay=0.05, max_attempts=5, op_timeout=2.0
                    ),
                )
                result = await client.append("v0")
                chaos = NetChaos(
                    seed=3, disconnect_probability=1.0, max_faults=1,
                    request_types=["read_lid"],
                )
                deployment.maintainers[0].chaos = chaos
                entry = await client.read_lid(result.lid)
                assert entry.record.body == "v0"
                assert chaos.stats["disconnect"] == 1
                await client.close()
            finally:
                await deployment.stop()

        run(scenario())

    def test_append_deferred_is_typed_and_retried(self):
        async def scenario():
            deployment = FLStoreNetDeployment(n_maintainers=1, n_indexers=0, batch_size=4)
            await deployment.start()
            try:
                client = await _client_for(
                    deployment,
                    retry_policy=RetryPolicy(
                        base_delay=0.01, max_delay=0.02, max_attempts=3, op_timeout=2.0
                    ),
                )
                # A minimum-LId bound far beyond the log defers forever; the
                # client retries (the server stored nothing) and surfaces the
                # typed error once attempts run out — no string matching.
                with pytest.raises(AppendDeferred) as excinfo:
                    await client.append("late", min_lid=1000)
                assert isinstance(excinfo.value, ChariotsError)
                await client.close()
            finally:
                await deployment.stop()

        run(scenario())

    def test_breaker_opens_then_recovers_via_probe(self):
        async def scenario():
            deployment = FLStoreNetDeployment(n_maintainers=1, n_indexers=0, batch_size=4)
            await deployment.start()
            try:
                client = await _client_for(
                    deployment,
                    retry_policy=RetryPolicy(
                        base_delay=0.02, max_delay=0.05, max_attempts=3, op_timeout=0.25
                    ),
                    breaker_failure_threshold=1,
                    breaker_reset_timeout=0.3,
                )
                result = await client.append("v0")
                address = deployment.maintainers[0].address
                deployment.maintainers[0].chaos = NetChaos(
                    seed=4, drop_probability=1.0, max_faults=1, request_types=["read_lid"]
                )
                # First attempt times out and trips the breaker; the retry is
                # then refused outright instead of hammering the dead peer.
                with pytest.raises(CircuitOpenError):
                    await client.read_lid(result.lid)
                assert client.breaker(address).state == CircuitBreaker.OPEN

                await asyncio.sleep(0.35)  # cooldown: half-open probe allowed
                entry = await client.read_lid(result.lid)
                assert entry.record.body == "v0"
                assert client.breaker(address).state == CircuitBreaker.CLOSED
                await client.close()
            finally:
                await deployment.stop()

        run(scenario())


class TestAioRuntimeChaos:
    def test_dropped_frames_never_reach_the_actor(self):
        from repro.flstore.messages import GossipHL
        from repro.net.aio_runtime import AioRuntime
        from repro.runtime import Actor

        got = []

        class Listener(Actor):
            def on_message(self, sender, message):
                got.append(message)

        runtime = AioRuntime(chaos=FaultPlan(seed=1).drop(message_type="GossipHL"))
        runtime.register(Listener("ear"))
        runtime.start()
        try:
            runtime.send("mouth", "ear", GossipHL("m0", 1))
            runtime.run_for(0.05)
            assert not got
            assert runtime.messages_dropped == 1
        finally:
            runtime.stop()

    def test_pipeline_converges_over_tcp_despite_bounded_chaos(self):
        from repro.net.aio_runtime import AioRuntime

        plan = (
            FaultPlan(seed=8)
            .drop(message_type="ReplicationShipment", probability=0.5, max_count=4)
            .duplicate(message_type="ReplicationShipment", probability=0.5,
                       delay=0.02, max_count=4)
        )
        runtime = AioRuntime(chaos=plan)
        deployment = ChariotsDeployment(
            runtime, ["A", "B"], batch_size=8, pipeline_config=FAST
        )
        try:
            acks = []
            ca = deployment.client("A")
            cb = deployment.client("B")
            for i in range(3):
                ca.append(f"a{i}", on_done=acks.append)
                cb.append(f"b{i}", on_done=acks.append)
            runtime.run_until(lambda: len(acks) == 6, timeout=20)
            assert deployment.settle(max_seconds=20)
            assert check_logs(deployment.logs()).ok
            assert len(deployment["A"].all_entries()) == 6
        finally:
            runtime.stop()
