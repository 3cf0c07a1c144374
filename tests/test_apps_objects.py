"""Tests for Tango-style replicated objects and Hyksos convergent reads."""

import pytest

from repro.apps import (
    Hyksos,
    ReplicatedCounter,
    ReplicatedDict,
    ReplicatedQueue,
    ReplicatedSet,
)
from repro.chariots import ChariotsDeployment
from repro.runtime import LocalRuntime

from conftest import convergent_get


@pytest.fixture
def geo():
    runtime = LocalRuntime()
    deployment = ChariotsDeployment(runtime, ["A", "B"], batch_size=8)
    ca = deployment.blocking_client("A")
    cb = deployment.blocking_client("B")
    return runtime, deployment, ca, cb


class TestReplicatedCounter:
    def test_local_increments(self, geo):
        runtime, deployment, ca, cb = geo
        counter = ReplicatedCounter(ca)
        counter.increment(5)
        counter.increment(-2)
        runtime.run_for(0.2)
        counter.sync()
        assert counter.value == 3

    def test_replicas_converge_across_datacenters(self, geo):
        runtime, deployment, ca, cb = geo
        counter_a = ReplicatedCounter(ca)
        counter_b = ReplicatedCounter(cb)
        counter_a.increment(10)
        counter_b.increment(7)
        assert deployment.settle(max_seconds=10)
        counter_a.sync()
        counter_b.sync()
        assert counter_a.value == counter_b.value == 17

    def test_sync_is_exactly_once(self, geo):
        runtime, deployment, ca, cb = geo
        counter = ReplicatedCounter(ca)
        counter.increment()
        runtime.run_for(0.2)
        assert counter.sync() == 1
        assert counter.sync() == 0
        assert counter.value == 1

    def test_late_replica_replays_full_history(self, geo):
        runtime, deployment, ca, cb = geo
        writer = ReplicatedCounter(ca)
        for _ in range(4):
            writer.increment()
        assert deployment.settle(max_seconds=10)
        late = ReplicatedCounter(cb)  # fresh replica, no prior state
        late.sync()
        assert late.value == 4


class TestReplicatedSetAndDict:
    def test_set_operations_in_log_order(self, geo):
        runtime, deployment, ca, cb = geo
        s = ReplicatedSet(ca)
        s.add("x")
        s.add("y")
        s.discard("x")
        runtime.run_for(0.2)
        s.sync()
        assert s.members() == {"y"}

    def test_dict_last_writer_in_log_order(self, geo):
        runtime, deployment, ca, cb = geo
        d = ReplicatedDict(ca)
        d.set("k", 1)
        d.set("k", 2)
        d.set("k", 3)
        runtime.run_for(0.2)
        d.sync()
        assert d.get("k") == 3

    def test_different_objects_are_isolated(self, geo):
        runtime, deployment, ca, cb = geo
        s1 = ReplicatedSet(ca, name="s1")
        s2 = ReplicatedSet(ca, name="s2")
        s1.add("only-in-s1")
        runtime.run_for(0.2)
        s1.sync()
        s2.sync()
        assert "only-in-s1" in s1
        assert "only-in-s1" not in s2

    def test_cross_datacenter_dict_convergence(self, geo):
        runtime, deployment, ca, cb = geo
        da = ReplicatedDict(ca)
        db = ReplicatedDict(cb)
        da.set("from", "A")
        db.set("upto", "B")
        assert deployment.settle(max_seconds=10)
        da.sync()
        db.sync()
        assert da.items() == db.items() == {"from": "A", "upto": "B"}


class TestReplicatedQueue:
    def test_log_arbitrates_claim_races(self, geo):
        runtime, deployment, ca, cb = geo
        producer = ReplicatedQueue(ca, claimant="producer")
        producer.enqueue("job-1", {"work": "x"})
        assert deployment.settle(max_seconds=10)

        worker_a = ReplicatedQueue(ca, claimant="worker-a")
        worker_b = ReplicatedQueue(cb, claimant="worker-b")
        worker_a.sync()
        worker_b.sync()
        # Both workers race to claim the same job.
        assert worker_a.claim_next() == ("job-1", {"work": "x"})
        assert worker_b.claim_next() == ("job-1", {"work": "x"})
        assert deployment.settle(max_seconds=10)
        worker_a.sync()
        worker_b.sync()
        # The log's order decided a single winner, identically everywhere.
        assert worker_a.owner_of("job-1") == worker_b.owner_of("job-1")
        assert worker_a.owner_of("job-1") in ("worker-a", "worker-b")

    def test_claimed_items_leave_pending(self, geo):
        runtime, deployment, ca, cb = geo
        queue = ReplicatedQueue(ca, claimant="w")
        queue.enqueue("j1", 1)
        queue.enqueue("j2", 2)
        runtime.run_for(0.2)
        queue.sync()
        queue.claim_next()
        runtime.run_for(0.2)
        queue.sync()
        assert queue.claim_next() == ("j2", 2)

    def test_claim_on_empty_queue(self, geo):
        runtime, deployment, ca, cb = geo
        queue = ReplicatedQueue(ca)
        queue.sync()
        assert queue.claim_next() is None


class TestHyksosConvergentReads:
    def test_concurrent_puts_resolve_identically(self, geo):
        """Figure 2's divergence, fixed by the causal+ read: plain gets may
        disagree, convergent gets agree everywhere."""
        runtime, deployment, ca, cb = geo
        kv_a = Hyksos(ca)
        kv_b = Hyksos(cb)
        kv_a.put("x", 10)
        kv_b.put("x", 30)
        assert deployment.settle(max_seconds=10)
        assert convergent_get(kv_a.log, "x") == convergent_get(kv_b.log, "x")

    def test_causally_later_put_always_wins(self, geo):
        runtime, deployment, ca, cb = geo
        kv_a = Hyksos(ca)
        kv_b = Hyksos(cb)
        kv_a.put("k", "first")
        assert deployment.settle(max_seconds=10)
        assert kv_b.get("k") == "first"  # B's session now covers <A,·>
        kv_b.put("k", "second")
        assert deployment.settle(max_seconds=10)
        assert convergent_get(kv_a.log, "k") == "second"
        assert convergent_get(kv_b.log, "k") == "second"

    def test_convergent_read_of_missing_key(self, geo):
        _, _, ca, _ = geo
        assert convergent_get(ca, "ghost") is None
