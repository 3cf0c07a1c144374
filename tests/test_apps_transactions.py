"""Tests for Message Futures and Helios transactions (§4.3)."""

import pytest

from repro.apps import HeliosManager, MessageFuturesManager
from repro.chariots import ChariotsDeployment
from repro.core import TransactionAborted
from repro.runtime import LocalRuntime

from conftest import decided


def make_world(dcs=("A", "B")):
    runtime = LocalRuntime()
    deployment = ChariotsDeployment(runtime, list(dcs), batch_size=8)
    clients = {dc: deployment.blocking_client(dc) for dc in dcs}
    return runtime, deployment, clients


def pump_until(deployment, managers, predicate, rounds=30):
    for _ in range(rounds):
        deployment.settle(max_seconds=2)
        for manager in managers:
            manager.pump()
        if predicate():
            return True
    return False


class TestMessageFutures:
    def test_single_transaction_commits(self):
        runtime, deployment, clients = make_world()
        ma = MessageFuturesManager("A", clients["A"], ["A", "B"])
        mb = MessageFuturesManager("B", clients["B"], ["A", "B"])
        txn = ma.begin()
        txn.write("k", 1)
        pending = txn.commit()
        assert pump_until(deployment, [ma, mb], lambda: decided(pending))
        assert pending.committed
        assert pending.result() is True

    def test_committed_state_converges(self):
        runtime, deployment, clients = make_world()
        ma = MessageFuturesManager("A", clients["A"], ["A", "B"])
        mb = MessageFuturesManager("B", clients["B"], ["A", "B"])
        txn = ma.begin()
        txn.write("balance", 100)
        pending = txn.commit()
        assert pump_until(
            deployment, [ma, mb],
            lambda: decided(pending) and mb.decision(pending.txn_id) is not None,
        )
        assert ma.committed_state() == mb.committed_state() == {"balance": 100}

    def test_conflicting_concurrent_transactions_one_survives(self):
        runtime, deployment, clients = make_world()
        ma = MessageFuturesManager("A", clients["A"], ["A", "B"])
        mb = MessageFuturesManager("B", clients["B"], ["A", "B"])
        ta = ma.begin(); ta.write("k", "from-A")
        tb = mb.begin(); tb.write("k", "from-B")
        pa = ta.commit()
        pb = tb.commit()
        assert pump_until(
            deployment, [ma, mb],
            lambda: decided(pa) and decided(pb)
            and mb.decision(pa.txn_id) is not None
            and ma.decision(pb.txn_id) is not None,
        )
        outcomes = sorted([pa.committed, pb.committed])
        assert outcomes == [False, True]  # exactly one commits
        # Both managers agree on both decisions.
        assert ma.decision(pa.txn_id) == mb.decision(pa.txn_id)
        assert ma.decision(pb.txn_id) == mb.decision(pb.txn_id)
        assert ma.committed_state() == mb.committed_state()

    def test_aborted_transaction_raises(self):
        runtime, deployment, clients = make_world()
        ma = MessageFuturesManager("A", clients["A"], ["A", "B"])
        mb = MessageFuturesManager("B", clients["B"], ["A", "B"])
        ta = ma.begin(); ta.write("k", 1)
        tb = mb.begin(); tb.write("k", 2)
        pa, pb = ta.commit(), tb.commit()
        assert pump_until(deployment, [ma, mb], lambda: decided(pa) and decided(pb))
        loser = pa if not pa.committed else pb
        with pytest.raises(TransactionAborted):
            loser.result()

    def test_disjoint_concurrent_transactions_both_commit(self):
        runtime, deployment, clients = make_world()
        ma = MessageFuturesManager("A", clients["A"], ["A", "B"])
        mb = MessageFuturesManager("B", clients["B"], ["A", "B"])
        ta = ma.begin(); ta.write("x", 1)
        tb = mb.begin(); tb.write("y", 2)
        pa, pb = ta.commit(), tb.commit()
        assert pump_until(deployment, [ma, mb], lambda: decided(pa) and decided(pb))
        assert pa.committed and pb.committed

    def test_causally_ordered_transactions_both_commit(self):
        runtime, deployment, clients = make_world()
        ma = MessageFuturesManager("A", clients["A"], ["A", "B"])
        mb = MessageFuturesManager("B", clients["B"], ["A", "B"])
        ta = ma.begin(); ta.write("k", 1)
        pa = ta.commit()
        assert pump_until(deployment, [ma, mb], lambda: decided(pa))
        # B saw A's transaction; B's next write to k is causally later.
        assert pump_until(deployment, [ma, mb], lambda: mb.committed_value("k") == 1)
        tb = mb.begin()
        assert tb.read("k") == 1
        tb.write("k", 2)
        pb = tb.commit()
        assert pump_until(deployment, [ma, mb], lambda: decided(pb))
        assert pb.committed
        assert pump_until(deployment, [ma, mb], lambda: ma.committed_value("k") == 2)

    def test_reads_come_from_committed_snapshot(self):
        runtime, deployment, clients = make_world()
        ma = MessageFuturesManager("A", clients["A"], ["A", "B"])
        txn = ma.begin()
        assert txn.read("unset") is None
        txn.write("unset", 5)
        assert txn.read("unset") == 5  # read-your-own-writes in the buffer

    def test_three_datacenters(self):
        runtime, deployment, clients = make_world(("A", "B", "C"))
        managers = [
            MessageFuturesManager(dc, clients[dc], ["A", "B", "C"]) for dc in "ABC"
        ]
        txn = managers[0].begin()
        txn.write("k", "v")
        pending = txn.commit()
        assert pump_until(deployment, managers, lambda: decided(pending), rounds=60)
        assert pending.committed


class TestHelios:
    def make_managers(self, deployment, clients, delay=0.001):
        return [
            HeliosManager(
                dc,
                clients[dc],
                ["A", "B"],
                default_delay=delay,
                clock=lambda rt=deployment.runtime: rt.now,
            )
            for dc in "AB"
        ]

    def test_single_transaction_commits(self):
        runtime, deployment, clients = make_world()
        ha, hb = self.make_managers(deployment, clients)
        txn = ha.begin()
        txn.write("k", 1)
        pending = txn.commit()
        assert pump_until(deployment, [ha, hb], lambda: decided(pending))
        assert pending.committed

    def test_decisions_replicate_to_peers(self):
        runtime, deployment, clients = make_world()
        ha, hb = self.make_managers(deployment, clients)
        txn = ha.begin()
        txn.write("k", "v")
        pending = txn.commit()
        assert pump_until(
            deployment, [ha, hb],
            lambda: hb.decision(pending.txn_id) is not None,
        )
        assert hb.committed_value("k") == "v"

    def test_conflicting_transactions_exactly_one_commits(self):
        runtime, deployment, clients = make_world()
        ha, hb = self.make_managers(deployment, clients)
        ta = ha.begin(); ta.write("k", "a")
        tb = hb.begin(); tb.write("k", "b")
        pa, pb = ta.commit(), tb.commit()
        assert pump_until(
            deployment, [ha, hb],
            lambda: ha.decision(pa.txn_id) is not None
            and ha.decision(pb.txn_id) is not None
            and hb.decision(pa.txn_id) is not None
            and hb.decision(pb.txn_id) is not None,
            rounds=60,
        )
        assert [ha.decision(pa.txn_id), ha.decision(pb.txn_id)].count(True) == 1
        assert ha.decision(pa.txn_id) == hb.decision(pa.txn_id)
        assert ha.committed_state() == hb.committed_state()

    def test_commit_bound_includes_skew(self):
        runtime, deployment, clients = make_world()
        manager = HeliosManager(
            "A", clients["A"], ["A", "B"], default_delay=0.05, max_skew=0.01
        )
        assert manager.commit_bound("B") == pytest.approx(0.06)

    def test_explicit_delay_bounds_per_peer(self):
        runtime, deployment, clients = make_world()
        manager = HeliosManager(
            "A", clients["A"], ["A", "B"],
            one_way_delay={"B": 0.2}, default_delay=0.05,
        )
        assert manager.commit_bound("B") == pytest.approx(0.2)
