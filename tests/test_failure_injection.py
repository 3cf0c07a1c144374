"""Failure injection: component crashes and whole-datacenter outages.

The paper lists "handling component and whole datacenter failures" among
the challenges Chariots tackles (§1).  These tests exercise the mechanisms:
journal-based maintainer recovery under the same address, and continued
availability plus catch-up around datacenter outages.
"""

import math

from repro.chaos import FaultPlan
from repro.chariots import ChariotsDeployment, check_logs
from repro.flstore import FLStore, LogMaintainer, MemoryJournal, recover_maintainer_core
from repro.runtime import LocalRuntime


class TestMaintainerCrashRecovery:
    def build(self):
        runtime = LocalRuntime()
        store = FLStore(runtime, n_maintainers=2, n_indexers=0, batch_size=5)
        # Attach journals post-hoc (FLStore wires plain maintainers).
        journals = {}
        for maintainer in store.maintainers:
            journal = MemoryJournal()
            maintainer.core.set_journal(journal)
            journals[maintainer.name] = journal
        return runtime, store, journals

    def crash_and_recover(self, runtime, store, journals, victim_index=0):
        victim = store.maintainers[victim_index]
        journal = journals[victim.name]
        recovered_core = recover_maintainer_core(
            victim.name, store.plan, journal.replay_runs(), new_journal=journal
        )
        replacement = LogMaintainer(
            victim.name,
            store.plan,
            peers=[m.name for m in store.maintainers],
            config=store.config,
        )
        replacement.core = recovered_core
        runtime.replace(replacement)
        store.maintainers[victim_index] = replacement
        return replacement

    def test_recovered_maintainer_serves_old_records(self):
        runtime, store, journals = self.build()
        client = store.blocking_client()
        results = [client.append(f"b{i}") for i in range(10)]
        replacement = self.crash_and_recover(runtime, store, journals)
        for result in results:
            reply = client.read_lid(result.lid)
            assert reply.error is None
            assert reply.entries[0].record.body.startswith("b")

    def test_recovered_maintainer_continues_post_assignment(self):
        runtime, store, journals = self.build()
        client = store.blocking_client()
        before = {client.append(f"pre{i}").lid for i in range(10)}
        self.crash_and_recover(runtime, store, journals)
        after = {client.append(f"post{i}").lid for i in range(10)}
        assert not (before & after)  # no LId handed out twice
        assert store.total_records() == 20

    def test_in_flight_appends_reach_the_replacement(self):
        runtime, store, journals = self.build()
        client = store.client()
        runtime.run_until(lambda: client.session_ready)
        done = []
        client.append("in-flight", on_done=done.append)
        # Crash before the append is processed.
        self.crash_and_recover(runtime, store, journals)
        runtime.run_until(lambda: bool(done))
        assert done[0].lid >= 0

    def test_head_of_log_recovers_after_crash(self):
        runtime, store, journals = self.build()
        client = store.blocking_client()
        for i in range(10):
            client.append(f"b{i}")
        runtime.run_for(0.1)
        head_before = client.head()
        self.crash_and_recover(runtime, store, journals)
        runtime.run_for(0.1)  # gossip re-converges
        assert client.head() >= head_before


def outage(prefix):
    """A plan whose rules drop everything to and from ``prefix``, in a
    window that starts closed: open it with :func:`begin`, close it with
    :func:`end`."""
    return (
        FaultPlan()
        .drop(src=prefix, start=math.inf)
        .drop(dst=prefix, start=math.inf)
    )


def begin(plan, now):
    for rule in plan.rules:
        rule.start = now


def end(plan, now):
    for rule in plan.rules:
        rule.end = now


class TestDatacenterOutage:
    def test_surviving_datacenters_converge_during_outage(self):
        plan = outage("C/")
        runtime = LocalRuntime(chaos=plan)
        deployment = ChariotsDeployment(runtime, ["A", "B", "C"], batch_size=4)
        clients = {dc: deployment.blocking_client(dc) for dc in "ABC"}
        clients["C"].append("pre-outage")
        assert deployment.settle(max_seconds=20)

        begin(plan, runtime.now)  # datacenter C goes dark
        clients["A"].append("during-1")
        clients["B"].append("during-2")
        runtime.run_for(2.0)
        # A and B replicated to each other despite C being down.
        a_hosts = {e.record.host for e in deployment["A"].all_entries()}
        b_hosts = {e.record.host for e in deployment["B"].all_entries()}
        assert {"A", "B"} <= a_hosts
        assert {"A", "B"} <= b_hosts

    def test_datacenter_catches_up_after_outage(self):
        plan = outage("C/")
        runtime = LocalRuntime(chaos=plan)
        deployment = ChariotsDeployment(runtime, ["A", "B", "C"], batch_size=4)
        clients = {dc: deployment.blocking_client(dc) for dc in "ABC"}

        begin(plan, runtime.now)
        for i in range(5):
            clients["A"].append(f"missed-{i}")
        runtime.run_for(1.5)
        assert deployment["C"].total_records() == 0

        end(plan, runtime.now)  # C comes back
        assert deployment.settle(max_seconds=60)
        assert check_logs(deployment.logs()).ok
        assert deployment["C"].total_records() == 5

    def test_local_writes_never_block_on_remote_outage(self):
        plan = outage("B/")
        begin(plan, 0.0)
        runtime = LocalRuntime(chaos=plan)
        deployment = ChariotsDeployment(runtime, ["A", "B"], batch_size=4)
        client = deployment.blocking_client("A")
        # Availability under partition: appends complete locally (§1's
        # AP choice) even though the only peer is unreachable.
        results = [client.append(f"solo-{i}") for i in range(8)]
        assert [r.lid for r in results] == list(range(8))
