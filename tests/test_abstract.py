"""Tests for the abstract single-node solution (§6.1)."""

import pytest

from repro.chariots import (
    AbstractChariots,
    AbstractDeployment,
    ChariotsDeployment,
    check_logs,
)
from repro.core import (
    AppendResult,
    GarbageCollectedError,
    LidOutOfRangeError,
    LogEntry,
    ReadRules,
    RecordId,
)
from repro.flstore import MaintainerCore, OwnershipPlan
from repro.runtime import LocalRuntime

from conftest import rec, run_abstract


class TestAppend:
    def test_toids_are_dense(self):
        dc = AbstractChariots("A", ["A", "B"])
        assert dc.append("x").rid == RecordId("A", 1)
        assert dc.append("y").rid == RecordId("A", 2)

    def test_lids_are_dense(self):
        dc = AbstractChariots("A", ["A"])
        assert dc.append("x").lid == 0
        assert dc.append("y").lid == 1

    def test_append_updates_atable_self_cell(self):
        dc = AbstractChariots("A", ["A", "B"])
        dc.append("x")
        assert dc.atable.get("A", "A") == 1

    def test_append_captures_frontier_as_deps(self):
        deployment = AbstractDeployment(["A", "B"])
        deployment["B"].append("from-b")
        deployment.exchange("B", "A")
        result = deployment["A"].append("after")
        record = deployment["A"].read(result.lid).record
        assert record.dep_vector()["B"] == 1

    def test_explicit_deps_merged(self):
        dc = AbstractChariots("A", ["A", "B"])
        result = dc.append("x", deps={"B": 7})
        assert dc.read(result.lid).record.dep_vector()["B"] == 7


class TestReads:
    def test_read_by_lid(self):
        dc = AbstractChariots("A", ["A"])
        dc.append("x", tags={"k": 1})
        entry = dc.read(0)
        assert entry.record.body == "x"

    def test_read_past_end(self):
        dc = AbstractChariots("A", ["A"])
        with pytest.raises(LidOutOfRangeError):
            dc.read(0)

    def test_read_rules(self):
        dc = AbstractChariots("A", ["A"])
        for i in range(6):
            dc.append(f"b{i}", tags={"p": i % 2})
        entries = dc.read_rules(ReadRules(tag_key="p", tag_value=0, limit=2))
        assert [e.record.body for e in entries] == ["b4", "b2"]


class TestReception:
    def test_records_with_satisfied_deps_incorporate(self):
        deployment = AbstractDeployment(["A", "B"])
        deployment["A"].append("x")
        learned = deployment.exchange("A", "B")
        assert learned == 1
        assert deployment["B"].read(0).record.body == "x"

    def test_duplicates_ignored(self):
        deployment = AbstractDeployment(["A", "B"])
        deployment["A"].append("x")
        deployment.exchange("A", "B")
        assert deployment.exchange("A", "B") == 0

    def test_out_of_order_reception_deferred(self):
        a = AbstractChariots("A", ["A", "B"])
        b = AbstractChariots("B", ["A", "B"])
        r1 = a.append("first")
        r2 = a.append("second")
        second = a.read(r2.lid).record
        first = a.read(r1.lid).record
        incorporated = b.receive([second])  # arrives before its predecessor
        assert incorporated == []
        assert len(b.deferred) == 1
        incorporated = b.receive([first])
        assert [r.toid for r in incorporated] == [1, 2]

    def test_cross_host_dependency_deferred(self):
        deployment = AbstractDeployment(["A", "B", "C"])
        deployment["A"].append("base")
        deployment.exchange("A", "B")
        deployment["B"].append("depends-on-a")  # deps: {A: 1}
        b_record = deployment["B"].read(1).record
        # C receives B's record before A's.
        incorporated = deployment["C"].receive([b_record])
        assert incorporated == []
        deployment.exchange("A", "C")
        drained = deployment["C"].deferred.drain(deployment["C"].frontier)
        for record in drained:
            deployment["C"]._incorporate(record)
        assert len(deployment["C"]) == 2

    def test_atable_merge_on_reception(self):
        deployment = AbstractDeployment(["A", "B"])
        deployment["A"].append("x")
        deployment.exchange("A", "B")
        assert deployment["B"].atable.get("A", "A") == 1


class TestConvergenceAndCausality:
    def test_sync_converges(self):
        deployment = AbstractDeployment(["A", "B", "C"])
        for dc in "ABC":
            for i in range(3):
                deployment[dc].append(f"{dc}{i}")
        deployment.sync()
        assert check_logs({dc: deployment[dc].entries() for dc in "ABC"}).ok
        assert len(deployment["A"]) == 9

    def test_all_logs_causally_consistent_after_sync(self):
        deployment = AbstractDeployment(["A", "B", "C"])
        deployment["A"].append("a1")
        deployment.exchange("A", "B")
        deployment["B"].append("b1-after-a1")
        deployment["C"].append("c1")
        deployment.sync()
        assert check_logs({dc: deployment[dc].entries() for dc in "ABC"}).ok

    def test_per_host_subsequences_identical_everywhere(self):
        deployment = AbstractDeployment(["A", "B"])
        for i in range(4):
            deployment["A"].append(f"a{i}")
            deployment["B"].append(f"b{i}")
        deployment.sync()
        # Equal record sets plus the causal walk imply equal per-host orders.
        assert check_logs({dc: deployment[dc].entries() for dc in "AB"}).ok
        assert len(deployment["A"]) == 8

    def test_transitive_shipping_through_intermediary(self):
        # A -> B -> C without a direct A -> C exchange.
        deployment = AbstractDeployment(["A", "B", "C"])
        deployment["A"].append("origin")
        deployment.exchange("A", "B")
        deployment.exchange("B", "C")
        assert any(e.rid.host == "A" for e in deployment["C"].entries())


def collect(deployment, dc):
    """The production GC over ``dc``'s log: one maintainer holding it
    truncates below the GC vector of ``dc``'s Awareness Table."""
    core = MaintainerCore("m0", OwnershipPlan(["m0"], batch_size=64))
    core.append([entry.record for entry in deployment[dc].entries()])
    return core, core.truncate(deployment[dc].atable.gc_vector())


class TestGarbageCollection:
    def test_gc_only_after_universal_knowledge(self):
        deployment = AbstractDeployment(["A", "B", "C"])
        deployment["A"].append("x")
        deployment.exchange("A", "B")
        assert collect(deployment, "A")[1] == 0  # C does not know yet
        deployment.sync()
        deployment.sync()  # second round propagates the ATable knowledge
        assert collect(deployment, "A")[1] == 1

    def test_read_after_gc_raises(self):
        deployment = AbstractDeployment(["A", "B"])
        deployment["A"].append("x")
        deployment.sync()
        deployment.sync()
        core, _ = collect(deployment, "A")
        with pytest.raises(GarbageCollectedError):
            core.get(0)

    def test_keep_records_retention(self):
        deployment = AbstractDeployment(["A", "B"])
        for i in range(5):
            deployment["A"].append(f"x{i}")
        deployment.sync()
        deployment.sync()
        deployment["A"].append("unseen by B")
        core, dropped = collect(deployment, "A")
        assert dropped == 5
        assert core.get(5).record.body == "unseen by B"

    def test_base_lid_advances(self):
        deployment = AbstractDeployment(["A", "B"])
        deployment["A"].append("x")
        deployment["A"].append("y")
        deployment.sync()
        deployment.sync()
        core, _ = collect(deployment, "A")
        assert core.gc_floor == 2
        assert core.head_of_log() == 1


A1, A2, A3, B1 = rec("A", 1), rec("A", 2), rec("A", 3), rec("B", 1)
B1_AFTER_A1 = rec("B", 1, deps={"A": 1})
ACK_A1_AT_1 = AppendResult(A1.rid, 1)


def log(*records):
    """A hand-built log: ``records`` at LIds 0, 1, …"""
    return [LogEntry(lid, r) for lid, r in enumerate(records)]


#: One hand-built failing log per verdict field: (logs, keywords, field, value).
FAILING_LOGS = {
    "repeated-lid": (
        {"A": [LogEntry(0, A1), LogEntry(0, A2)]}, {}, "repeated_lid", {"A": LogEntry(0, A2)}
    ),
    "lid-hole": ({"A": [LogEntry(3, A1), LogEntry(5, A2)]}, {}, "lid_gap", {"A": LogEntry(5, A2)}),
    "repeated-record": ({"A": log(A1, A1)}, {}, "causal_violation", {"A": LogEntry(1, A1)}),
    "dep-before-target": (
        {"B": log(B1_AFTER_A1, A1)}, {}, "causal_violation", {"B": LogEntry(0, B1_AFTER_A1)}
    ),
    "toid-gap": ({"A": log(A1, A3)}, {}, "causal_violation", {"A": LogEntry(1, A3)}),
    "dc-missing-a-record": ({"A": log(A1, B1), "B": log(B1)}, {}, "missing", {"B": {A1.rid}}),
    "absent-from-reference": (
        {"A": log(A1, A2)}, {"reference": {"A": log(A1)}}, "unexpected", {"A": {A2.rid}}
    ),
    "ack-at-wrong-lid": (
        {"A": log(A1, A2)}, {"acks": [ACK_A1_AT_1]}, "misplaced_acks", {ACK_A1_AT_1: A2.rid}
    ),
}


class TestCheckLogs:
    @pytest.mark.parametrize("case", FAILING_LOGS)
    def test_each_field_names_its_first_problem(self, case):
        logs, keywords, field, value = FAILING_LOGS[case]
        verdict = check_logs(logs, **keywords)
        assert getattr(verdict, field) == value
        assert not verdict.ok

    def test_repr_names_datacenter_lid_and_record(self):
        verdict = check_logs({"B": log(B1_AFTER_A1, A1)}, acks=[AppendResult(A1.rid, 0)])
        assert repr(verdict) == (
            "LogVerdict(B: <B,1> at LId 0 is causally inadmissible; "
            "A: ack of <A,1> names LId 0, which holds None)"
        )

    def test_clean_pipeline_and_abstract_logs_pass(self):
        deployment = ChariotsDeployment(LocalRuntime(), ["A", "B"], batch_size=4)
        acks = [deployment.blocking_client(dc).append(dc) for dc in "AB" for _ in range(3)]
        assert deployment.settle(max_seconds=10)
        abstract = run_abstract(["A", "B"], [(dc, dc) for dc in "AB" for _ in range(3)])
        verdict = check_logs(deployment.logs(), reference=abstract, acks=acks)
        assert repr(verdict) == "LogVerdict(ok)" and verdict.first_lid == {"A": 0, "B": 0}
        assert check_logs(abstract, reference=deployment.logs()).ok
