"""Unit tests for causal-ordering primitives (repro.core.causality)."""

import pytest

from repro.core import CausalFrontier, DeferredQueue, causal_order_respected
from repro.core.causality import (
    first_violation,
    happened_before,
    topological_causal_sort,
)
from repro.core.errors import DuplicateRecordError
from repro.core.record import RecordId

from conftest import chain, rec


class TestCausalFrontier:
    def test_empty_frontier_knows_nothing(self):
        frontier = CausalFrontier()
        assert frontier.max_toid("A") == 0
        assert not frontier.known(RecordId("A", 1))

    def test_advance_marks_known(self):
        frontier = CausalFrontier()
        frontier.advance(rec("A", 1))
        assert frontier.known(RecordId("A", 1))
        assert frontier.max_toid("A") == 1

    def test_first_record_admissible(self):
        assert CausalFrontier().admissible(rec("A", 1))

    def test_out_of_order_same_host_not_admissible(self):
        assert not CausalFrontier().admissible(rec("A", 2))

    def test_cross_host_dependency_blocks_admission(self):
        frontier = CausalFrontier()
        record = rec("B", 1, deps={"A": 2})
        assert not frontier.admissible(record)
        frontier.advance(rec("A", 1))
        frontier.advance(rec("A", 2))
        assert frontier.admissible(record)

    def test_duplicate_detection(self):
        frontier = CausalFrontier()
        frontier.advance(rec("A", 1))
        assert frontier.is_duplicate(rec("A", 1))
        assert not frontier.is_duplicate(rec("A", 2))

    def test_snapshot_is_independent_copy(self):
        frontier = CausalFrontier()
        frontier.advance(rec("A", 1))
        snap = frontier.snapshot()
        frontier.advance(rec("A", 2))
        assert snap == {"A": 1}

    def test_dominates(self):
        low = CausalFrontier({"A": 1})
        high = CausalFrontier({"A": 2, "B": 1})
        assert high.dominates(low)
        assert not low.dominates(high)

    def test_equality_ignores_zero_entries(self):
        assert CausalFrontier({"A": 1, "B": 0}) == CausalFrontier({"A": 1})

    def test_copy_is_detached(self):
        frontier = CausalFrontier({"A": 1})
        clone = frontier.copy()
        frontier.advance(rec("A", 2))
        assert clone.max_toid("A") == 1


class TestDeferredQueue:
    def test_drain_releases_in_causal_order(self):
        queue = DeferredQueue()
        records = chain("A", 3)
        for record in reversed(records):
            queue.push(record)
        frontier = CausalFrontier()
        released = queue.drain(frontier)
        assert [r.toid for r in released] == [1, 2, 3]
        assert len(queue) == 0

    def test_unsatisfiable_records_stay(self):
        queue = DeferredQueue()
        queue.push(rec("A", 2))  # missing <A,1>
        frontier = CausalFrontier()
        assert queue.drain(frontier) == []
        assert len(queue) == 1

    def test_cross_host_unlocking(self):
        queue = DeferredQueue()
        queue.push(rec("B", 1, deps={"A": 1}))
        queue.push(rec("A", 1))
        frontier = CausalFrontier()
        released = queue.drain(frontier)
        assert [r.rid for r in released] == [RecordId("A", 1), RecordId("B", 1)]

    def test_duplicate_push_rejected(self):
        queue = DeferredQueue()
        queue.push(rec("A", 1))
        with pytest.raises(DuplicateRecordError):
            queue.push(rec("A", 1))

    def test_contains(self):
        queue = DeferredQueue()
        queue.push(rec("A", 2))
        assert RecordId("A", 2) in queue
        assert RecordId("A", 1) not in queue

    def test_already_incorporated_records_dropped_on_drain(self):
        queue = DeferredQueue()
        queue.push(rec("A", 1))
        frontier = CausalFrontier()
        frontier.advance(rec("A", 1))  # incorporated through another path
        assert queue.drain(frontier) == []
        assert len(queue) == 0

    def test_peek_all_sorted(self):
        queue = DeferredQueue()
        queue.push(rec("B", 2))
        queue.push(rec("A", 3))
        assert [r.rid for r in queue.peek_all()] == [RecordId("A", 3), RecordId("B", 2)]


class TestHappenedBefore:
    def test_same_host_total_order(self):
        assert happened_before(rec("A", 1), rec("A", 2))
        assert not happened_before(rec("A", 2), rec("A", 1))

    def test_cross_host_via_deps(self):
        earlier = rec("A", 5)
        later = rec("B", 1, deps={"A": 5})
        assert happened_before(earlier, later)
        assert not happened_before(later, earlier)

    def test_concurrent_records(self):
        a = rec("A", 1)
        b = rec("B", 1)
        assert not happened_before(a, b)
        assert not happened_before(b, a)


class TestCausalOrderRespected:
    def test_single_host_in_order(self):
        assert causal_order_respected(chain("A", 5))

    def test_single_host_out_of_order(self):
        records = chain("A", 3)
        assert not causal_order_respected([records[1], records[0], records[2]])

    def test_interleaving_of_independent_hosts(self):
        a1, a2 = chain("A", 2)
        b1 = rec("B", 1)
        assert causal_order_respected([a1, b1, a2])
        assert causal_order_respected([b1, a1, a2])

    def test_dependency_must_precede(self):
        a1 = rec("A", 1)
        b1 = rec("B", 1, deps={"A": 1})
        assert causal_order_respected([a1, b1])
        assert not causal_order_respected([b1, a1])

    def test_transitive_violation_detected(self):
        a1 = rec("A", 1)
        b1 = rec("B", 1, deps={"A": 1})
        c1 = rec("C", 1, deps={"B": 1})
        assert causal_order_respected([a1, b1, c1])
        assert not causal_order_respected([c1, a1, b1])

    def test_first_violation_names_the_offender(self):
        a1 = rec("A", 1)
        b1 = rec("B", 1, deps={"A": 1})
        assert first_violation([b1, a1]) == 0
        assert first_violation([a1, b1]) is None
        assert first_violation([a1, b1, b1]) == 2  # the repeat, not the original


class TestTopologicalCausalSort:
    def test_sorts_shuffled_input(self):
        a = chain("A", 3)
        b = [rec("B", 1, deps={"A": 2})]
        ordered = topological_causal_sort([b[0], a[2], a[0], a[1]])
        assert causal_order_respected(ordered)
        assert {r.rid for r in ordered} == {x.rid for x in a + b}

    def test_missing_dependency_raises(self):
        with pytest.raises(ValueError):
            topological_causal_sort([rec("A", 2)])

    def test_deterministic(self):
        records = [rec("B", 1), rec("A", 1)]
        first = topological_causal_sort(records)
        second = topological_causal_sort(list(reversed(records)))
        assert [r.rid for r in first] == [r.rid for r in second]
