"""Unit tests for the Awareness Table (repro.core.atable)."""

import pytest

from repro.core import AwarenessTable, ConfigurationError, RecordId


@pytest.fixture
def table() -> AwarenessTable:
    return AwarenessTable("A", ["A", "B", "C"])


class TestConstruction:
    def test_initially_zero(self, table):
        for knower in "ABC":
            for host in "ABC":
                assert table.get(knower, host) == 0

    def test_self_must_be_member(self):
        with pytest.raises(ConfigurationError):
            AwarenessTable("X", ["A", "B"])

    def test_members_sorted_and_deduplicated(self):
        t = AwarenessTable("B", ["B", "A", "B"])
        assert t.datacenters == ["A", "B"]


class TestLocalUpdates:
    def test_record_appended_advances_self_cell(self, table):
        table.record_appended(1)
        assert table.get("A", "A") == 1

    def test_toids_must_be_dense(self, table):
        table.record_appended(1)
        with pytest.raises(ConfigurationError):
            table.record_appended(3)

    def test_record_incorporated_advances_self_row(self, table):
        table.record_incorporated(RecordId("B", 4))
        assert table.get("A", "B") == 4

    def test_record_incorporated_is_monotone(self, table):
        table.record_incorporated(RecordId("B", 4))
        table.record_incorporated(RecordId("B", 2))
        assert table.get("A", "B") == 4


class TestMerge:
    def test_merge_takes_elementwise_max(self, table):
        remote = {"A": {"A": 0, "B": 0, "C": 0}, "B": {"A": 3, "B": 7, "C": 0}, "C": {"A": 0, "B": 0, "C": 2}}
        table.merge(remote)
        assert table.get("B", "A") == 3
        assert table.get("B", "B") == 7
        assert table.get("C", "C") == 2

    def test_merge_never_regresses(self, table):
        table.note_peer_knowledge("B", {"A": 9})
        table.merge({"B": {"A": 2, "B": 0, "C": 0}})
        assert table.get("B", "A") == 9

    def test_merge_ignores_unknown_datacenters(self, table):
        table.merge({"Z": {"A": 5}, "B": {"Z": 7}})
        assert table.get("B", "A") == 0

    def test_note_peer_knowledge(self, table):
        table.note_peer_knowledge("C", {"A": 2, "B": 1})
        assert table.get("C", "A") == 2
        assert table.get("C", "B") == 1


class TestDerivedQueries:
    def test_peer_knows(self, table):
        table.note_peer_knowledge("B", {"C": 5})
        assert table.peer_knows("B", RecordId("C", 5))
        assert table.peer_knows("B", RecordId("C", 1))
        assert not table.peer_knows("B", RecordId("C", 6))

    def test_gc_frontier_is_min_over_knowers(self, table):
        table.note_peer_knowledge("A", {"C": 5})
        table.note_peer_knowledge("B", {"C": 3})
        table.note_peer_knowledge("C", {"C": 9})
        assert table.gc_frontier("C") == 3

    def test_gc_frontier_zero_until_everyone_knows(self, table):
        table.note_peer_knowledge("A", {"B": 5})
        table.note_peer_knowledge("B", {"B": 5})
        assert table.gc_frontier("B") == 0  # C knows nothing yet

    def test_gc_vector_covers_all_hosts(self, table):
        vector = table.gc_vector()
        assert set(vector) == {"A", "B", "C"}

    def test_self_row(self, table):
        table.record_appended(1)
        table.record_incorporated(RecordId("B", 2))
        assert table.self_row() == {"A": 1, "B": 2, "C": 0}

    def test_as_matrix_is_deep_copy(self, table):
        matrix = table.as_matrix()
        matrix["A"]["A"] = 99
        assert table.get("A", "A") == 0

    def test_equality(self):
        t1 = AwarenessTable("A", ["A", "B"])
        t2 = AwarenessTable("A", ["A", "B"])
        assert t1 == t2
        t1.record_appended(1)
        assert t1 != t2
