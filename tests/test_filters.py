"""Tests for the filter stage (repro.chariots.filters)."""

import pickle

import pytest

from repro.chariots import FilterCore, FilterMap
from repro.chariots.messages import DraftRecord
from repro.core import ConfigurationError

from conftest import rec


def draft(client: str, seq: int) -> DraftRecord:
    return DraftRecord(client=client, seq=seq, body=f"{client}:{seq}")


class TestFilterMap:
    def test_single_filter_champions_everything(self):
        fmap = FilterMap(["f0"])
        assert fmap.filter_for("A", 1) == "f0"
        assert fmap.filter_for("B", 99) == "f0"

    def test_host_assignment(self):
        fmap = FilterMap(["f0", "f1"])
        fmap.assign_host("A", ["f0"])
        fmap.assign_host("B", ["f1"])
        assert fmap.filter_for("A", 7) == "f0"
        assert fmap.filter_for("B", 7) == "f1"

    def test_residue_slicing_when_sharing_a_host(self):
        # §6.2: filter x takes odd TOIds, filter y takes even TOIds.
        fmap = FilterMap(["x", "y"])
        fmap.assign_host("A", ["x", "y"])
        assert fmap.filter_for("A", 1) == "y"  # 1 % 2 = 1 -> index 1
        assert fmap.filter_for("A", 2) == "x"
        champions = {fmap.filter_for("A", t) for t in range(1, 10)}
        assert champions == {"x", "y"}

    def test_duplicate_host_assignment_rejected(self):
        fmap = FilterMap(["f0"])
        fmap.assign_host("A", ["f0"])
        with pytest.raises(ConfigurationError):
            fmap.assign_host("A", ["f0"])

    def test_reassignment_must_be_future(self):
        fmap = FilterMap(["f0"])
        fmap.assign_host("A", ["f0"])
        with pytest.raises(ConfigurationError):
            fmap.reassign_host("A", ["f0"], from_toid=1)

    def test_future_reassignment_splits_at_boundary(self):
        fmap = FilterMap(["f0"])
        fmap.assign_host("A", ["f0"])
        fmap.reassign_host("A", ["f0", "f1"], from_toid=100)
        assert fmap.filter_for("A", 99) == "f0"
        assert {fmap.filter_for("A", t) for t in range(100, 110)} == {"f0", "f1"}

    def test_next_toid_for_respects_slicing(self):
        fmap = FilterMap(["x", "y"])
        fmap.assign_host("A", ["x", "y"])
        # x champions even TOIds (toid % 2 == 0 -> index 0).
        assert fmap.plan("A").next_owned_lid("x", 0) == 2
        assert fmap.plan("A").next_owned_lid("x", 2) == 4
        assert fmap.plan("A").next_owned_lid("y", 0) == 1

    def test_next_toid_for_crosses_epochs(self):
        fmap = FilterMap(["f0"])
        fmap.assign_host("A", ["f0"])
        fmap.reassign_host("A", ["f1"], from_toid=5)
        assert fmap.plan("A").next_owned_lid("f0", 3) == 4
        assert fmap.plan("A").next_owned_lid("f1", 4) == 5

    def test_next_toid_for_is_none_once_no_epoch_names_the_filter(self):
        fmap = FilterMap(["f0"])
        fmap.assign_host("A", ["f0"])
        fmap.reassign_host("A", ["f1"], from_toid=5)
        assert fmap.plan("A").next_owned_lid("f0", 3) == 4
        assert fmap.plan("A").next_owned_lid("f0", 4) is None

    def test_reassignment_keeps_absolute_residues(self):
        fmap = FilterMap(["x"])
        fmap.assign_host("A", ["x"])
        fmap.reassign_host("A", ["x", "y", "z"], from_toid=7)
        assert fmap.champions_for("A", 7) == ["x", "y", "z"]
        assert [fmap.filter_for("A", t) for t in range(7, 13)] == [
            ["x", "y", "z"][t % 3] for t in range(7, 13)
        ]
        assert fmap.plan("A").current_epoch.start_lid == 7

    def test_draft_champion_is_sticky(self):
        fmap = FilterMap(["f0", "f1"])
        d = draft("client-1", 1)
        first = fmap.filter_for_draft(d)
        fmap.add_filter("f2")
        assert fmap.filter_for_draft(draft("client-1", 2)) == first

    def test_champions_for(self):
        fmap = FilterMap(["x", "y"])
        fmap.assign_host("A", ["x", "y"])
        assert set(fmap.champions_for("A", 1)) == {"x", "y"}


class TestExternalAdmission:
    def make(self):
        fmap = FilterMap(["f0"])
        fmap.assign_host("A", ["f0"])
        fmap.assign_host("B", ["f0"])
        return FilterCore("f0", fmap)

    def test_in_order_admission(self):
        core = self.make()
        assert [r.toid for r in core.offer_externals([rec("A", 1)])] == [1]
        assert [r.toid for r in core.offer_externals([rec("A", 2)])] == [2]

    def test_duplicate_dropped(self):
        core = self.make()
        core.offer_externals([rec("A", 1)])
        assert core.offer_externals([rec("A", 1)]) == []
        assert core.duplicates_dropped == 1

    def test_out_of_order_buffered_then_released(self):
        core = self.make()
        assert core.offer_externals([rec("A", 3)]) == []
        assert core.offer_externals([rec("A", 2)]) == []
        released = core.offer_externals([rec("A", 1)])
        assert [r.toid for r in released] == [1, 2, 3]
        assert core.buffered_count() == 0

    def test_duplicate_of_buffered_record_dropped(self):
        core = self.make()
        core.offer_externals([rec("A", 2)])
        core.offer_externals([rec("A", 2)])
        assert core.duplicates_dropped == 1

    def test_hosts_are_independent(self):
        core = self.make()
        assert core.offer_externals([rec("A", 1)]) != []
        assert core.offer_externals([rec("B", 1)]) != []
        assert core.offer_externals([rec("B", 3)]) == []  # B:2 missing

    def test_sliced_filter_expects_only_its_residues(self):
        fmap = FilterMap(["x", "y"])
        fmap.assign_host("A", ["x", "y"])
        x = FilterCore("x", fmap)
        # x champions evens: 2, 4, 6...
        assert [r.toid for r in x.offer_externals([rec("A", 2)])] == [2]
        assert x.offer_externals([rec("A", 6)]) == []  # 4 missing
        assert [r.toid for r in x.offer_externals([rec("A", 4)])] == [4, 6]


class TestReassignedAdmission:
    def test_filter_that_leaves_a_host_admits_up_to_its_last_toid(self):
        fmap = FilterMap(["f0"])
        fmap.assign_host("A", ["f0"])
        fmap.reassign_host("A", ["f1"], from_toid=5)
        f0 = FilterCore("f0", fmap)
        released = []
        for toid in (1, 2, 3, 4):
            released += f0.offer_externals([rec("A", toid)])
        assert [r.toid for r in released] == [1, 2, 3, 4]
        # Past its last TOId it expects nothing more: TOId 5 is forwarded.
        assert f0.offer_externals([rec("A", 5)]) == []
        assert [r.toid for r in f0.take_misrouted()] == [5]

    def test_record_of_a_host_championed_elsewhere_is_forwarded(self):
        fmap = FilterMap(["f0", "f1"])
        fmap.assign_host("A", ["f1"])
        f0 = FilterCore("f0", fmap)
        assert f0.offer_externals([rec("A", 1), rec("A", 2)]) == []
        assert [r.toid for r in f0.take_misrouted()] == [1, 2]
        assert f0.duplicates_dropped == 0

    def test_reassignment_forwards_buffered_records_it_moved(self):
        fmap = FilterMap(["f0", "f1"])
        fmap.assign_host("A", ["f0"])
        f0 = FilterCore("f0", fmap)
        f0.offer_externals([rec("A", 1), rec("A", 3), rec("A", 6)])
        fmap.reassign_host("A", ["f1"], from_toid=5)
        assert [r.toid for r in f0.offer_externals([rec("A", 2)])] == [2, 3]
        assert [r.toid for r in f0.take_misrouted()] == [6]
        assert f0.buffered_count() == 0

    def test_reassignment_itself_rehomes_what_the_old_champion_buffered(self):
        # No further record of the host reaches f0: the reassignment alone
        # must empty its buffer, and f1 admit TOId 6 without a resend.
        fmap = FilterMap(["f0", "f1"])
        fmap.assign_host("A", ["f0"])
        f0, f1 = FilterCore("f0", fmap), FilterCore("f1", fmap)
        assert f0.offer_externals([rec("A", 6)]) == []
        assert f0.buffered_count() == 1
        fmap.reassign_host("A", ["f1"], from_toid=5)
        assert f0.buffered_count() == 0
        assert f1.offer_externals(f0.take_misrouted()) == []  # waits for TOId 5
        assert [r.toid for r in f1.offer_externals([rec("A", 5)])] == [5, 6]
        assert f1.offer_externals([rec("A", 6)]) == []
        assert (f1.records_admitted, f1.duplicates_dropped, f1.buffered_count()) == (2, 1, 0)

    def test_an_unpickled_core_rejoins_its_map(self):
        fmap = FilterMap(["f0", "f1"])
        fmap.assign_host("A", ["f0"])
        FilterCore("f0", fmap).offer_externals([rec("A", 6)])
        f0 = pickle.loads(pickle.dumps(fmap._cores["f0"]))
        f0.filter_map.reassign_host("A", ["f1"], from_toid=5)
        assert [r.toid for r in f0.take_misrouted()] == [6]


class TestDraftAdmission:
    def make(self):
        return FilterCore("f0", FilterMap(["f0"]))

    def test_exactly_once_per_client(self):
        core = self.make()
        assert core.offer_drafts([draft("c", 1)]) != []
        assert core.offer_drafts([draft("c", 1)]) == []
        assert core.duplicates_dropped == 1

    def test_client_fifo_restored(self):
        core = self.make()
        assert core.offer_drafts([draft("c", 2)]) == []
        released = core.offer_drafts([draft("c", 1)])
        assert [d.seq for d in released] == [1, 2]

    def test_clients_are_independent(self):
        core = self.make()
        assert core.offer_drafts([draft("c1", 1)]) != []
        assert core.offer_drafts([draft("c2", 1)]) != []

    def test_records_admitted_counter(self):
        core = self.make()
        core.offer_drafts([draft("c", 1)])
        core.offer_externals([rec("A", 1)])
        assert core.records_admitted == 2
