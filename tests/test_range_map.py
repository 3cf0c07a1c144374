"""Tests for deterministic LId ownership (repro.flstore.range_map)."""

import pytest

from repro.core import ConfigurationError
from repro.flstore import OwnershipPlan, RangeEpoch

from conftest import owned_lids


class TestRangeEpoch:
    def test_round_robin_ownership_matches_figure_4(self):
        # Figure 4: batch size 1000, maintainers A, B, C.
        epoch = RangeEpoch(0, 1000, ("A", "B", "C"))
        assert epoch.owner(0) == "A"
        assert epoch.owner(999) == "A"
        assert epoch.owner(1000) == "B"
        assert epoch.owner(2999) == "C"
        assert epoch.owner(3000) == "A"  # round 2 wraps back

    def test_next_owned_within_round(self):
        epoch = RangeEpoch(0, 10, ("A", "B"))
        assert epoch.next_owned("A", 0) == 1
        assert epoch.next_owned("A", 8) == 9

    def test_next_owned_jumps_rounds(self):
        epoch = RangeEpoch(0, 10, ("A", "B"))
        assert epoch.next_owned("A", 9) == 20
        assert epoch.next_owned("B", -1) == 10

    def test_next_owned_for_unknown_maintainer(self):
        epoch = RangeEpoch(0, 10, ("A",))
        assert epoch.next_owned("Z", 0) is None

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RangeEpoch(-1, 10, ("A",))
        with pytest.raises(ConfigurationError):
            RangeEpoch(0, 0, ("A",))
        with pytest.raises(ConfigurationError):
            RangeEpoch(0, 10, ())
        with pytest.raises(ConfigurationError):
            RangeEpoch(0, 10, ("A", "A"))


class TestOwnershipPlan:
    def test_single_epoch_ownership(self):
        plan = OwnershipPlan(["m0", "m1"], batch_size=5)
        assert [plan.owner(l) for l in (0, 4, 5, 9, 10)] == ["m0", "m0", "m1", "m1", "m0"]

    def test_first_owned_lid(self):
        plan = OwnershipPlan(["m0", "m1", "m2"], batch_size=5)
        assert plan.first_owned_lid("m0") == 0
        assert plan.first_owned_lid("m1") == 5
        assert plan.first_owned_lid("m2") == 10

    def test_owned_lids_iteration(self):
        plan = OwnershipPlan(["m0", "m1"], batch_size=2)
        assert owned_lids(plan, "m0", 9) == [0, 1, 4, 5, 8, 9]
        assert owned_lids(plan, "m1", 9) == [2, 3, 6, 7]

    def test_every_lid_has_exactly_one_owner(self):
        plan = OwnershipPlan(["a", "b", "c"], batch_size=3)
        owned = {name: set(owned_lids(plan, name, 50)) for name in ("a", "b", "c")}
        union = set().union(*owned.values())
        assert union == set(range(51))
        assert sum(len(s) for s in owned.values()) == 51

    def test_negative_lid_rejected(self):
        plan = OwnershipPlan(["m0"], batch_size=5)
        with pytest.raises(ConfigurationError):
            plan.owner(-1)


class TestEpochJournal:
    def make_plan(self):
        plan = OwnershipPlan(["m0", "m1"], batch_size=5)
        plan.add_epoch(20, ["m0", "m1", "m2"], batch_size=5)
        return plan

    def test_old_records_stay_with_old_owners(self):
        plan = self.make_plan()
        assert plan.owner(0) == "m0"
        assert plan.owner(5) == "m1"
        assert plan.owner(19) == "m1"

    def test_new_epoch_takes_effect_at_boundary(self):
        plan = self.make_plan()
        assert plan.owner(20) == "m0"
        assert plan.owner(25) == "m1"
        assert plan.owner(30) == "m2"
        assert plan.owner(35) == "m0"

    def test_next_owned_crosses_epoch_boundary(self):
        plan = self.make_plan()
        # m0's last owned lid under epoch 1 is 14 (round at 10-14).
        assert plan.next_owned_lid("m0", 14) == 20

    def test_new_maintainer_first_lid_is_in_new_epoch(self):
        plan = self.make_plan()
        assert plan.first_owned_lid("m2") == 30

    def test_epoch_must_be_in_future(self):
        plan = OwnershipPlan(["m0"], batch_size=5)
        with pytest.raises(ConfigurationError):
            plan.add_epoch(0, ["m0", "m1"])

    def test_epoch_must_align_with_rounds(self):
        plan = OwnershipPlan(["m0"], batch_size=5)
        with pytest.raises(ConfigurationError):
            plan.add_epoch(7, ["m0", "m1"])

    def test_maintainers_union_over_journal(self):
        plan = self.make_plan()
        assert plan.maintainers() == ["m0", "m1", "m2"]

    def test_decommissioned_maintainer_has_no_future_lids(self):
        plan = OwnershipPlan(["m0", "m1"], batch_size=5)
        plan.add_epoch(10, ["m0"])  # m1 retired
        assert plan.next_owned_lid("m1", 5) == 6  # still owns the tail of its round
        assert plan.next_owned_lid("m1", 9) is None
        assert plan.owner(15) == "m0"

    def test_epoch_for(self):
        plan = self.make_plan()
        assert plan.epoch_for(0).start_lid == 0
        assert plan.epoch_for(19).start_lid == 0
        assert plan.epoch_for(20).start_lid == 20

    def test_batch_size_can_change_between_epochs(self):
        plan = OwnershipPlan(["m0", "m1"], batch_size=5)
        plan.add_epoch(10, ["m0", "m1"], batch_size=3)
        assert plan.owner(10) == "m0"
        assert plan.owner(13) == "m1"
        assert plan.owner(16) == "m0"

    def test_from_epochs_rebuilds_the_journal(self):
        plan = self.make_plan()
        wire = [(e.start_lid, e.batch_size, e.maintainers) for e in plan.epochs]
        assert OwnershipPlan.from_epochs(wire).epochs == plan.epochs
        with pytest.raises(ConfigurationError):
            OwnershipPlan.from_epochs([(5, 5, ("m0",))])
