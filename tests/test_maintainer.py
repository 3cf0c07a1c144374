"""Tests for the log maintainer (repro.flstore.maintainer)."""

import random

import pytest

from repro.core import (
    FLStoreConfig,
    GapError,
    GarbageCollectedError,
    ImmutabilityError,
    LidOutOfRangeError,
    NotOwnerError,
    ReadRules,
)
from repro.flstore import LogMaintainer, MaintainerCore, OwnershipPlan
from repro.flstore.messages import GossipHL, ReadNewReply, ReadNewRequest
from repro.runtime import LocalRuntime
from repro.sim.workload import SinkActor

from conftest import chain, rec


def make_cluster(n=3, batch=5):
    names = [f"m{i}" for i in range(n)]
    plan = OwnershipPlan(names, batch_size=batch)
    return plan, [MaintainerCore(name, plan) for name in names]


class TestPostAssignment:
    def test_appends_use_owned_lids_in_order(self):
        plan, (m0, m1, m2) = make_cluster()
        results = m0.append(chain("c", 7))
        assert [r.lid for r in results] == [0, 1, 2, 3, 4, 15, 16]

    def test_different_maintainers_never_collide(self):
        plan, maintainers = make_cluster()
        lids = []
        for i, m in enumerate(maintainers):
            lids += [r.lid for r in m.append(chain(f"c{i}", 8))]
        assert len(set(lids)) == len(lids)

    def test_append_returns_rid_and_lid(self):
        _, (m0, *_ ) = make_cluster()
        [result] = m0.append([rec("c", 1)])
        assert result.rid.host == "c"
        assert result.lid == 0

    def test_append_count_matches_append(self):
        _, (m0, *_) = make_cluster()
        n = m0.append_count(chain("c", 6))
        assert n == 6
        assert m0.stored_count() == 6
        assert m0.next_unassigned == 16

    def test_records_appended_counter(self):
        _, (m0, *_) = make_cluster()
        m0.append(chain("c", 3))
        assert m0.records_appended == 3


class TestPlacedMode:
    def test_place_at_owned_lid(self):
        plan, (m0, m1, _) = make_cluster()
        assert m1.place(5, rec("A", 1)) is True
        assert m1.get(5).record.host == "A"

    def test_place_rejects_foreign_lid(self):
        plan, (m0, *_) = make_cluster()
        with pytest.raises(NotOwnerError):
            m0.place(5, rec("A", 1))  # lid 5 belongs to m1

    def test_place_is_idempotent(self):
        _, (m0, *_) = make_cluster()
        record = rec("A", 1)
        assert m0.place(0, record) is True
        assert m0.place(0, record) is False

    def test_place_conflicting_record_raises(self):
        _, (m0, *_) = make_cluster()
        m0.place(0, rec("A", 1))
        with pytest.raises(ImmutabilityError):
            m0.place(0, rec("B", 1))

    def test_out_of_order_placement_tracked(self):
        _, (m0, *_) = make_cluster()
        m0.place(2, rec("A", 1))
        assert m0.next_unassigned == 0  # still waiting for 0
        m0.place(0, rec("A", 2))
        assert m0.next_unassigned == 1
        m0.place(1, rec("A", 3))
        assert m0.next_unassigned == 3  # skips the pre-placed 2

    def test_placement_across_rounds(self):
        _, (m0, *_) = make_cluster(batch=2)
        for lid in (0, 1):  # fill round 0
            m0.place(lid, rec("A", lid + 1))
        assert m0.next_unassigned == 6  # m0's next round with n=3, batch=2


class TestReads:
    def test_get_unowned_raises(self):
        _, (m0, *_) = make_cluster()
        with pytest.raises(NotOwnerError):
            m0.get(5)

    def test_get_beyond_stored_raises(self):
        _, (m0, *_) = make_cluster()
        m0.append([rec("c", 1)])
        with pytest.raises(LidOutOfRangeError):
            m0.get(1)

    def test_get_hole_raises_gap(self):
        _, (m0, *_) = make_cluster()
        m0.place(2, rec("A", 1))
        with pytest.raises(GapError):
            m0.get(0)

    def test_rule_read_scans_local_slice(self):
        _, (m0, *_) = make_cluster()
        m0.append([rec("c", i + 1, tags={"k": i % 2}) for i in range(6)])
        entries = m0.read(ReadRules(tag_key="k", tag_value=1, limit=2))
        assert [e.record.toid for e in entries] == [6, 4]

    def test_entries_after_stops_at_frontier(self):
        _, (m0, *_) = make_cluster()
        m0.append(chain("c", 3))
        m0.place(16, rec("X", 1))  # ahead of the contiguous frontier
        entries, upto = m0.entries_after(-1)
        assert [e.lid for e in entries] == [0, 1, 2]
        assert upto == 2

    def test_entries_after_respects_limit(self):
        _, (m0, *_) = make_cluster()
        m0.append(chain("c", 5))
        entries, upto = m0.entries_after(-1, limit=2)
        assert [e.lid for e in entries] == [0, 1]
        assert upto == 1


def drain(core, limit, host, sender_host):
    """A sender's fetch loop against ``core``: what it buffers, where its
    cursor ends, and every reply it was sent."""
    cursor, buffered, replies = -1, [], []
    while True:
        entries, upto = core.entries_after(cursor, limit, host)
        replies.append(entries)
        buffered += [(e.lid, e.rid) for e in entries if e.record.host == sender_host]
        if upto <= cursor:
            return buffered, cursor, replies
        cursor = upto


class TestHostFilteredEntriesAfter:
    """``entries_after(host=...)`` ≡ the unfiltered walk with the sender
    throwing away what it does not ship."""

    @pytest.mark.parametrize("seed", range(25))
    def test_filtered_equals_unfiltered_then_filtered_by_the_sender(self, seed):
        rng = random.Random(seed)
        plan = OwnershipPlan(["m0", "m1"], batch_size=rng.choice([3, 5, 8]))
        core = MaintainerCore("m0", plan)
        owned = [lid for lid in range(120) if plan.owner(lid) == "m0"]
        toids = {"A": 0, "B": 0, "C": 0}
        weights = rng.choice([(6, 3, 1), (1, 1, 1), (1, 8, 1)])
        hole = rng.choice([None, rng.choice(owned[5:])])
        for lid in owned:
            if lid == hole:
                continue  # never placed: the frontier stops here
            host = rng.choices("ABC", weights)[0]
            toids[host] += 1
            core.place(lid, rec(host, toids[host]))
        if rng.random() < 0.5:  # a garbage-collected prefix
            core.truncate({h: rng.randrange(0, 8) for h in "ABC"})
        limit = rng.choice([1, 2, 7, 4096])

        want, want_cursor, _ = drain(core, limit, None, "A")
        got, got_cursor, replies = drain(core, limit, "A", "A")
        assert got == want
        assert got_cursor == want_cursor
        assert all(e.record.host == "A" for reply in replies for e in reply)
        assert all(len(reply) <= limit for reply in replies)

    def test_all_external_tail_is_walked_over(self):
        _, (m0, *_) = make_cluster(batch=5)
        m0.append(chain("A", 2) + chain("B", 3))
        entries, upto = m0.entries_after(-1, host="A")
        assert [e.lid for e in entries] == [0, 1] and upto == 4
        assert m0.entries_after(1, host="A") == ([], 4)
        assert m0.entries_after(4, host="A") == ([], 4)

    def test_limit_counts_returned_entries(self):
        _, (m0, *_) = make_cluster(batch=5)
        m0.append([rec("B", 1), rec("A", 1), rec("B", 2), rec("A", 2), rec("A", 3)])
        entries, upto = m0.entries_after(-1, limit=2, host="A")
        assert [e.lid for e in entries] == [1, 3] and upto == 3

    def test_filter_stops_at_a_hole_and_skips_a_collected_prefix(self):
        _, (m0, *_) = make_cluster(batch=5)
        m0.append([rec("A", 1), rec("B", 1), rec("A", 2)])
        m0.place(4, rec("A", 3))  # LId 3 is a hole
        m0.truncate({"A": 1})
        entries, upto = m0.entries_after(-1, host="A")
        assert [e.lid for e in entries] == [2] and upto == 2

    def test_actor_passes_the_requested_host(self):
        runtime = LocalRuntime()
        plan = OwnershipPlan(["m0"], batch_size=5)
        store = LogMaintainer("m0", plan, peers=["m0"])
        sink = SinkActor("sender")
        runtime.register_all([store, sink])
        runtime.start()
        store.core.append([rec("A", 1), rec("B", 1), rec("A", 2)])
        store.on_message("sender", ReadNewRequest(1, after_lid=-1, host="B"))
        store.on_message("sender", ReadNewRequest(2, after_lid=-1))
        runtime.run_for(0.01)
        first, second = [m for m in sink.messages if isinstance(m, ReadNewReply)]
        assert [e.lid for e in first.entries] == [1] and first.upto == 2
        assert [e.lid for e in second.entries] == [0, 1, 2] and second.upto == 2


class TestHeadOfLogGossip:
    def test_initial_head_is_empty(self):
        _, (m0, m1, m2) = make_cluster()
        assert m0.head_of_log() == -1

    def test_head_requires_all_maintainers(self):
        # §5.4: maintainer ahead of the others does not advance the head.
        _, (m0, m1, m2) = make_cluster(batch=5)
        m0.append(chain("c", 5))
        m0.on_gossip(m1.gossip_payload())
        m0.on_gossip(m2.gossip_payload())
        assert m0.head_of_log() == 4  # m1 owns 5..9 and has nothing

    def test_head_advances_with_gossip(self):
        _, (m0, m1, m2) = make_cluster(batch=5)
        m0.append(chain("a", 5))
        m1.append(chain("b", 5))
        m2.append(chain("c", 2))
        for src in (m0, m1, m2):
            payload = src.gossip_payload()
            for dst in (m0, m1, m2):
                dst.on_gossip(payload)
        # m2 filled 10, 11 -> first gap is at 12.
        assert m0.head_of_log() == 11
        assert m1.head_of_log() == 11

    def test_gossip_is_monotone(self):
        _, (m0, m1, _) = make_cluster()
        m0.on_gossip(GossipHL("m1", 10))
        m0.on_gossip(GossipHL("m1", 5))  # stale gossip must not regress
        assert m0._hl_vector["m1"] == 10

    def test_reading_below_head_never_gaps(self):
        # The §5.4 guarantee: any LId at or below HL is readable somewhere.
        plan, maintainers = make_cluster(batch=3)
        maintainers[0].append(chain("a", 4))
        maintainers[1].append(chain("b", 9))
        maintainers[2].append(chain("c", 5))
        for src in maintainers:
            payload = src.gossip_payload()
            for dst in maintainers:
                dst.on_gossip(payload)
        head = maintainers[0].head_of_log()
        assert head >= 0
        for lid in range(head + 1):
            owner = next(m for m in maintainers if m.name == plan.owner(lid))
            assert owner.get(lid) is not None


class TestExplicitOrder:
    def test_min_lid_defers_until_bound_passes(self):
        _, (m0, *_) = make_cluster(batch=5)
        result = m0.append([rec("late", 1)], min_lid=2)
        assert result is None
        assert m0.deferred_count == 1
        m0.append(chain("c", 3))  # lids 0, 1, 2 -> next is 3 > 2
        completed = m0.flush_deferred()
        assert len(completed) == 1
        assert completed[0].results[0].lid == 3

    def test_min_lid_satisfied_immediately(self):
        _, (m0, *_) = make_cluster(batch=5)
        m0.append(chain("c", 3))
        results = m0.append([rec("late", 1)], min_lid=1)
        assert results is not None
        assert results[0].lid == 3

    def test_noop_fill_preserves_no_gap_invariant(self):
        config = FLStoreConfig(batch_size=5, fill_gaps_with_noops=True)
        plan = OwnershipPlan(["m0"], batch_size=5)
        m0 = MaintainerCore("m0", plan, config=config)
        results = m0.append([rec("late", 1)], min_lid=3)
        assert results is not None
        assert results[0].lid == 4  # lids 0-3 filled with no-ops
        for lid in range(4):
            assert m0.get(lid).record.internal

    def test_deferred_context_round_trips(self):
        _, (m0, *_) = make_cluster(batch=5)
        m0.append([rec("late", 1)], min_lid=0, context=("client", 42))
        m0.append(chain("c", 1))
        [completed] = m0.flush_deferred()
        assert completed.context == ("client", 42)


class TestGarbageCollection:
    def test_truncate_covered_prefix(self):
        _, (m0, *_) = make_cluster(batch=5)
        m0.append([rec("A", t) for t in range(1, 6)])
        dropped = m0.truncate({"A": 3})
        assert dropped == 3
        assert m0.gc_floor == 3
        with pytest.raises(GarbageCollectedError):
            m0.get(0)
        assert m0.get(3).record.toid == 4

    def test_truncate_stops_at_uncovered_record(self):
        _, (m0, *_) = make_cluster(batch=5)
        m0.append([rec("A", 1), rec("B", 1), rec("A", 2)])
        dropped = m0.truncate({"A": 5})  # B:1 not covered
        assert dropped == 1

    def test_truncate_respects_keep_from(self):
        _, (m0, *_) = make_cluster(batch=5)
        m0.append([rec("A", t) for t in range(1, 5)])
        dropped = m0.truncate({"A": 10}, keep_from_lid=2)
        assert dropped == 2

    def test_internal_records_always_collectable(self):
        config = FLStoreConfig(batch_size=5, fill_gaps_with_noops=True)
        plan = OwnershipPlan(["m0"], batch_size=5)
        m0 = MaintainerCore("m0", plan, config=config)
        m0.append([rec("A", 1)], min_lid=2)  # no-ops at 0..2, record at 3
        dropped = m0.truncate({"A": 1})
        assert dropped == 4

    def test_replacement_after_gc_is_noop(self):
        _, (m0, *_) = make_cluster(batch=5)
        record = rec("A", 1)
        m0.place(0, record)
        m0.truncate({"A": 1})
        assert m0.place(0, record) is False  # retransmitted placement

    def test_entries_after_skips_collected_prefix(self):
        _, (m0, *_) = make_cluster(batch=5)
        m0.append([rec("A", t) for t in range(1, 4)])
        m0.truncate({"A": 2})
        entries, upto = m0.entries_after(-1)
        assert [e.record.toid for e in entries] == [3]


class TestElasticityHooks:
    def test_new_peer_extends_hl_vector(self):
        plan, (m0, m1, m2) = make_cluster(batch=5)
        m0.append(chain("c", 20))
        plan.add_epoch(30, ["m0", "m1", "m2", "m3"])
        m0.note_new_peer("m3")
        assert "m3" in m0._hl_vector

    def test_cursor_crosses_into_new_epoch(self):
        plan = OwnershipPlan(["m0"], batch_size=5)
        m0 = MaintainerCore("m0", plan)
        m0.append(chain("c", 5))
        plan.add_epoch(5, ["m0", "m1"])
        results = m0.append(chain("d", 3))
        assert [r.lid for r in results] == [5, 6, 7]
        # Next round after 5-9 belongs to m1; m0 resumes at 15.
        more = m0.append(chain("e", 3))
        assert [r.lid for r in more] == [8, 9, 15]
