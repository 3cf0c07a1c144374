"""The burst-native append path ≡ the per-record path it replaced.

Four equivalences, one per hop that went from per-record to per-run:

* client — every append of one turn leaves in one ``DraftBatch`` per
  batcher, with acks, ``seq``s and per-client order unchanged;
* queue admission — ``DeferredQueue.admit`` against the heap-for-everything
  loop it replaced (kept here as the reference implementation);
* maintainer — ``MaintainerCore.place_run`` against a loop of ``place``;
* sender — one ``ReadNewRequest`` in flight per maintainer, no reply
  entry buffered twice, and (direct mode) only its own datacenter's records
  asked for.

Plus the message-count guard: the counts are exact and host-independent, so
a slide back to per-record messaging fails here rather than in a benchmark.
"""

from __future__ import annotations

import hashlib
import os
import random
import struct
import tempfile
from typing import Any, Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos import FaultPlan
from repro.chariots import ChariotsDeployment, check_logs
from repro.chariots.messages import DraftBatch, ReplicationShipment, ShipmentAck
from repro.chariots.sender import Sender
from repro.core import (
    CausalFrontier,
    DeferredQueue,
    DeploymentSpec,
    PipelineConfig,
    causal_order_respected,
)
from repro.core.errors import ChariotsError, DuplicateRecordError
from repro.core.record import LogEntry, Record, RecordRun, split_placements
from repro.flstore import MaintainerCore, OwnershipPlan
from repro.flstore.journal import FileJournal, MemoryJournal
from repro.flstore.messages import ReadNewReply, ReadNewRequest
from repro.net.aio_runtime import AioRuntime
from repro.net.binary_codec import encode_value_binary
from repro.runtime import LocalRuntime

from conftest import SinkActor, rec, replayed

# --------------------------------------------------------------------------- #
# (a) Client: one DraftBatch per burst
# --------------------------------------------------------------------------- #


def tap_draft_batches(deployment: ChariotsDeployment, dc: str) -> List[Tuple[str, DraftBatch]]:
    """Record every ``DraftBatch`` the batchers of ``dc`` receive."""
    seen: List[Tuple[str, DraftBatch]] = []
    for batcher in deployment[dc].batchers:
        def tapped(sender, message, name=batcher.name, inner=batcher.on_message):
            if isinstance(message, DraftBatch):
                seen.append((name, message))
            inner(sender, message)

        batcher.on_message = tapped
    return seen


def assert_acks_match_log(deployment, dc, client, seqs, acks, bodies):
    """Every ack names the log position that holds its own draft."""
    assert sorted(acks) == seqs
    entries = deployment[dc].all_entries()
    assert check_logs({dc: entries}, acks=acks.values()).ok
    body_of = {e.rid: e.record.body for e in entries}
    assert [body_of[acks[seq].rid] for seq in seqs] == bodies
    # Per-client order: TOIds follow call order.
    toids = [acks[seq].rid.toid for seq in seqs]
    assert toids == sorted(toids) and len(set(toids)) == len(toids)


class TestClientBursts:
    def test_one_burst_is_one_draft_batch(self):
        runtime = LocalRuntime()
        deployment = ChariotsDeployment(runtime, ["A", "B"], batch_size=8)
        runtime.start()
        batches = tap_draft_batches(deployment, "A")
        client = deployment.client("A")
        acks: Dict[int, Any] = {}
        bodies = [f"b{i}" for i in range(50)]
        seqs = [
            client.append(body, on_done=lambda r, i=i: acks.__setitem__(i + 1, r))
            for i, body in enumerate(bodies)
        ]
        assert seqs == list(range(1, 51))
        assert batches == []  # nothing leaves before the caller yields
        assert deployment.settle()
        assert len(batches) == 1
        assert [d.seq for d in batches[0][1].drafts] == seqs
        assert_acks_match_log(deployment, "A", client, seqs, acks, bodies)

    def test_two_turns_are_two_batches(self):
        runtime = LocalRuntime()
        deployment = ChariotsDeployment(runtime, ["A", "B"], batch_size=8)
        runtime.start()
        batches = tap_draft_batches(deployment, "A")
        client = deployment.client("A")
        acked: List[Any] = []
        for turn in range(2):
            for i in range(5):
                client.append(f"t{turn}-{i}", on_done=acked.append)
            runtime.run_for(0.001)
        assert deployment.settle()
        assert [[d.seq for d in b.drafts] for _, b in batches] == [
            [1, 2, 3, 4, 5],
            [6, 7, 8, 9, 10],
        ]
        assert [r.rid.toid for r in acked] == list(range(1, 11))

    def test_burst_splits_round_robin_across_batchers(self):
        runtime = LocalRuntime()
        deployment = ChariotsDeployment(
            runtime, ["A"], spec=DeploymentSpec(batchers=3), batch_size=8
        )
        runtime.start()
        batches = tap_draft_batches(deployment, "A")
        client = deployment.client("A")
        acked: List[Any] = []
        for burst in (7, 2):  # the second burst resumes the rotation
            for _ in range(burst):
                client.append("x", on_done=acked.append)
            runtime.run_for(0.001)
        assert deployment.settle()
        names = client.batchers
        start = names.index(batches[0][0])
        # Draft i goes to batcher (start + i) mod 3, exactly as when every
        # draft was its own message; one message per batcher per burst.
        assert len(batches) == 3 + 2
        for name, batch in batches:
            for d in batch.drafts:
                assert names[(start + d.seq - 1) % 3] == name
        assert sorted(r.rid.toid for r in acked) == list(range(1, 10))

    def test_blocking_client_acks_each_append(self):
        runtime = LocalRuntime()
        deployment = ChariotsDeployment(runtime, ["A", "B"], batch_size=8)
        batches = tap_draft_batches(deployment, "A")
        client = deployment.blocking_client("A")
        results = [client.append(f"b{i}") for i in range(4)]
        assert [r.rid.toid for r in results] == [1, 2, 3, 4]
        assert [len(b.drafts) for _, b in batches] == [1, 1, 1, 1]
        assert client.read_lid(results[2].lid).entries[0].record.body == "b2"

    def test_append_without_batchers_is_refused(self):
        from repro.chariots import ChariotsClient

        runtime = LocalRuntime()
        client = ChariotsClient("c", "ctl", batchers=[])
        runtime.register(client)
        with pytest.raises(ChariotsError):
            client.append("x")

    def test_burst_on_aio_runtime(self):
        runtime = AioRuntime()
        deployment = ChariotsDeployment(runtime, ["A", "B"], batch_size=8)
        try:
            batches = tap_draft_batches(deployment, "A")
            client = deployment.client("A")
            acks: Dict[int, Any] = {}
            bodies = [f"b{i}" for i in range(20)]
            seqs = [
                client.append(body, on_done=lambda r, i=i: acks.__setitem__(i + 1, r))
                for i, body in enumerate(bodies)
            ]
            runtime.run_until(lambda: len(acks) == 20, timeout=10.0)
            assert deployment.settle(max_seconds=10.0)
            assert len(batches) == 1
            assert [d.seq for d in batches[0][1].drafts] == seqs
            assert_acks_match_log(deployment, "A", client, seqs, acks, bodies)
        finally:
            runtime.stop()


# --------------------------------------------------------------------------- #
# (b) Queue admission ≡ the heap-for-everything loop
# --------------------------------------------------------------------------- #

HOSTS = ["A", "B", "C"]


def heap_only_admit(
    arrivals: List[Record], frontier: CausalFrontier
) -> Tuple[List[Record], List[Record]]:
    """The loop ``QueueStage._process`` ran before ``DeferredQueue.admit``:
    every arrival through the priority queue.  Reference implementation."""
    deferred = DeferredQueue()
    for record in arrivals:
        if frontier.is_duplicate(record):
            continue
        try:
            deferred.push(record)
        except DuplicateRecordError:
            continue
    ordered = deferred.drain(frontier)
    return ordered, deferred.peek_all()


@st.composite
def admission_rounds(draw):
    """Shuffled, duplicated, cross-dependent externals from three hosts,
    dealt over a few token rounds; some never arrive, so their successors
    (and whoever depends on them) stay deferred."""
    sizes = {host: draw(st.integers(0, 7)) for host in HOSTS}
    records: List[Record] = []
    for host in HOSTS:
        for toid in range(1, sizes[host] + 1):
            deps = {}
            for other in HOSTS:
                if other != host and draw(st.integers(0, 3)) == 0:
                    # Mostly satisfiable, sometimes beyond what exists.
                    deps[other] = draw(st.integers(1, sizes[other] + 2))
            records.append(rec(host, toid, deps=deps or None))
    rng = random.Random(draw(st.integers(0, 2**16)))
    pool = [r for r in records if rng.random() < 0.9]
    pool += [r for r in pool if rng.random() < 0.3]  # duplicate arrivals
    rng.shuffle(pool)
    n_rounds = draw(st.integers(1, 4))
    rounds: List[List[Record]] = [[] for _ in range(n_rounds)]
    for record in pool:
        rounds[rng.randrange(n_rounds)].append(record)
    already = {h: draw(st.integers(0, 2)) for h in HOSTS if draw(st.booleans())}
    return rounds, already


@settings(max_examples=300, deadline=None)
@given(admission_rounds())
def test_run_admission_matches_heap_only_admission(case):
    rounds, already = case
    new_frontier, old_frontier = CausalFrontier(already), CausalFrontier(already)
    new_deferred: List[Record] = []
    old_deferred: List[Record] = []
    released: List[Record] = []
    for arrivals in rounds:
        queue = DeferredQueue()
        ordered = queue.admit(new_deferred + arrivals, new_frontier)
        new_deferred = queue.peek_all()
        expected, old_deferred = heap_only_admit(old_deferred + arrivals, old_frontier)
        assert ordered == expected
        assert new_deferred == old_deferred
        assert new_frontier.snapshot() == old_frontier.snapshot()
        released.extend(ordered)
    if not already:
        assert causal_order_respected(released)


def test_admission_without_a_deferral_never_touches_the_heap():
    queue = DeferredQueue()
    frontier = CausalFrontier()
    batch = [rec("B", t, deps={"A": 1} if t > 2 else None) for t in (1, 2, 3)] + [rec("A", 1)]
    ordered = queue.admit(batch, frontier)
    assert [r.rid.toid for r in ordered if r.host == "B"] == [1, 2, 3]
    assert len(ordered) == 4 and len(queue) == 0


def test_causal_tests_read_deps_without_building_a_vector():
    record = rec("A", 5, deps={"B": 3, "A": 2})
    frontier = CausalFrontier({"A": 4, "B": 3})
    assert frontier.admissible(record)
    assert not CausalFrontier({"A": 4, "B": 2}).admissible(record)
    assert not CausalFrontier({"A": 3, "B": 9}).admissible(record)
    for other, expected in [
        (rec("A", 4).rid, True),  # the implicit host predecessor
        (rec("A", 5).rid, False),
        (rec("B", 3).rid, True),
        (rec("B", 4).rid, False),
        (rec("C", 1).rid, False),
    ]:
        assert record.depends_on(other) is expected
        assert record.depends_on(other) is (
            record.dep_vector().get(other.host, 0) >= other.toid
        )


# --------------------------------------------------------------------------- #
# (c) Run placement ≡ per-record place()
# --------------------------------------------------------------------------- #


def core_state(core: MaintainerCore) -> Dict[str, Any]:
    return {
        "storage": core.stored_entries(),
        "count": core.stored_count(),
        "cursor": core.next_unassigned,
        "round_end": core._round_end,
        "newest": core.max_stored_lid,
        "gc_floor": core.gc_floor,
        "head": core.head_of_log(),
        "hl": dict(core._hl_vector),
        "postings": list(core._pending_postings),
        "placed": core.records_placed,
    }


def place_each(core: MaintainerCore, placements) -> Optional[BaseException]:
    try:
        for lid, record in split_placements(placements):
            core.place(lid, record)
    except ChariotsError as exc:
        return exc
    return None


def place_as_run(core: MaintainerCore, placements) -> Optional[BaseException]:
    try:
        core.place_run(placements)
    except ChariotsError as exc:
        return exc
    return None


def assert_same_outcome(plan_args, batches, truncate_after=None, journals=None):
    names, batch_size = plan_args
    journals = journals or (None, None)
    run_core = MaintainerCore(names[0], OwnershipPlan(names, batch_size), journal=journals[0])
    ref_core = MaintainerCore(names[0], OwnershipPlan(names, batch_size), journal=journals[1])
    for index, placements in enumerate(batches):
        got = place_as_run(run_core, placements)
        expected = place_each(ref_core, placements)
        assert type(got) is type(expected)
        assert getattr(got, "args", None) == getattr(expected, "args", None)
        assert core_state(run_core) == core_state(ref_core)
        if truncate_after == index:
            everything = {host: 10**9 for host in HOSTS}
            assert run_core.truncate(everything) == ref_core.truncate(everything)
    return run_core, ref_core


@st.composite
def placement_batches(draw):
    n = draw(st.integers(1, 3))
    names = [f"m{i}" for i in range(n)]
    batch_size = draw(st.integers(1, 5))
    span = batch_size * n * 3
    toids = {host: 0 for host in HOSTS}
    # Often from LId 0, so that a prefix fills and truncation moves the floor.
    any_lid = st.one_of(st.just(0), st.integers(0, span))
    batches = []
    for _ in range(draw(st.integers(1, 4))):
        placements = []
        lid = draw(any_lid)
        for _ in range(draw(st.integers(0, 12))):
            kind = draw(st.integers(0, 9))
            if kind == 0:
                lid = draw(any_lid)  # jump: out of order / not owned
            if kind >= 7:  # a run: it may cross rounds and owners, fill holes
                host = draw(st.sampled_from(HOSTS))
                count = draw(st.integers(1, 2 * batch_size + 1))
                first = toids[host] + 1
                toids[host] += count
                run = RecordRun(
                    host, first, (("Z", kind),),
                    [f"{host}:{first + i}" for i in range(count)],
                    [(("k", (lid + i) % 3),) if draw(st.booleans()) else () for i in range(count)],
                )
                placements.append((lid, run))
                if kind == 8:
                    placements.append((lid, run))  # retransmitted run
                elif kind == 9 and count > 1:
                    placements.append((lid + 1, run.slice(1, count)))  # its tail again
                lid += count
                continue
            host = draw(st.sampled_from(HOSTS))
            toids[host] += 1
            tags = {"k": lid % 3} if draw(st.booleans()) else None
            placements.append((lid, rec(host, toids[host], tags=tags)))
            if kind == 1:
                placements.append(placements[-1])  # retransmitted placement
            lid += 1
        batches.append(placements)
    truncate_after = draw(st.one_of(st.none(), st.integers(0, len(batches) - 1)))
    return (names, batch_size), batches, truncate_after


@settings(max_examples=300, deadline=None)
@given(placement_batches())
def test_place_run_matches_per_record_place(case):
    plan_args, batches, truncate_after = case
    journals = (MemoryJournal(), MemoryJournal())
    assert_same_outcome(plan_args, batches, truncate_after, journals)
    assert list(replayed(journals[0])) == list(replayed(journals[1]))
    # And with a block per run on disk against a call per record in memory:
    # same entries, same order, also around a pair that raises.
    with tempfile.TemporaryDirectory() as directory:
        journals = (FileJournal(os.path.join(directory, "run")), MemoryJournal())
        try:
            assert_same_outcome(plan_args, batches, truncate_after, journals)
            assert list(replayed(journals[0])) == list(replayed(journals[1]))
        finally:
            journals[0].close()


class TestPlaceRun:
    PLAN = (["m0", "m1"], 4)  # m0 owns 0–3, 8–11, …

    def test_contiguous_run_across_rounds(self):
        placements = [(lid, rec("A", i + 1)) for i, lid in enumerate([0, 1, 2, 3, 8, 9])]
        run_core, _ = assert_same_outcome(self.PLAN, [placements])
        assert run_core.next_unassigned == 10 and run_core.records_placed == 6

    def test_run_crossing_an_ownership_boundary_raises_not_owner(self):
        from repro.core.errors import NotOwnerError

        placements = [(lid, rec("A", lid + 1)) for lid in range(2, 7)]  # 4 is m1's
        run_core, _ = assert_same_outcome(self.PLAN, [placements])
        assert run_core.stored_count() == 2  # the pairs before the error stay
        with pytest.raises(NotOwnerError):
            run_core.place_run(placements)

    def test_duplicates_and_immutability(self):
        from repro.core.errors import ImmutabilityError

        first = [(0, rec("A", 1)), (1, rec("A", 2))]
        again = [(1, rec("A", 2)), (2, rec("A", 3)), (0, rec("B", 1)), (3, rec("A", 4))]
        run_core, _ = assert_same_outcome(self.PLAN, [first, again])
        assert run_core.records_placed == 3 and run_core.next_unassigned == 3
        with pytest.raises(ImmutabilityError):
            run_core.place_run([(0, rec("B", 1))])

    def test_placements_below_the_gc_floor_are_no_ops(self):
        first = [(lid, rec("A", lid + 1)) for lid in range(3)]
        late = [(1, rec("A", 2)), (3, rec("A", 4))]
        run_core, _ = assert_same_outcome(self.PLAN, [first, late], truncate_after=0)
        assert run_core.gc_floor == 3 and run_core.stored_count() == 1

    def test_early_placements_are_skipped_by_the_cursor(self):
        ahead = [(2, rec("A", 3)), (3, rec("A", 4)), (8, rec("A", 5))]
        fill = [(0, rec("A", 1)), (1, rec("A", 2))]
        run_core, _ = assert_same_outcome(self.PLAN, [ahead, fill])
        assert run_core.next_unassigned == 9

    def test_journal_entries_identical(self, tmp_path):
        """One block per run against one call per record: the same entries
        in the same order — the pairs before one that raises (4 is m1's; 0
        already holds another record) are journaled, none after it."""
        batches = [
            [(lid, rec("A", lid + 1, tags={"k": lid})) for lid in (0, 1, 2, 3, 8)],
            [(2, rec("A", 3, tags={"k": 2})), (9, rec("B", 1))],
            [(10, rec("A", 11)), (4, rec("A", 5)), (11, rec("A", 12))],
            [(16, rec("A", 17)), (0, rec("B", 9)), (17, rec("A", 18))],
            [(lid, rec("A", lid + 1)) for lid in (11, 17, 18, 19, 24, 25, 26, 27, 32, 33)],
        ]
        journals = (FileJournal(str(tmp_path / "run")), MemoryJournal())
        try:
            assert_same_outcome(self.PLAN, batches, journals=journals)
            runs = list(journals[0].replay_runs())
            entries = list(replayed(journals[1]))
        finally:
            journals[0].close()
        assert [len(run) for run in runs] == [5, 1, 1, 1, 10]
        assert [pair for run in runs for pair in run] == entries
        assert [lid for lid, _ in entries] == [0, 1, 2, 3, 8, 9, 10, 16] + [
            lid for lid, _ in batches[4]
        ]


# --------------------------------------------------------------------------- #
# (d) Sender: one fetch in flight, no entry buffered twice
# --------------------------------------------------------------------------- #


def make_sender(retransmit_timeout=0.1):
    runtime = LocalRuntime()
    store = SinkActor("A/store")  # swallows requests: replies are scripted
    receiver = SinkActor("B/recv")
    sender = Sender(
        "A/send", "A", maintainers=["A/store"],
        peer_receivers={"B": ["B/recv"]},
        config=PipelineConfig(
            replication_interval=0.01,
            retransmit_base=retransmit_timeout,
            retransmit_max=8 * retransmit_timeout,
        ),
    )
    runtime.register_all([store, receiver, sender])
    runtime.start()
    return runtime, sender, store


def sender_shipments(runtime):
    return [m for m in runtime.actor("B/recv").messages if isinstance(m, ReplicationShipment)]


def reply(request_id, lids, upto=None):
    entries = [LogEntry(lid, rec("A", lid + 1)) for lid in lids]
    return ReadNewReply(request_id, entries, upto=lids[-1] if upto is None else upto)


def shipped_lids(receiver):
    """LIds of the records shipped to the sink, in order (``reply`` gives
    the record at LId ``n`` TOId ``n + 1``)."""
    return [
        record.toid - 1
        for message in receiver.messages
        if isinstance(message, ReplicationShipment)
        for record in message.records
    ]


def stream(sender):
    return sender._streams[("B", "A/store")]


class TestSenderFetch:
    def test_one_request_in_flight_until_it_times_out(self):
        runtime, sender, store = make_sender(retransmit_timeout=0.1)
        runtime.run_for(0.095)  # nine ticks, no reply
        requests = [m for m in store.messages if isinstance(m, ReadNewRequest)]
        assert len(requests) == 1
        runtime.run_for(0.03)  # past the retry policy's first delay: re-issued
        requests = [m for m in store.messages if isinstance(m, ReadNewRequest)]
        assert len(requests) == 2 and requests[1].after_lid == requests[0].after_lid
        runtime.run_for(0.15)  # the second wait is longer (backoff)
        assert len([m for m in store.messages if isinstance(m, ReadNewRequest)]) == 2

    def test_ack_after_the_interval_reads_again_at_once(self):
        runtime, sender, store = make_sender()  # replication_interval 0.01
        runtime.run_for(0.011)
        first = store.messages[0]
        sender.on_message("A/store", reply(first.request_id, [0, 1, 2]))
        runtime.run_for(0.0)
        [shipment] = sender_shipments(runtime)
        runtime.run_for(0.014)  # ticks pass: no read while the shipment is out
        assert len(store.messages) == 1
        sender.on_message("B/recv", ShipmentAck("A/store", shipment.ship_seq, 2, from_dc="B"))
        runtime.run_for(0.0)  # no tick in between
        second = store.messages[1]
        assert isinstance(second, ReadNewRequest) and second.after_lid == 2
        sender.on_message("A/store", reply(second.request_id, [3]))
        runtime.run_for(0.0)
        [_, shipment] = sender_shipments(runtime)
        # Acked within the interval: the next read waits for the tick.
        sender.on_message("B/recv", ShipmentAck("A/store", shipment.ship_seq, 3, from_dc="B"))
        runtime.run_for(0.0)
        assert len(store.messages) == 2
        runtime.run_for(0.01)
        assert store.messages[2].after_lid == 3
        sender.on_message("A/store", ReadNewReply(store.messages[2].request_id, [], upto=3))
        runtime.run_for(0.0)
        assert len(store.messages) == 3  # an empty reply waits for the tick

    def test_overlapping_and_late_replies_never_duplicate_entries(self):
        runtime, sender, store = make_sender(retransmit_timeout=0.05)
        runtime.run_for(0.075)  # first fetch timed out and was re-issued
        first, second = [m for m in store.messages if isinstance(m, ReadNewRequest)]
        receiver = runtime.actor("B/recv")
        sender.on_message("A/store", reply(second.request_id, [0, 1, 2]))
        runtime.run_for(0.0)
        assert shipped_lids(receiver) == [0, 1, 2]
        # The reply given up on arrives after all, overlapping and extending.
        sender.on_message("A/store", reply(first.request_id, [0, 1, 2, 3, 4]))
        # A duplicated delivery of either changes nothing.
        sender.on_message("A/store", reply(second.request_id, [0, 1, 2]))
        sender.on_message("A/store", reply(first.request_id, [0, 1, 2, 3, 4]))
        runtime.run_for(0.0)
        assert shipped_lids(receiver) == [0, 1, 2]
        [shipment] = sender_shipments(runtime)
        sender.on_message("B/recv", ShipmentAck("A/store", shipment.ship_seq, 2, from_dc="B"))
        runtime.run_for(0.01)  # the next tick reads
        third = store.messages[-1]
        assert third.after_lid == 2
        sender.on_message("A/store", reply(third.request_id, [3, 4]))
        sender.on_message("A/store", reply(third.request_id, [3, 4]))
        runtime.run_for(0.0)
        assert shipped_lids(receiver) == [0, 1, 2, 3, 4]
        assert stream(sender).acked_upto == 2

    def test_late_reply_does_not_cancel_the_fetch_in_flight(self):
        runtime, sender, store = make_sender(retransmit_timeout=0.05)
        runtime.run_for(0.075)
        first, second = [m for m in store.messages if isinstance(m, ReadNewRequest)]
        sender.on_message("A/store", ReadNewReply(first.request_id, [], upto=-1))
        runtime.run_for(0.03)  # ticks pass; the re-issued fetch is still out
        assert len([m for m in store.messages if isinstance(m, ReadNewRequest)]) == 2

    def test_fetch_is_reissued_when_the_clock_restarted(self):
        # A sender restored into a respawned worker sees a younger clock than
        # the one its in-flight fetch was stamped on.
        runtime, sender, store = make_sender(retransmit_timeout=0.1)
        runtime.run_for(0.011)
        stream(sender).sent_at = runtime.now + 3600.0
        runtime.run_for(0.01)
        assert len([m for m in store.messages if isinstance(m, ReadNewRequest)]) == 2

    def test_direct_sender_asks_for_its_own_records_only(self):
        runtime, sender, store = make_sender()
        runtime.run_for(0.011)
        assert store.messages[0].host == "A"
        sender.transitive = True  # forwards every host: nothing to leave out
        sender.on_message("A/store", ReadNewReply(store.messages[0].request_id, [], upto=0))
        runtime.run_for(0.0)
        assert store.messages[1].host is None

    def test_all_external_tail_moves_the_cursor_and_fetches_again_at_once(self):
        # The store holds only other datacenters' records past the cursor:
        # a filtered reply is empty, but the log moved, so the sender must
        # not fall back to the tick.
        runtime, sender, store = make_sender()
        runtime.run_for(0.011)
        first = store.messages[0]
        sender.on_message("A/store", ReadNewReply(first.request_id, [], upto=7))
        runtime.run_for(0.0)  # no tick in between
        second = store.messages[1]
        assert isinstance(second, ReadNewRequest) and second.after_lid == 7
        assert stream(sender).acked_upto == 7
        assert sender_shipments(runtime) == []

    def test_unfiltered_or_stale_reply_stays_harmless(self):
        # A maintainer that ignores ``host`` (or a reply from before the
        # filter) still only contributes local, non-internal entries.
        runtime, sender, store = make_sender()
        runtime.run_for(0.011)
        first = store.messages[0]
        noop = Record.make("__noop__/A/store", 1, None, internal=True)
        entries = [
            LogEntry(0, rec("A", 1)),
            LogEntry(1, rec("B", 1)),
            LogEntry(2, noop),
            LogEntry(3, rec("A", 2)),
        ]
        sender.on_message("A/store", ReadNewReply(first.request_id, entries, upto=3))
        sender.on_message("A/store", ReadNewReply(first.request_id, entries, upto=3))
        runtime.run_for(0.0)
        [shipment] = sender_shipments(runtime)
        assert ([r.rid for r in shipment.records], shipment.upto_lid) == ([("A", 1), ("A", 2)], 3)

    def test_three_dc_transitive_deployment_is_unchanged(self):
        # Transitive senders ask unfiltered, so a transitive deployment must
        # behave exactly as before the host filter: same logs (hashed in the
        # per-element wire form, spelled out: a list this long is otherwise
        # encoded as a run), same shipments, same message count.  The
        # expected values were recorded on the commit before the filter.
        runtime = LocalRuntime()
        deployment = ChariotsDeployment(runtime, ["A", "B", "C"], batch_size=4, transitive=True)
        runtime.start()
        clients = {dc: deployment.client(dc) for dc in "ABC"}
        for chunk in range(6):
            for i in range(9):
                dc = "ABC"[i % 3]
                clients[dc].append(
                    b"%s-%d-%d" % (dc.encode(), chunk, i), tags={"k": i} if i % 4 == 0 else None
                )
            runtime.run_for(0.03)
        assert deployment.settle(max_seconds=60)
        digest = hashlib.sha256()
        for dc in "ABC":
            entries = deployment[dc].all_entries()
            digest.update(struct.pack(">BI", 0x07, len(entries)))
            digest.update(b"".join(map(encode_value_binary, entries)))
        assert digest.hexdigest() == (
            "7aba778a597d428dd125f3825735832f5cfcdd2191e64fa6d4edf5445cc73c43"
        )
        assert check_logs(deployment.logs()).ok
        for dc in "ABC":
            assert sum(s.records_shipped for s in deployment[dc].senders) == 72
        # Recorded with one read per (peer, maintainer) stream, the
        # Awareness Table gossiped between GC coordinators, and batchers
        # flushing at the end of their turn: externals a 2 ms timer used to
        # merge leave per turn (6 more FilterBatch), and the placements they
        # become post to the indexers in 3 fewer IndexUpdates.  Queues then
        # came to report their frontier at most once per
        # replication_interval: 24 FrontierUpdates where each of the 36
        # sequencing rounds sent one.
        assert runtime.messages_sent == 630

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_replication_converges_when_fetch_traffic_is_dropped_and_duplicated(self, seed):
        plan = (
            FaultPlan(seed=seed)
            .drop(message_type="ReadNewReply", probability=0.3, end=3.0)
            .drop(message_type="ReadNewRequest", probability=0.2, end=3.0)
            .duplicate(message_type="ReadNewReply", probability=0.3, delay=0.03, end=3.0)
            .reorder(message_type="ReadNewReply", delay=0.05, end=3.0)
        )
        runtime = LocalRuntime(chaos=plan)
        deployment = ChariotsDeployment(
            runtime, ["A", "B"], batch_size=4,
            pipeline_config=PipelineConfig(retransmit_base=0.05, retransmit_max=0.4),
        )
        runtime.start()
        clients = [deployment.client(dc) for dc in ("A", "B")]
        acked: List[Any] = []
        cursors: Dict[Any, int] = {}
        for chunk in range(10):
            for i in range(6):
                clients[i % 2].append(f"c{chunk}-{i}", on_done=acked.append)
            runtime.run_for(0.05)
            for dc in ("A", "B"):
                for sender in deployment[dc].senders:
                    for key, stream in sender._streams.items():
                        # A cursor only moves forward.
                        assert stream.acked_upto >= cursors.get((dc, key), -1)
                        cursors[(dc, key)] = stream.acked_upto
        assert deployment.settle(max_seconds=60)
        assert plan.stats["dropped"] > 0 and plan.stats["duplicated"] > 0
        assert len(acked) == 60
        assert check_logs(deployment.logs(), acks=acked).ok
        for dc in ("A", "B"):
            assert deployment[dc].total_records() == 60
            # Fetch faults never turn into duplicate shipments.
            assert sum(f.core.duplicates_dropped for f in deployment[dc].filters) == 0
            assert sum(s.records_shipped for s in deployment[dc].senders) == 30


# --------------------------------------------------------------------------- #
# Message-count regression guard (the ledger's geo-local shape, in small)
# --------------------------------------------------------------------------- #


def test_append_path_sends_a_fraction_of_a_message_per_record():
    runtime = LocalRuntime()
    deployment = ChariotsDeployment(runtime, ["A", "B"], batch_size=1000)
    runtime.start()
    clients = [deployment.client(dc) for dc in ("A", "B")]
    acked: List[Any] = []
    records = 2000
    before = runtime.messages_sent
    for chunk in range(records // 200):
        for i in range(200):
            clients[i % 2].append(b"x" * 64, on_done=acked.append)
        runtime.run_for(0.001)
    while len(acked) < records or not deployment.converged():
        runtime.run_for(0.001)
    assert deployment["A"].total_records() == deployment["B"].total_records() == records
    assert (runtime.messages_sent - before) / records <= 0.25
    shipped = sum(s.records_shipped for dc in ("A", "B") for s in deployment[dc].senders)
    assert shipped / records == 1.0  # ship_ratio: every record shipped exactly once
    assert sum(f.core.duplicates_dropped for dc in ("A", "B") for f in deployment[dc].filters) == 0
