"""Durability and crash recovery (repro.flstore.journal)."""

import os
import pickle
import random
import struct
import zlib

import pytest

from repro.chariots import ChariotsDeployment, check_logs
from repro.core import Record
from repro.core.errors import LogError
from repro.core.record import ReadRules, RecordId
from repro.flstore import (
    FileJournal,
    MaintainerCore,
    MemoryJournal,
    OwnershipPlan,
    recover_maintainer_core,
)
from repro.flstore.messages import PlaceRecords
from repro.net.binary_codec import encode_value_binary
from repro.runtime.local import LocalRuntime

from conftest import chain, python_calls, rec, replayed


def make_plan(n=2, batch=5):
    return OwnershipPlan([f"m{i}" for i in range(n)], batch_size=batch)


class TestMemoryJournal:
    def test_records_every_placement(self):
        plan = make_plan()
        journal = MemoryJournal()
        core = MaintainerCore("m0", plan, journal=journal)
        core.append(chain("c", 4))
        assert len(journal) == 4

    def test_replay_order_matches_placement_order(self):
        plan = make_plan()
        journal = MemoryJournal()
        core = MaintainerCore("m0", plan, journal=journal)
        core.append(chain("c", 3))
        lids = [lid for lid, _ in replayed(journal)]
        assert lids == [0, 1, 2]


class TestCrashRecovery:
    def test_recovered_core_has_identical_state(self):
        plan = make_plan(batch=3)
        journal = MemoryJournal()
        core = MaintainerCore("m0", plan, journal=journal)
        core.append(chain("c", 7))  # crosses a round boundary (0-2, 6-8)
        recovered = recover_maintainer_core("m0", plan, journal.replay_runs())
        assert recovered.stored_count() == core.stored_count()
        assert recovered.next_unassigned == core.next_unassigned
        assert [e.lid for e in recovered.stored_entries()] == [
            e.lid for e in core.stored_entries()
        ]

    def test_recovered_core_resumes_without_reusing_lids(self):
        plan = make_plan(batch=3)
        journal = MemoryJournal()
        core = MaintainerCore("m0", plan, journal=journal)
        before = {r.lid for r in core.append(chain("c", 5))}
        recovered = recover_maintainer_core("m0", plan, journal.replay_runs())
        after = {r.lid for r in recovered.append(chain("d", 3))}
        assert not (before & after)

    def test_recovery_restores_out_of_order_placements(self):
        plan = make_plan(batch=5)
        journal = MemoryJournal()
        core = MaintainerCore("m0", plan, journal=journal)
        core.place(3, rec("A", 1))  # early arrival, cursor still at 0
        core.place(0, rec("A", 2))
        recovered = recover_maintainer_core("m0", plan, journal.replay_runs())
        assert recovered.next_unassigned == 1
        assert recovered.try_get(3) is not None

    def test_recovered_maintainer_serves_reads(self):
        plan = make_plan()
        journal = MemoryJournal()
        core = MaintainerCore("m0", plan, journal=journal)
        core.append([rec("c", 1, body="survives")])
        recovered = recover_maintainer_core("m0", plan, journal.replay_runs())
        assert recovered.get(0).record.body == "survives"


class TestSupervisedRestartKeepsTheIndexExact:
    """A maintainer rebuilt from its journal re-queues every posting it ever
    made, and pushes them to the indexer again.  The indexer must absorb
    the repeats: a lookup that names an LId twice leaves a reader waiting
    for a second, distinct entry that never comes."""

    def test_postings_and_tag_reads_survive_a_maintainer_restart(self):
        runtime = LocalRuntime()
        deployment = ChariotsDeployment(runtime, ["A", "B"], batch_size=4)
        supervisor = deployment.supervise()
        client = deployment.blocking_client("A")
        for i in range(20):
            client.append(b"r%d" % i, tags={"k": i % 2})
        assert deployment.settle()
        indexer = deployment["A"].indexers[0].core
        assert indexer.postings_stored == 20

        runtime.crash("A/store/0")
        assert deployment.settle()
        assert supervisor.restarts["A/store/0"] == 1
        assert indexer.postings_stored == 20
        assert indexer.lookup("k", tag_value=0, limit=5) == [18, 16, 14, 12, 10]

        read: list = []
        client.client.read_rules(ReadRules(tag_key="k", tag_value=0, limit=5), read.append)
        runtime.run_until(lambda: bool(read), timeout=5.0)
        assert [entry.lid for entry in read[0]] == [18, 16, 14, 12, 10]


class TestFileJournal:
    def test_round_trip_through_disk(self, tmp_path):
        path = os.path.join(tmp_path, "m0.journal")
        plan = make_plan()
        journal = FileJournal(path)
        core = MaintainerCore("m0", plan, journal=journal)
        core.append([rec("c", i + 1, body=f"b{i}") for i in range(5)])
        journal.close()

        restored = FileJournal(path)
        recovered = recover_maintainer_core("m0", plan, restored.replay_runs())
        restored.close()
        assert recovered.stored_count() == 5
        assert recovered.get(0).record.body == "b0"

    def test_torn_tail_is_skipped(self, tmp_path):
        path = os.path.join(tmp_path, "torn.journal")
        plan = make_plan()
        journal = FileJournal(path)
        core = MaintainerCore("m0", plan, journal=journal)
        core.append(chain("c", 3))
        journal.close()
        with open(path, "ab") as handle:
            handle.write(block_of([(3, rec("c", 4))])[:-7])  # crash mid-write

        restored = FileJournal(path)
        recovered = recover_maintainer_core("m0", plan, restored.replay_runs())
        restored.close()
        assert recovered.stored_count() == 3

    def test_empty_journal_recovers_empty_core(self, tmp_path):
        path = os.path.join(tmp_path, "empty.journal")
        journal = FileJournal(path)
        recovered = recover_maintainer_core("m0", make_plan(), journal.replay_runs())
        journal.close()
        assert recovered.stored_count() == 0
        assert recovered.next_unassigned == 0

    def test_pickle_round_trip_keeps_writing_to_the_same_file(self, tmp_path):
        """The supervision contract: a FileJournal shipped to a worker
        process (pickled) reopens its file in append mode, and the parent's
        replay of that same path sees every worker-side write — each entry
        is flushed as it lands."""
        path = os.path.join(tmp_path, "shipped.journal")
        plan = make_plan()
        journal = FileJournal(path)
        core = MaintainerCore("m0", plan, journal=journal)
        core.append(chain("c", 2))

        shipped = pickle.loads(pickle.dumps(journal))  # the worker's copy
        worker_core = recover_maintainer_core("m0", plan, journal.replay_runs())
        worker_core.set_journal(shipped)
        worker_core.append(chain("d", 3))

        parent_view = FileJournal(path)
        lids = [lid for lid, _ in replayed(parent_view)]
        parent_view.close()
        shipped.close()
        journal.close()
        assert lids == [0, 1, 2, 3, 4]

    def test_crash_after_partial_bulk_append_loses_and_duplicates_nothing(
        self, tmp_path
    ):
        """Crash mid-bulk: some placements of a batch hit the journal, the
        rest die with the process.  Recovery must keep every journaled LId
        exactly once and resume assignment past them — re-appending the
        batch's tail produces a dense, duplicate-free sequence."""
        path = os.path.join(tmp_path, "partial.journal")
        plan = make_plan(n=1, batch=5)  # sole owner: its LIds are dense
        journal = FileJournal(path)
        core = MaintainerCore("m0", plan, journal=journal)
        batch = chain("c", 8)
        core.append(batch[:5])  # the bulk append "crashes" after 5 of 8
        journal.close()  # SIGKILL: nothing after this line survived

        restored = FileJournal(path)
        recovered = recover_maintainer_core("m0", plan, restored.replay_runs())
        recovered.set_journal(restored)
        survived = [e.lid for e in recovered.stored_entries()]
        recovered.append(batch[5:])  # the client retries the lost tail
        entries = recovered.stored_entries()
        restored.close()
        assert survived == [0, 1, 2, 3, 4]
        assert check_logs({"m0": entries}).ok and len(entries) == 8

    def test_restart_replays_from_the_original_journal_object(self, tmp_path):
        """Reusing the crashed maintainer's own journal for recovery: replay
        into a journal-less core and attach it afterwards, the discipline
        ``FLStore.recover_maintainer`` follows (feeding a journal its own
        replay would loop it back into itself)."""
        path = os.path.join(tmp_path, "reuse.journal")
        plan = make_plan(n=1)
        journal = FileJournal(path)
        core = MaintainerCore("m0", plan, journal=journal)
        core.append(chain("c", 4))

        recovered = recover_maintainer_core("m0", plan, journal.replay_runs())
        recovered.set_journal(journal)
        recovered.append(chain("d", 2))
        lids = [lid for lid, _ in replayed(journal)]
        journal.close()
        assert lids == [0, 1, 2, 3, 4, 5]
        assert len(lids) == len(set(lids))

    def test_tags_survive_the_disk_round_trip(self, tmp_path):
        path = os.path.join(tmp_path, "tags.journal")
        plan = make_plan()
        journal = FileJournal(path)
        core = MaintainerCore("m0", plan, journal=journal)
        core.append([rec("c", 1, tags={"key": "value"})])
        journal.close()
        restored = FileJournal(path)
        recovered = recover_maintainer_core("m0", plan, restored.replay_runs())
        restored.close()
        assert recovered.get(0).record.tag_dict() == {"key": "value"}


def block_of(placements):
    """The bytes one ``append_run(placements)`` puts on disk."""
    payload = encode_value_binary(placements)
    return struct.pack(">II", len(payload), zlib.crc32(payload)) + payload


def block_offsets(whole):
    """Where each block of a sound journal image starts (and the end)."""
    offsets = [0]
    while offsets[-1] < len(whole):
        (length,) = struct.unpack_from(">I", whole, offsets[-1])
        offsets.append(offsets[-1] + 8 + length)
    assert offsets[-1] == len(whole)
    return offsets


def damage(path, offset):
    """Flip one bit of the byte at ``offset``."""
    with open(path, "rb+") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0x01]))


def read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


def _reopen_fresh(path, _blob):
    return FileJournal(path)


def _reopen_unpickled(_path, blob):
    return pickle.loads(blob)  # what a respawned worker does


@pytest.mark.parametrize("reopen", [_reopen_fresh, _reopen_unpickled])
class TestTornTail:
    """Crash at every write point of a block: the torn block (its turn was
    never committed) is dropped, and nothing written afterwards is lost."""

    def test_crash_at_every_byte_of_the_last_block(self, tmp_path, reopen):
        later = chain("d", 2)
        # A one-pair, a per-element and a columnar last block.
        for last in (1, 3, 11):
            path = os.path.join(tmp_path, f"sweep-{last}.journal")
            journal = FileJournal(path)
            journal(0, rec("c", 1))
            journal.append_run([(1, rec("c", 2)), (2, rec("c", 3, tags={"k": 1}))])
            journal.append_run([(10 + i, rec("c", 10 + i)) for i in range(last)])
            blob = pickle.dumps(journal)
            journal.close()
            whole = read_bytes(path)
            *_, last_block, end = block_offsets(whole)

            # Every prefix of the last block, from nothing to all but its last byte.
            for size in range(last_block, end):
                with open(path, "wb") as handle:
                    handle.write(whole[:size])
                reopened = reopen(path, blob)
                assert os.path.getsize(path) == last_block, (last, size)  # cut at open
                reopened(3, later[0])
                reopened.append_run([(4, later[1])])
                pairs = list(replayed(reopened))
                reopened.close()
                assert [lid for lid, _ in pairs] == [0, 1, 2, 3, 4], (last, size)
                assert [record for _, record in pairs[3:]] == later, (last, size)

    def test_last_block_with_a_flipped_bit_is_a_torn_tail(self, tmp_path, reopen):
        path = os.path.join(tmp_path, "flipped.journal")
        journal = FileJournal(path)
        journal(0, rec("c", 1))
        journal.append_run([(1, rec("c", 2)), (2, rec("c", 3))])
        blob = pickle.dumps(journal)
        damage(path, os.path.getsize(path) - 3)
        assert [lid for lid, _ in replayed(journal)] == [0]  # replay skips it
        journal.close()

        reopened = reopen(path, blob)  # opening cuts it
        reopened(1, rec("c", 2, body="retried"))
        assert [(lid, r.body) for lid, r in replayed(reopened)] == [(0, "c:1"), (1, "retried")]
        reopened.close()

    def test_large_torn_block_is_cut(self, tmp_path, reopen):
        path = os.path.join(tmp_path, "long.journal")
        journal = FileJournal(path)
        journal(0, rec("c", 1))
        journal(1, rec("c", 2, body="x" * 100_000))
        blob = pickle.dumps(journal)
        journal.close()
        os.truncate(path, os.path.getsize(path) - 5)

        reopened = reopen(path, blob)
        reopened(1, rec("c", 2, body="retried"))
        pairs = list(replayed(reopened))
        reopened.close()
        assert [(lid, r.body) for lid, r in pairs] == [(0, "c:1"), (1, "retried")]

    def test_file_that_is_one_torn_block_becomes_empty(self, tmp_path, reopen):
        path = os.path.join(tmp_path, "only.journal")
        journal = FileJournal(path)
        journal(0, rec("c", 1, body="x" * 10_000))
        blob = pickle.dumps(journal)
        journal.close()
        os.truncate(path, os.path.getsize(path) - 1)

        reopened = reopen(path, blob)
        assert os.path.getsize(path) == 0
        assert list(replayed(reopened)) == []
        reopened(0, rec("c", 1))
        assert [lid for lid, _ in replayed(reopened)] == [0]
        reopened.close()

    def test_intact_file_is_left_alone(self, tmp_path, reopen):
        path = os.path.join(tmp_path, "intact.journal")
        journal = FileJournal(path)
        for lid, record in enumerate(chain("c", 3)):
            journal(lid, record)
        blob = pickle.dumps(journal)
        journal.close()
        before = read_bytes(path)
        reopen(path, blob).close()
        assert read_bytes(path) == before


class TestMidFileDamage:
    """A bad block with anything behind it is damage, never a torn tail:
    acknowledged entries behind it must not silently disappear."""

    def three_blocks(self, tmp_path):
        path = os.path.join(tmp_path, "damaged.journal")
        journal = FileJournal(path)
        journal(0, rec("c", 1))
        journal.append_run([(1, rec("c", 2)), (2, rec("c", 3))])
        journal(3, rec("c", 4))
        journal.close()
        return path, block_offsets(read_bytes(path))

    def test_replay_raises_naming_the_file_and_offset(self, tmp_path):
        path, (_first, second, third, _end) = self.three_blocks(tmp_path)
        damage(path, third - 1)  # the last payload byte of the middle block
        before = read_bytes(path)

        journal = FileJournal(path)  # opening checks the last block only
        replay = replayed(journal)
        assert next(replay)[0] == 0  # what precedes the damage still replays
        with pytest.raises(LogError, match=rf"damaged\.journal.*offset {second}\b"):
            list(replay)
        journal.close()
        assert read_bytes(path) == before  # and nothing was cut

    def test_open_raises_when_the_bad_block_is_followed_by_a_torn_one(self, tmp_path):
        path, (_first, second, third, end) = self.three_blocks(tmp_path)
        os.truncate(path, end - 2)  # the crash tore the third block
        damage(path, third - 1)  # and the second is damaged
        before = read_bytes(path)
        with pytest.raises(LogError, match=rf"damaged\.journal.*offset {second}\b"):
            FileJournal(path)
        assert read_bytes(path) == before

    def test_open_raises_when_a_damaged_length_derails_the_header_walk(self, tmp_path):
        path, (_first, second, _third, _end) = self.three_blocks(tmp_path)
        damage(path, second + 3)  # low byte of the middle block's length
        before = read_bytes(path)
        with pytest.raises(LogError, match=rf"offset {second}\b"):
            FileJournal(path)
        assert read_bytes(path) == before


#: One two-pair block exactly as this format first wrote it: ``u32 length |
#: u32 crc32``, then the per-element placement list (a tagged record with
#: deps and a ``bytes`` body, an internal record with a ``None`` body).
GOLDEN_PAIRS = [
    (10, Record.make("A", 1, b"\x00\xffbytes", tags={"k": 1}, deps={"B": 2})),
    (12, Record.make("dc-b", 2, None, internal=True)),
]
GOLDEN_BLOCK = bytes.fromhex(
    "00000060f69be9e30700000002080000000203000000000000000a1001410000"
    "00000000000100060700ff62797465730105016b030000000000000001010142"
    "0000000000000002080000000203000000000000000c100464632d6200000000"
    "0000000201000000"
)


class TestDiskFormat:
    def test_golden_block_replays_and_rewrites_byte_identically(self, tmp_path):
        old = os.path.join(tmp_path, "old.journal")
        with open(old, "wb") as handle:
            handle.write(GOLDEN_BLOCK)
        journal = FileJournal(old)
        assert list(journal.replay_runs()) == [GOLDEN_PAIRS]
        journal.close()

        new = os.path.join(tmp_path, "new.journal")
        rewritten = FileJournal(new)
        rewritten.append_run(GOLDEN_PAIRS)
        rewritten.close()
        assert read_bytes(new) == GOLDEN_BLOCK
        length, crc = struct.unpack_from(">II", GOLDEN_BLOCK)
        assert (length, crc) == (len(GOLDEN_BLOCK) - 8, zlib.crc32(GOLDEN_BLOCK[8:]))

    def test_a_long_run_is_the_columnar_run_of_the_wire(self, tmp_path):
        path = os.path.join(tmp_path, "run.journal")
        pairs = [(100 + i, rec("A", i + 1, body=b"b%d" % i)) for i in range(9)]
        journal = FileJournal(path)
        journal.append_run(pairs)
        journal.close()
        payload = read_bytes(path)[8:]
        assert payload[:2] == b"\x16\x01"
        assert encode_value_binary(PlaceRecords(pairs)).endswith(payload)

    @pytest.mark.parametrize(
        "body",
        [
            bytes(range(256)),
            {"a": (1, [2, {"b": b"\x00"}]), 3: "int-key"},
            [(), [], {}, None, True, 2**72, -1.5, "é"],
        ],
        ids=["bytes", "nested-containers", "scalars-and-empties"],
    )
    def test_body_round_trips_with_exact_types(self, tmp_path, body):
        path = os.path.join(tmp_path, "types.journal")
        journal = FileJournal(path)
        journal(0, rec("c", 1, body=body, tags={"t": (1, b"\x00")}))
        [(lid, restored)] = list(replayed(journal))
        journal.close()
        assert (lid, restored.body, restored.tag_dict()) == (0, body, {"t": (1, b"\x00")})
        assert repr(restored.body) == repr(body)  # tuple/list/bytes, not lookalikes

    def test_unpersistable_body_is_rejected_before_anything_is_written(self, tmp_path):
        path = os.path.join(tmp_path, "opaque.journal")
        journal = FileJournal(path)
        journal(0, rec("c", 1))
        with pytest.raises(LogError):
            journal(1, rec("c", 2, body=object()))
        with pytest.raises(LogError):
            journal.append_run([(i, rec("c", i + 1, body=object())) for i in range(1, 12)])
        assert [lid for lid, _ in replayed(journal)] == [0]
        journal.close()

    def test_unknown_value_tag_is_rejected(self, tmp_path):
        """A block that passes its checksum but does not decode (some other
        program wrote it) is an error wherever it sits, never a torn tail."""
        path = os.path.join(tmp_path, "future.journal")
        payload = b"\x07\x00\x00\x00\x01\x7e"  # a one-element list of value tag 0x7e
        foreign = struct.pack(">II", len(payload), zlib.crc32(payload)) + payload
        for image in (foreign, block_of([(0, rec("c", 1))]) + foreign + block_of([(1, rec("c", 2))])):
            with open(path, "wb") as handle:
                handle.write(image)
            journal = FileJournal(path)
            with pytest.raises(LogError, match="does not decode"):
                list(replayed(journal))
            journal.close()
            assert read_bytes(path) == image


def random_record(rng, toid):
    body = rng.choice(
        [b"", bytes([toid % 256]) * rng.randrange(1, 40), "text-é", None, ("t", toid),
         {"k": [1, (2, None)]}, toid, 2.5]
    )
    tags = {"k": rng.randrange(5), "who": f"u{toid}"} if rng.random() < 0.3 else None
    deps = {"B": rng.randrange(1, 50)} if rng.random() < 0.5 else None
    return Record.make(
        rng.choice(["A", "dc-b"]), toid, body, tags=tags, deps=deps,
        internal=rng.random() < 0.05,
    )


@pytest.mark.parametrize("seed", range(25))
def test_random_placement_sequences_replay_in_order(tmp_path, seed):
    """Whatever mix of ``journal(lid, record)`` and ``append_run`` wrote it
    (runs shorter and longer than the columnar crossover, tagged or not,
    deps, odd bodies, internal records), replay returns the input."""
    rng = random.Random(seed)
    path = os.path.join(tmp_path, "random.journal")
    journal = FileJournal(path)
    written, runs, lid = [], [], 0
    for _ in range(rng.randrange(1, 12)):
        run = []
        for _ in range(rng.choice([1, 1, 2, 7, 8, 9, 40])):
            lid += rng.randrange(1, 4)
            run.append((lid, random_record(rng, len(written) + len(run) + 1)))
        if len(run) == 1 and rng.random() < 0.5:
            journal(*run[0])
        else:
            journal.append_run(run)
        runs.append(run)
        written.extend(run)
    assert list(replayed(journal)) == written
    assert list(journal.replay_runs()) == runs
    journal.close()
    reopened = pickle.loads(pickle.dumps(journal))
    pairs = list(replayed(reopened))
    reopened.close()
    assert pairs == written
    assert [type(r.body) for _, r in pairs] == [type(r.body) for _, r in written]


class CountingFile:
    """The journal's file object, counting what reaches it."""

    def __init__(self, inner):
        self.inner, self.writes, self.flushes = inner, 0, 0

    def write(self, data):
        self.writes += 1
        return self.inner.write(data)

    def flush(self):
        self.flushes += 1
        self.inner.flush()

    def __getattr__(self, name):
        return getattr(self.inner, name)


class TestBlockCost:
    """Exact, host-independent guards: file operations per run, and
    Python-level calls per record while the block is encoded."""

    def ledger_shaped(self, n):
        deps = (("B", 41),)
        return [
            (100 + i, Record(RecordId("A", i + 1), bytes([i % 251]) * 512,
                             (("k", i % 50),) if i % 5 == 0 else (), deps))
            for i in range(n)
        ]

    def test_a_place_run_is_one_write_and_one_flush(self, tmp_path):
        journal = FileJournal(os.path.join(tmp_path, "cost.journal"))
        counter = journal._file = CountingFile(journal._file)
        core = MaintainerCore("m0", OwnershipPlan(["m0"], batch_size=1000), journal=journal)
        core.place_run(self.ledger_shaped(200))
        assert (counter.writes, counter.flushes) == (1, 1)
        core.append(chain("c", 50))
        assert (counter.writes, counter.flushes) == (2, 2)
        core.place_run(self.ledger_shaped(200))  # retransmitted: nothing new
        assert (counter.writes, counter.flushes) == (2, 2)
        assert len(list(replayed(journal))) == 250
        journal.close()

    def test_a_block_costs_at_most_one_call_per_record(self, tmp_path):
        journal = FileJournal(os.path.join(tmp_path, "calls.journal"))
        pairs = self.ledger_shaped(256)
        assert python_calls(journal.append_run, pairs) / 256 <= 1.0
        journal.close()
