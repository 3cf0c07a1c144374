"""Durability and crash recovery (repro.flstore.journal)."""

import os
import pickle

import pytest

from repro.core import Record
from repro.core.errors import LogError
from repro.flstore import (
    ArchiveStore,
    FileJournal,
    MaintainerCore,
    MemoryJournal,
    OwnershipPlan,
    recover_maintainer_core,
)

from conftest import chain, rec


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
        lids = [lid for lid, _ in journal.replay()]
        assert lids == [0, 1, 2]

    def test_truncate_compacts(self):
        plan = make_plan()
        journal = MemoryJournal()
        core = MaintainerCore("m0", plan, journal=journal)
        core.append(chain("c", 4))
        assert journal.truncate_below(2) == 2
        assert [lid for lid, _ in journal.replay()] == [2, 3]


class TestCrashRecovery:
    def test_recovered_core_has_identical_state(self):
        plan = make_plan(batch=3)
        journal = MemoryJournal()
        core = MaintainerCore("m0", plan, journal=journal)
        core.append(chain("c", 7))  # crosses a round boundary (0-2, 6-8)
        recovered = recover_maintainer_core("m0", plan, journal.replay())
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
        recovered = recover_maintainer_core("m0", plan, journal.replay())
        after = {r.lid for r in recovered.append(chain("d", 3))}
        assert not (before & after)

    def test_recovery_restores_out_of_order_placements(self):
        plan = make_plan(batch=5)
        journal = MemoryJournal()
        core = MaintainerCore("m0", plan, journal=journal)
        core.place(3, rec("A", 1))  # early arrival, cursor still at 0
        core.place(0, rec("A", 2))
        recovered = recover_maintainer_core("m0", plan, journal.replay())
        assert recovered.next_unassigned == 1
        assert recovered.try_get(3) is not None

    def test_recovery_chains_into_a_new_journal(self):
        plan = make_plan()
        first = MemoryJournal()
        core = MaintainerCore("m0", plan, journal=first)
        core.append(chain("c", 3))
        second = MemoryJournal()
        recovered = recover_maintainer_core(
            "m0", plan, first.replay(), new_journal=second
        )
        assert len(second) == 3  # replayed placements re-journal
        recovered.append(chain("d", 1))
        assert len(second) == 4

    def test_recovered_maintainer_serves_reads(self):
        plan = make_plan()
        journal = MemoryJournal()
        core = MaintainerCore("m0", plan, journal=journal)
        core.append([rec("c", 1, body="survives")])
        recovered = recover_maintainer_core("m0", plan, journal.replay())
        assert recovered.get(0).record.body == "survives"


class TestFileJournal:
    def test_round_trip_through_disk(self, tmp_path):
        path = os.path.join(tmp_path, "m0.journal")
        plan = make_plan()
        journal = FileJournal(path)
        core = MaintainerCore("m0", plan, journal=journal)
        core.append([rec("c", i + 1, body=f"b{i}") for i in range(5)])
        journal.close()

        restored = FileJournal(path)
        recovered = recover_maintainer_core("m0", plan, restored.replay())
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
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"lid": 3, "record": {"host": "c", "to')  # crash mid-write

        restored = FileJournal(path)
        recovered = recover_maintainer_core("m0", plan, restored.replay())
        restored.close()
        assert recovered.stored_count() == 3

    def test_empty_journal_recovers_empty_core(self, tmp_path):
        path = os.path.join(tmp_path, "empty.journal")
        journal = FileJournal(path)
        recovered = recover_maintainer_core("m0", make_plan(), journal.replay())
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
        worker_core = recover_maintainer_core("m0", plan, journal.replay())
        worker_core.set_journal(shipped)
        worker_core.append(chain("d", 3))

        parent_view = FileJournal(path)
        lids = [lid for lid, _ in parent_view.replay()]
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
        recovered = recover_maintainer_core("m0", plan, restored.replay())
        recovered.set_journal(restored)
        survived = [e.lid for e in recovered.stored_entries()]
        recovered.append(batch[5:])  # the client retries the lost tail
        lids = [e.lid for e in recovered.stored_entries()]
        restored.close()
        assert survived == [0, 1, 2, 3, 4]
        assert len(lids) == len(set(lids)) == 8
        assert lids == list(range(lids[0], lids[0] + len(lids)))

    def test_restart_replays_from_the_original_journal_object(self, tmp_path):
        """Reusing the crashed maintainer's own journal for recovery: replay
        with ``new_journal=None`` and attach it afterwards, the discipline
        ``ChariotsDeployment.recover_maintainer`` follows (feeding a journal
        its own replay would loop it back into itself)."""
        path = os.path.join(tmp_path, "reuse.journal")
        plan = make_plan(n=1)
        journal = FileJournal(path)
        core = MaintainerCore("m0", plan, journal=journal)
        core.append(chain("c", 4))

        recovered = recover_maintainer_core("m0", plan, journal.replay())
        recovered.set_journal(journal)
        recovered.append(chain("d", 2))
        lids = [lid for lid, _ in journal.replay()]
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
        recovered = recover_maintainer_core("m0", plan, restored.replay())
        restored.close()
        assert recovered.get(0).record.tag_dict() == {"key": "value"}


def _reopen_fresh(path, _blob):
    return FileJournal(path)


def _reopen_unpickled(_path, blob):
    return pickle.loads(blob)  # what a respawned worker does


@pytest.mark.parametrize("reopen", [_reopen_fresh, _reopen_unpickled])
class TestTornTail:
    """Crash at every write point of an entry: the torn entry (never
    acknowledged) is dropped, and nothing written afterwards is lost."""

    def test_crash_at_every_byte_of_the_last_line(self, tmp_path, reopen):
        path = os.path.join(tmp_path, "sweep.journal")
        journal = FileJournal(path)
        for lid, record in enumerate(chain("c", 3)):
            journal(lid, record)
        blob = pickle.dumps(journal)
        journal.close()
        with open(path, "rb") as handle:
            whole = handle.read()
        last_line = whole.rindex(b"\n", 0, -1) + 1
        later = chain("d", 2)

        # Every prefix of the last line, from nothing to all but its newline.
        for size in range(last_line, len(whole)):
            with open(path, "wb") as handle:
                handle.write(whole[:size])
            reopened = reopen(path, blob)
            reopened(3, later[0])
            reopened(4, later[1])
            replayed = list(reopened.replay())
            reopened.close()
            assert [lid for lid, _ in replayed] == [0, 1, 3, 4], size
            assert [record for _, record in replayed[2:]] == later, size

    def test_torn_line_longer_than_a_scan_block(self, tmp_path, reopen):
        path = os.path.join(tmp_path, "long.journal")
        journal = FileJournal(path)
        journal(0, rec("c", 1))
        journal(1, rec("c", 2, body="x" * 10_000))
        blob = pickle.dumps(journal)
        journal.close()
        os.truncate(path, os.path.getsize(path) - 5)

        reopened = reopen(path, blob)
        reopened(1, rec("c", 2, body="retried"))
        replayed = list(reopened.replay())
        reopened.close()
        assert [(lid, r.body) for lid, r in replayed] == [(0, "c:1"), (1, "retried")]

    def test_file_that_is_one_torn_line_becomes_empty(self, tmp_path, reopen):
        path = os.path.join(tmp_path, "only.journal")
        journal = FileJournal(path)
        journal(0, rec("c", 1, body="x" * 10_000))
        blob = pickle.dumps(journal)
        journal.close()
        os.truncate(path, os.path.getsize(path) - 1)

        reopened = reopen(path, blob)
        assert list(reopened.replay()) == []
        reopened(0, rec("c", 1))
        assert [lid for lid, _ in reopened.replay()] == [0]
        reopened.close()

    def test_intact_file_is_left_alone(self, tmp_path, reopen):
        path = os.path.join(tmp_path, "intact.journal")
        journal = FileJournal(path)
        for lid, record in enumerate(chain("c", 3)):
            journal(lid, record)
        blob = pickle.dumps(journal)
        journal.close()
        with open(path, "rb") as handle:
            before = handle.read()
        reopen(path, blob).close()
        with open(path, "rb") as handle:
            assert handle.read() == before


#: Three lines exactly as the commit before the disk format moved into
#: ``flstore/journal.py`` wrote them (scalar, ``bytes`` and container bodies).
GOLDEN_LINES = (
    '{"lid": 10, "record": {"host": "A", "toid": 1, "body": "scalar", '
    '"tags": [["k", 1]], "deps": [["B", 2]], "internal": false}}\n'
    '{"lid": 11, "record": {"host": "dc-b", "toid": 2, "body": '
    '{"$": "bytes", "v": "AP9ieXRlcw=="}, "tags": [], "deps": [], "internal": false}}\n'
    '{"lid": 12, "record": {"host": "A", "toid": 3, "body": {"$": "d", "v": '
    '[["t", {"$": "t", "v": [1, {"$": "l", "v": [2.5, null]}]}], [3, "int-key"], '
    '["blob", {"$": "bytes", "v": "AQ=="}]]}, "tags": [["when", {"$": "t", "v": [1, 2]}]], '
    '"deps": [["A", 2], ["B", 7]], "internal": true}}\n'
)
GOLDEN_RECORDS = [
    Record.make("A", 1, "scalar", tags={"k": 1}, deps={"B": 2}),
    Record.make("dc-b", 2, b"\x00\xffbytes"),
    Record.make(
        "A",
        3,
        {"t": (1, [2.5, None]), 3: "int-key", "blob": b"\x01"},
        tags={"when": (1, 2)},
        deps={"A": 2, "B": 7},
        internal=True,
    ),
]


class TestDiskFormat:
    def test_golden_lines_replay_and_rewrite_byte_identically(self, tmp_path):
        old = os.path.join(tmp_path, "old.journal")
        with open(old, "w", encoding="utf-8") as handle:
            handle.write(GOLDEN_LINES)
        journal = FileJournal(old)
        replayed = list(journal.replay())
        journal.close()
        assert replayed == [(10, GOLDEN_RECORDS[0]), (11, GOLDEN_RECORDS[1]), (12, GOLDEN_RECORDS[2])]

        new = os.path.join(tmp_path, "new.journal")
        rewritten = FileJournal(new)
        for lid, record in replayed:
            rewritten(lid, record)
        rewritten.close()
        dump = os.path.join(tmp_path, "archive.jsonl")
        assert ArchiveStore.load(old).dump(dump) == 3
        for path in (new, dump):
            with open(path, encoding="utf-8") as handle:
                assert handle.read() == GOLDEN_LINES, path

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
        [(lid, restored)] = list(journal.replay())
        journal.close()
        assert (lid, restored.body, restored.tag_dict()) == (0, body, {"t": (1, b"\x00")})
        assert repr(restored.body) == repr(body)  # tuple/list/bytes, not lookalikes

    def test_unpersistable_body_is_rejected_before_anything_is_written(self, tmp_path):
        path = os.path.join(tmp_path, "opaque.journal")
        journal = FileJournal(path)
        journal(0, rec("c", 1))
        with pytest.raises(LogError):
            journal(1, rec("c", 2, body=object()))
        assert [lid for lid, _ in journal.replay()] == [0]
        journal.close()

    def test_unknown_value_tag_is_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "future.journal")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(
                '{"lid": 0, "record": {"host": "c", "toid": 1, '
                '"body": {"$": "NoSuchType", "v": {}}}}\n'
            )
        journal = FileJournal(path)
        with pytest.raises(LogError):
            list(journal.replay())
        journal.close()
