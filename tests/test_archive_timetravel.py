"""Cold storage (repro.flstore.archive) and time travel (repro.apps.timetravel)."""

import os

import pytest

from repro.apps import Checkpointer, Hyksos, LogAuditor
from repro.cli import main
from repro.core import LogError, ReadRules, Record
from repro.flstore import ArchiveStore, FileJournal, MaintainerCore, OwnershipPlan
from repro.flstore.store import FLStore
from repro.runtime import LocalRuntime

from conftest import archive_read, archived, rec


def reload(path):
    """An archive rebuilt from a dump by the journal's block reader."""
    journal = FileJournal(path)
    restored = ArchiveStore()
    for run in journal.replay_runs():
        restored.append_run(run)
    journal.close()
    return restored


class TestArchiveStore:
    def test_archive_receives_gc_evictions(self):
        plan = OwnershipPlan(["m0"], batch_size=10)
        archive = ArchiveStore()
        core = MaintainerCore("m0", plan, archive=archive)
        core.append([rec("A", t) for t in range(1, 6)])
        core.truncate({"A": 3})
        assert len(archive) == 3
        assert archived(archive)[0].toid == 1

    def test_one_truncation_hands_the_archive_one_run(self):
        class CountingSink:
            def __init__(self):
                self.runs = []

            def append_run(self, placements):
                self.runs.append(list(placements))

        plan = OwnershipPlan(["m0"], batch_size=10)
        sink = CountingSink()
        core = MaintainerCore("m0", plan, archive=sink)
        core.append([rec("A", t) for t in range(1, 6)])
        assert core.truncate({"A": 4}) == 4
        assert [[lid for lid, _ in run] for run in sink.runs] == [[0, 1, 2, 3]]
        assert core.truncate({"A": 4}) == 0
        assert len(sink.runs) == 1  # a sweep that evicts nothing sends nothing

    def test_archive_is_idempotent(self):
        archive = ArchiveStore()
        record = rec("A", 1)
        archive.append_run([(0, record)])
        archive.append_run([(0, record)])
        assert len(archive) == 1

    def test_read_by_rules_and_tag(self):
        archive = ArchiveStore()
        for i in range(6):
            archive.append_run([(i, rec("A", i + 1, tags={"p": i % 2}))])
        entries = archive_read(archive, ReadRules(tag_key="p", tag_value=0, limit=2))
        assert [e.lid for e in entries] == [4, 2]

    def test_missing_lid_raises(self):
        with pytest.raises(KeyError):
            archived(ArchiveStore())[0]

    def test_lid_range(self):
        archive = ArchiveStore()
        assert archive_read(archive, ReadRules()) == []
        archive.append_run([(7, rec("A", 2))])
        archive.append_run([(3, rec("A", 1))])
        assert [e.lid for e in archive_read(archive, ReadRules(most_recent=False))] == [3, 7]

    def test_dump_and_load(self, tmp_path):
        archive = ArchiveStore()
        for i in range(4):
            archive.append_run([(i, rec("A", i + 1, tags={"k": i}))])
        path = os.path.join(tmp_path, "archive.dump")
        assert archive.dump(path) == 4
        restored = reload(path)
        assert len(restored) == 4
        assert archived(restored)[2].tag_dict() == {"k": 2}


#: Records that stress the record serialiser: a scalar body with tags and
#: deps, a ``bytes`` body, and a nested dict / tuple / list body with an int
#: key and a ``bytes`` value, a tuple tag and ``internal=True``.
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


class TestDumpFormat:
    def test_golden_records_round_trip_with_exact_types(self, tmp_path):
        archive = ArchiveStore()
        archive.append_run(list(zip((10, 11, 12), GOLDEN_RECORDS)))
        path = os.path.join(tmp_path, "golden.archive")
        assert archive.dump(path) == 3
        restored = reload(path)
        assert len(restored) == 3
        records = [archived(restored)[lid] for lid in (10, 11, 12)]
        assert records == GOLDEN_RECORDS
        assert [repr(r) for r in records] == [repr(r) for r in GOLDEN_RECORDS]

    def test_dump_is_one_journal_block(self, tmp_path, capsys):
        archive = ArchiveStore()
        archive.append_run(list(zip((10, 11, 12), GOLDEN_RECORDS)))
        path = os.path.join(tmp_path, "golden.archive")
        archive.dump(path)
        journal = FileJournal(path)
        assert list(journal.replay_runs()) == [list(zip((10, 11, 12), GOLDEN_RECORDS))]
        journal.close()
        assert main(["inspect-journal", path, "-v"]) == 0
        out = capsys.readouterr().out
        assert "3 placements" in out and "blocks: 1 (" in out
        assert "[12] <A,3> tags={'when': (1, 2)}" in out

    def test_unpersistable_body_is_rejected(self, tmp_path):
        archive = ArchiveStore()
        archive.append_run([(0, rec("c", 1, body=object()))])
        with pytest.raises(LogError):
            archive.dump(os.path.join(tmp_path, "opaque.archive"))


class TestTieredReader:
    """Reads by hand across the tiers: the live log, then the archive."""

    def make_world(self):
        runtime = LocalRuntime()
        store = FLStore(runtime, n_maintainers=1, n_indexers=0, batch_size=100)
        archive = ArchiveStore()
        store.maintainers[0].core._archive = archive
        client = store.blocking_client()
        return runtime, store, archive, client

    def test_fallback_to_archive(self):
        runtime, store, archive, client = self.make_world()
        results = [client.append(f"b{i}", tags={"host": "x"}) for i in range(6)]
        # GC the first three records (everything from the client stream).
        host = results[0].rid.host
        store.maintainers[0].core.truncate({host: 3})
        assert client.read_lid(results[0].lid).entries == []  # collected
        assert archived(archive)[results[0].lid].body == "b0"
        assert client.read_lid(results[5].lid).entries[0].record.body == "b5"

    def test_combined_rule_reads_cover_history(self):
        runtime, store, archive, client = self.make_world()
        results = [client.append(f"b{i}", tags={"t": 1}) for i in range(6)]
        host = results[0].rid.host
        store.maintainers[0].core.truncate({host: 3})
        runtime.run_for(0.1)
        rules = ReadRules(tag_key="t", most_recent=False)
        entries = rules.merge_scan(client.read(rules) + archive_read(archive, rules))
        assert [e.record.body for e in entries] == [f"b{i}" for i in range(6)]


class TestLogAuditor:
    def make_kv(self):
        runtime = LocalRuntime()
        store = FLStore(runtime, n_maintainers=1, n_indexers=1, batch_size=100)
        client = store.blocking_client()
        kv = Hyksos(client)
        return runtime, client, kv

    def test_state_at_reconstructs_history(self):
        runtime, client, kv = self.make_kv()
        kv.put("x", 1)          # lid 0
        kv.put("y", 2)          # lid 1
        kv.put("x", 3)          # lid 2
        runtime.run_for(0.1)
        auditor = LogAuditor(client)
        assert auditor.state_at(0) == {"x": 1}
        assert auditor.state_at(1) == {"x": 1, "y": 2}
        assert auditor.state_at() == {"x": 3, "y": 2}

    def test_history_lists_all_versions(self):
        runtime, client, kv = self.make_kv()
        for value in (1, 2, 3):
            kv.put("k", value)
        runtime.run_for(0.1)
        auditor = LogAuditor(client)
        assert [auditor.state_at(lid)["k"] for lid in (0, 1, 2)] == [1, 2, 3]

    def test_diff_between_positions(self):
        runtime, client, kv = self.make_kv()
        kv.put("a", 1)          # lid 0
        kv.put("b", 2)          # lid 1
        kv.put("a", 9)          # lid 2
        runtime.run_for(0.1)
        auditor = LogAuditor(client)
        assert auditor.state_at(0) == {"a": 1}
        assert auditor.state_at() == {"a": 9, "b": 2}

    def test_blame_reports_provenance(self):
        runtime, client, kv = self.make_kv()
        kv.put("k", "v")
        runtime.run_for(0.1)
        version = kv.get_version("k")
        assert version.value == "v"
        assert (version.lid, version.toid) == (0, 1)

    def test_blame_unknown_key(self):
        runtime, client, kv = self.make_kv()
        assert kv.get_version("ghost") is None
        assert "ghost" not in LogAuditor(client).state_at()

    def test_multi_key_record_audits_every_key(self):
        runtime, client, kv = self.make_kv()
        kv.put_many({"x": 1, "y": 2})
        runtime.run_for(0.1)
        auditor = LogAuditor(client)
        assert auditor.state_at() == {"x": 1, "y": 2}


class TestCheckpointer:
    def make_kv(self):
        runtime = LocalRuntime()
        store = FLStore(runtime, n_maintainers=1, n_indexers=1, batch_size=100)
        client = store.blocking_client()
        return runtime, client, Hyksos(client)

    def test_checkpoint_pins_head(self):
        runtime, client, kv = self.make_kv()
        kv.put("x", 1)
        runtime.run_for(0.1)
        checkpointer = Checkpointer(client)
        checkpoint = checkpointer.take()
        assert checkpoint.state == {"x": 1}
        assert checkpoint.upto_lid >= 0

    def test_state_replays_from_nearest_checkpoint(self):
        runtime, client, kv = self.make_kv()
        kv.put("x", 1)
        runtime.run_for(0.1)
        checkpointer = Checkpointer(client)
        checkpointer.take()
        kv.put("x", 2)          # after the checkpoint
        kv.put("y", 3)
        runtime.run_for(0.1)
        head = client.head()
        assert checkpointer.state_at(head) == {"x": 2, "y": 3}

    def test_latest_before(self):
        runtime, client, kv = self.make_kv()
        kv.put("x", 1)
        runtime.run_for(0.1)
        checkpointer = Checkpointer(client)
        first = checkpointer.take()
        kv.put("x", 2)
        runtime.run_for(0.1)
        second = checkpointer.take()
        assert checkpointer.latest_before(first.upto_lid) is first
        assert checkpointer.latest_before(second.upto_lid) is second
