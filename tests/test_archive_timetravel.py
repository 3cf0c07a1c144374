"""Cold storage (repro.flstore.archive) and time travel (repro.apps.timetravel)."""

import os

import pytest

from repro.apps import Checkpointer, Hyksos, LogAuditor
from repro.core import LidOutOfRangeError, LogError, ReadRules, Record
from repro.flstore import ArchiveStore, MaintainerCore, OwnershipPlan, TieredReader
from repro.flstore.store import FLStore
from repro.runtime import LocalRuntime

from conftest import rec


class TestArchiveStore:
    def test_archive_receives_gc_evictions(self):
        plan = OwnershipPlan(["m0"], batch_size=10)
        archive = ArchiveStore()
        core = MaintainerCore("m0", plan, archive=archive)
        core.append([rec("A", t) for t in range(1, 6)])
        core.truncate({"A": 3})
        assert len(archive) == 3
        assert archive.get(0).record.toid == 1

    def test_archive_is_idempotent(self):
        archive = ArchiveStore()
        record = rec("A", 1)
        archive(0, record)
        archive(0, record)
        assert len(archive) == 1

    def test_read_by_rules_and_tag(self):
        archive = ArchiveStore()
        for i in range(6):
            archive(i, rec("A", i + 1, tags={"p": i % 2}))
        entries = archive.read(ReadRules(tag_key="p", tag_value=0, limit=2))
        assert [e.lid for e in entries] == [4, 2]

    def test_missing_lid_raises(self):
        with pytest.raises(LidOutOfRangeError):
            ArchiveStore().get(0)

    def test_lid_range(self):
        archive = ArchiveStore()
        assert archive.lid_range() is None
        archive(3, rec("A", 1))
        archive(7, rec("A", 2))
        assert archive.lid_range() == (3, 7)

    def test_dump_and_load(self, tmp_path):
        archive = ArchiveStore()
        for i in range(4):
            archive(i, rec("A", i + 1, tags={"k": i}))
        path = os.path.join(tmp_path, "archive.jsonl")
        assert archive.dump(path) == 4
        restored = ArchiveStore.load(path)
        assert len(restored) == 4
        assert restored.get(2).record.tag_dict() == {"k": 2}


#: Three lines of the export format exactly as it was first written (when it
#: was also the journal's format): scalar, ``bytes`` and container bodies.
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


class TestDumpFormat:
    def test_golden_lines_load_and_dump_byte_identically(self, tmp_path):
        old = os.path.join(tmp_path, "old.jsonl")
        with open(old, "w", encoding="utf-8") as handle:
            handle.write(GOLDEN_LINES)
        archive = ArchiveStore.load(old)
        assert archive.lid_range() == (10, 12) and len(archive) == 3
        assert [archive.get(lid).record for lid in (10, 11, 12)] == GOLDEN_RECORDS
        new = os.path.join(tmp_path, "new.jsonl")
        assert archive.dump(new) == 3
        with open(new, encoding="utf-8") as handle:
            assert handle.read() == GOLDEN_LINES

    def test_unknown_value_tag_is_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "future.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(
                '{"lid": 0, "record": {"host": "c", "toid": 1, '
                '"body": {"$": "NoSuchType", "v": {}}}}\n'
            )
        with pytest.raises(LogError):
            ArchiveStore.load(path)

    def test_unpersistable_body_is_rejected(self, tmp_path):
        archive = ArchiveStore()
        archive(0, rec("c", 1, body=object()))
        with pytest.raises(LogError):
            archive.dump(os.path.join(tmp_path, "opaque.jsonl"))


class TestTieredReader:
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
        reader = TieredReader(client, archive)
        assert reader.read_lid(results[0].lid).record.body == "b0"  # archived
        assert reader.read_lid(results[5].lid).record.body == "b5"  # live

    def test_combined_rule_reads_cover_history(self):
        runtime, store, archive, client = self.make_world()
        results = [client.append(f"b{i}", tags={"t": 1}) for i in range(6)]
        host = results[0].rid.host
        store.maintainers[0].core.truncate({host: 3})
        reader = TieredReader(client, archive)
        runtime.run_for(0.1)
        entries = reader.read(ReadRules(tag_key="t", most_recent=False))
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
        assert [v.value for v in auditor.history("k")] == [1, 2, 3]

    def test_diff_between_positions(self):
        runtime, client, kv = self.make_kv()
        kv.put("a", 1)          # lid 0
        kv.put("b", 2)          # lid 1
        kv.put("a", 9)          # lid 2
        runtime.run_for(0.1)
        auditor = LogAuditor(client)
        assert auditor.diff(0) == {"a": (1, 9), "b": (None, 2)}

    def test_blame_reports_provenance(self):
        runtime, client, kv = self.make_kv()
        kv.put("k", "v")
        runtime.run_for(0.1)
        version = LogAuditor(client).blame("k")
        assert version is not None
        assert version.value == "v"
        assert version.toid >= 1

    def test_blame_unknown_key(self):
        runtime, client, kv = self.make_kv()
        assert LogAuditor(client).blame("ghost") is None

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
