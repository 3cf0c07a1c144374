"""Integration tests for a full FLStore deployment (§5)."""

import pytest

from repro.chariots.elasticity import expand_maintainers
from repro.core import ReadRules
from repro.flstore import FLStore
from repro.runtime import LocalRuntime
from repro.sim import SimRuntime


@pytest.fixture
def deployment():
    runtime = LocalRuntime()
    store = FLStore(runtime, n_maintainers=3, n_indexers=2, batch_size=10)
    return runtime, store


class TestAppendRead:
    def test_round_trip(self, deployment):
        runtime, store = deployment
        client = store.blocking_client()
        result = client.append("hello", tags={"topic": "x"})
        assert client.read_lid(result.lid).entries[0].record.body == "hello"

    def test_lids_are_unique_across_maintainers(self, deployment):
        runtime, store = deployment
        clients = [store.blocking_client() for _ in range(3)]
        lids = [c.append(f"b{i}").lid for i in range(10) for c in clients]
        assert len(set(lids)) == len(lids)

    def test_all_records_stored_exactly_once(self, deployment):
        runtime, store = deployment
        client = store.blocking_client()
        for i in range(25):
            client.append(f"b{i}")
        assert store.total_records() == 25

    def test_batch_append(self, deployment):
        runtime, store = deployment
        client = store.blocking_client()
        records = [client.client.make_record(f"b{i}") for i in range(5)]
        results = client.append_records(records)
        assert len(results) == 5
        assert [r.rid for r in results] == [rec.rid for rec in records]


class TestHeadOfLog:
    def test_head_advances_after_gossip(self, deployment):
        runtime, store = deployment
        client = store.blocking_client()
        for i in range(25):
            client.append(f"b{i}")
        runtime.run_for(0.1)  # several gossip rounds
        head = client.head()
        assert head >= 0
        # §5.4 invariant: every position at or below HL is readable.
        for lid in range(head + 1):
            assert client.read_lid(lid).error is None

    def test_head_is_conservative_before_gossip(self, deployment):
        runtime, store = deployment
        client = store.blocking_client()
        client.append("only")
        # Without a gossip round other maintainers are presumed empty.
        assert client.head() <= 0


class TestIndexedReads:
    def test_read_by_tag_via_indexers(self, deployment):
        runtime, store = deployment
        client = store.blocking_client()
        for i in range(12):
            client.append(f"b{i}", tags={"parity": i % 2})
        runtime.run_for(0.1)  # flush postings to indexers
        entries = client.read(ReadRules(tag_key="parity", tag_value=1, limit=3))
        assert len(entries) == 3
        assert all(e.record.tag_dict()["parity"] == 1 for e in entries)

    def test_scatter_gather_scan_without_tag(self, deployment):
        runtime, store = deployment
        client = store.blocking_client()
        for i in range(9):
            client.append(f"b{i}")
        entries = client.read(ReadRules(limit=4))
        assert len(entries) == 4
        lids = [e.lid for e in entries]
        assert lids == sorted(lids, reverse=True)


class TestExplicitOrder:
    def test_min_lid_enforced_across_maintainers(self, deployment):
        runtime, store = deployment
        client = store.blocking_client()
        first = client.append("first")
        second = client.append("second", min_lid=first.lid)
        assert second.lid > first.lid


class TestControllerSession:
    def test_session_reports_topology(self, deployment):
        runtime, store = deployment
        client = store.client()
        runtime.run_until(lambda: client._session is not None)
        assert len(client._session.maintainers) == 3
        assert len(client._session.indexers) == 2
        assert client._session.batch_size == 10

    def test_clients_start_on_different_maintainers(self, deployment):
        runtime, store = deployment
        c1 = store.blocking_client()
        c2 = store.blocking_client()
        l1 = c1.append("a").lid
        l2 = c2.append("b").lid
        assert store.plan.owner(l1) != store.plan.owner(l2)


class TestFLStoreElasticity:
    def test_expand_maintainers_on_live_store(self, deployment):
        runtime, store = deployment
        client = store.blocking_client()
        for i in range(20):
            client.append(f"pre{i}")
        added = expand_maintainers(store, 1)
        assert len(store.maintainers) == 4
        # New appends eventually reach the new maintainer's ranges.
        client2 = store.blocking_client()
        for i in range(200):
            client2.append(f"post{i}")
        runtime.run_for(0.2)
        assert store.total_records() == 220
        assert added[0].core.stored_count() >= 0  # participates without error

    def test_old_records_remain_readable_after_expansion(self, deployment):
        runtime, store = deployment
        client = store.blocking_client()
        results = [client.append(f"pre{i}") for i in range(15)]
        expand_maintainers(store, 1)
        for result in results:
            assert client.read_lid(result.lid).entries[0].record.body.startswith("pre")

    def test_newcomers_report_load_to_the_controller(self, deployment):
        runtime, store = deployment
        added = expand_maintainers(store, 1)
        client = store.blocking_client()
        for i in range(40):
            client.append(f"post{i}")
        runtime.run_for(0.1)
        assert added[0].core.stored_count() > 0
        assert store.controller.core.approx_records() == store.total_records() == 40

    def test_newcomers_go_where_the_store_places_its_maintainers(self):
        runtime = SimRuntime()
        store = FLStore(
            runtime, n_maintainers=2, n_indexers=0, placer=runtime.place_on_new_machine
        )
        (added,) = expand_maintainers(store, 1)
        assert runtime.machine(f"m/{added.name}").name == f"m/{added.name}"
        assert added.name == "store/2"


class TestCallbackClientApi:
    def test_append_callback_fires_with_result(self, deployment):
        runtime, store = deployment
        client = store.client()
        results = []
        client.append("x", on_done=results.append)
        runtime.run_until(lambda: bool(results))
        assert results[0].lid >= 0

    def test_append_without_callback_is_fire_and_forget(self, deployment):
        runtime, store = deployment
        client = store.client()
        client.append("silent")
        runtime.run_for(0.05)
        assert store.total_records() == 1

    def test_operations_queue_until_session_ready(self, deployment):
        runtime, store = deployment
        client = store.client()
        results = []
        # Issued before the session reply has been processed.
        client.append("early", on_done=results.append)
        assert client._session is None
        runtime.run_until(lambda: bool(results))
        assert results[0].lid >= 0

    def test_head_callback(self, deployment):
        runtime, store = deployment
        client = store.blocking_client()
        client.append("x")
        runtime.run_for(0.1)
        heads = []
        client.client.head(heads.append)
        runtime.run_until(lambda: bool(heads))
        assert isinstance(heads[0], int)
