"""Tests for live elasticity (§6.3)."""

import pytest

from repro.chariots import ChariotsDeployment, check_logs
from repro.chariots.elasticity import (
    expand_batchers,
    expand_filters,
    expand_maintainers,
    expand_queues,
)
from repro.core import ConfigurationError
from repro.runtime import LocalRuntime


@pytest.fixture
def live_deployment():
    runtime = LocalRuntime()
    deployment = ChariotsDeployment(runtime, ["A", "B"], batch_size=4)
    ca = deployment.blocking_client("A")
    cb = deployment.blocking_client("B")
    for i in range(6):
        ca.append(f"pre-a{i}")
        cb.append(f"pre-b{i}")
    assert deployment.settle(max_seconds=10)
    return runtime, deployment, ca, cb


def post_expansion_workload(deployment, ca, cb, n=10):
    for i in range(n):
        ca.append(f"post-a{i}")
        cb.append(f"post-b{i}")
    assert deployment.settle(max_seconds=20)


class TestExpandMaintainers:
    def test_expansion_preserves_old_and_new_records(self, live_deployment):
        runtime, deployment, ca, cb = live_deployment
        before = {e.rid for e in deployment["A"].all_entries()}
        expand_maintainers(deployment["A"], 1)
        post_expansion_workload(deployment, ca, cb, n=30)
        after = {e.rid for e in deployment["A"].all_entries()}
        assert before <= after
        assert len(after) == 12 + 60

    def test_new_maintainer_receives_records(self, live_deployment):
        runtime, deployment, ca, cb = live_deployment
        [new] = expand_maintainers(deployment["A"], 1)
        post_expansion_workload(deployment, ca, cb, n=40)
        assert new.core.stored_count() > 0

    def test_replication_covers_new_maintainer_records(self, live_deployment):
        runtime, deployment, ca, cb = live_deployment
        expand_maintainers(deployment["A"], 1)
        post_expansion_workload(deployment, ca, cb, n=40)
        assert deployment.converged()

    def test_count_validation(self, live_deployment):
        _, deployment, _, _ = live_deployment
        with pytest.raises(ConfigurationError):
            expand_maintainers(deployment["A"], 0)

    def test_logs_stay_causal_after_expansion(self, live_deployment):
        runtime, deployment, ca, cb = live_deployment
        expand_maintainers(deployment["A"], 2)
        post_expansion_workload(deployment, ca, cb, n=30)
        assert check_logs(deployment.logs()).ok


class TestExpandFilters:
    def test_host_traffic_splits_across_filters(self, live_deployment):
        runtime, deployment, ca, cb = live_deployment
        [new] = expand_filters(deployment["A"], host="B", count=1, from_toid=7)
        post_expansion_workload(deployment, ca, cb, n=30)
        # B's records past TOId 7 split between old and new champions.
        assert new.core.records_admitted > 0
        assert deployment.converged()

    def test_reassignment_boundary_respected(self, live_deployment):
        _, deployment, _, _ = live_deployment
        fmap = deployment["A"].filter_map
        before = fmap.filter_for("B", 6)
        expand_filters(deployment["A"], host="B", count=1, from_toid=50)
        assert fmap.filter_for("B", 6) == before  # old records unaffected

    def test_default_from_toid_is_in_future(self, live_deployment):
        _, deployment, _, _ = live_deployment
        seen = deployment["A"].frontier().get("B", 0)
        expand_filters(deployment["A"], host="B", count=1)
        start = deployment["A"].filter_map.plan("B").current_epoch.start_lid
        assert start > seen


class TestExpandQueues:
    def test_token_ring_grows(self, live_deployment):
        runtime, deployment, ca, cb = live_deployment
        expand_queues(deployment["A"], 1)
        assert len(deployment["A"].queues) == 2
        post_expansion_workload(deployment, ca, cb, n=20)
        # Both queues hold the token over time; records keep flowing.
        assert deployment["A"].total_records() == 12 + 40

    def test_lids_stay_dense_with_two_queues(self, live_deployment):
        runtime, deployment, ca, cb = live_deployment
        expand_queues(deployment["A"], 1)
        post_expansion_workload(deployment, ca, cb, n=20)
        verdict = check_logs(deployment.logs())
        assert verdict.ok and verdict.first_lid["A"] == 0, verdict

    def test_filters_learn_new_queue(self, live_deployment):
        _, deployment, _, _ = live_deployment
        expand_queues(deployment["A"], 1)
        new_name = deployment["A"].queues[-1].name
        for stage in deployment["A"].filters:
            assert new_name in stage.queues


class TestExpandBatchers:
    def test_receivers_learn_new_batcher(self, live_deployment):
        _, deployment, _, _ = live_deployment
        expand_batchers(deployment["A"], 1)
        new_name = deployment["A"].batchers[-1].name
        for receiver in deployment["A"].receivers:
            assert new_name in receiver.batchers

    def test_new_clients_use_new_batcher(self, live_deployment):
        runtime, deployment, ca, cb = live_deployment
        expand_batchers(deployment["A"], 1)
        fresh = deployment.blocking_client("A")
        for i in range(4):
            fresh.append(f"fresh{i}")
        assert deployment.settle(max_seconds=10)
        assert deployment.converged()


class TestCombinedExpansion:
    def test_scale_every_stage_at_once(self, live_deployment):
        runtime, deployment, ca, cb = live_deployment
        expand_maintainers(deployment["A"], 1)
        expand_filters(deployment["A"], host="A", count=1)
        expand_queues(deployment["A"], 1)
        expand_batchers(deployment["A"], 1)
        post_expansion_workload(deployment, ca, cb, n=40)
        assert deployment.converged()
        assert check_logs(deployment.logs()).ok
