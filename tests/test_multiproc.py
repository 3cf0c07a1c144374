"""MultiprocRuntime: placement and routing mechanics.

The multiproc runtime trades determinism for parallelism, so its anchor is
*outcome* equivalence with the abstract solution, checked on real worker
processes and inline by ``tests/test_runtime_contract.py``.  These unit
tests cover the default placement policy, routing to worker-hosted
maintainers, shadow refresh, ``peek``, worker errors, the one delivery
point, the refusal of live elasticity on worker processes and garbage
collection with the maintainers on workers; registration, unknown
destinations and the fault plan are the contract suite's.
"""

import pytest

from repro.chariots import ChariotsDeployment
from repro.chariots.elasticity import (
    expand_batchers,
    expand_filters,
    expand_maintainers,
    expand_queues,
)
from repro.core import PipelineConfig
from repro.core.errors import ConfigurationError, SessionError
from repro.core.record import Record, RecordId
from repro.flstore.maintainer import LogMaintainer
from repro.flstore.messages import PlaceRecords
from repro.flstore.range_map import OwnershipPlan
from repro.runtime.multiproc import (
    MultiprocRuntime,
    default_placement,
)
from repro.runtime.multiproc.worker import _WorkerNode
from repro.scenarios.executors import pipeline_placement

from test_supervision_commit import Fan, Quiet, RawParent


class TestPlacement:
    def test_data_plane_spreads_and_control_plane_stays_home(self):
        assert default_placement("A/store/0", 4) is not None
        assert default_placement("A/batcher/1", 4) is not None
        assert default_placement("B/queue/0", 4) is not None
        assert default_placement("A/client/1", 4) is None
        assert default_placement("A/controller", 4) is None
        assert default_placement("A/gc", 4) is None
        assert default_placement("supervisor", 4) is None

    def test_placement_is_stable_and_in_range(self):
        for name in ("A/store/0", "A/store/1", "B/filter/0"):
            first = default_placement(name, 3)
            assert first == default_placement(name, 3)
            assert first in (0, 1, 2)

    def test_zero_workers_places_everything_in_parent(self):
        assert default_placement("A/store/0", 0) is None


def _maintainer_runtime(workers):
    names = ["store/0", "store/1"]
    plan = OwnershipPlan(names, batch_size=100)
    runtime = MultiprocRuntime(
        workers=workers,
        placement=lambda name, w: (
            int(name[-1]) % w if w and name.startswith("store") else None
        ),
    )
    for name in names:
        runtime.register(LogMaintainer(name, plan, peers=names))
    return runtime


def _placements(n=20):
    """``n`` records at LIds 0..n-1: the first round, which ``store/0`` owns."""
    return PlaceRecords(
        [(lid, Record(rid=RecordId("A", lid + 1), body=b"x" * 32)) for lid in range(n)]
    ), n


class TestRouting:
    def test_refresh_updates_existing_references(self):
        runtime = _maintainer_runtime(workers=2)
        try:
            shadow = runtime.actor("store/0")
            runtime.start()
            message, n = _placements()
            runtime.send("driver", "store/0", message)
            runtime.run_until(
                lambda: runtime.peek("store/0", _stored_count) == n,
                timeout=30,
            )
            assert shadow.core.stored_count() == 0  # stale until refreshed
            runtime.refresh_actors(["store/0"])
            assert shadow.core.stored_count() == n  # same object, new state
            assert runtime.actor("store/0") is shadow
        finally:
            runtime.stop()

    def test_prepare_encoded_unknown_actor_raises(self):
        runtime = _maintainer_runtime(workers=0)
        runtime.start()
        with pytest.raises(ConfigurationError, match="unknown actor"):
            runtime.prepare_encoded("driver", "nobody", b"")

    def test_peek_runs_module_level_fn_in_worker(self):
        runtime = _maintainer_runtime(workers=2)
        try:
            runtime.start()
            assert runtime.peek("store/0", _stored_count) == 0
            message, n = _placements()
            runtime.send("driver", "store/0", message)
            runtime.run_until(
                lambda: runtime.peek("store/0", _stored_count) == n, timeout=30
            )
        finally:
            runtime.stop()

    def test_worker_side_errors_surface_in_parent(self):
        runtime = _maintainer_runtime(workers=2)
        try:
            runtime.start()
            with pytest.raises(SessionError, match="worker"):
                runtime.peek("store/0", _raise_in_worker)
        finally:
            runtime.stop()


def _stored_count(actor):
    return actor.core.stored_count()


def _raise_in_worker(actor):
    raise ValueError("boom")



class CountingRuntime(MultiprocRuntime):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.delivered = []

    def _on_deliver(self, src, dst, message):
        self.delivered.append(dst)
        super()._on_deliver(src, dst, message)


class CountingNode(_WorkerNode):
    def __init__(self, worker_id, sock):
        super().__init__(worker_id, sock)
        self.delivered = []

    def _on_deliver(self, src, dst, message):
        self.delivered.append(dst)
        super()._on_deliver(src, dst, message)


class TestOneDeliveryPoint:
    """Every delivery goes through ``BaseRuntime._on_deliver``, the hook
    telemetry and record/replay attach to, in the parent and in workers."""

    def test_parent_local_deliveries(self):
        runtime = CountingRuntime(workers=0)
        runtime.register_all([Fan("fan", ["quiet"]), Quiet("quiet")])
        runtime.start()
        for i in range(3):
            runtime.send("driver", "fan", i)
        runtime.run_until(lambda: runtime.actor("quiet").seen == 3, timeout=5)
        assert sorted(runtime.delivered) == ["fan"] * 3 + ["quiet"] * 3

    def test_worker_deliveries_frames_and_local(self):
        parent = RawParent(
            [Fan("fan", ["quiet"]), Quiet("quiet")], node_cls=CountingNode
        ).run_node()
        try:
            for i in range(3):
                seq = parent.deliver("fan", i)
            parent.read_until(lambda f: f[0] == "S" and f[1]["ack"] == seq)
            assert sorted(parent.node.delivered) == ["fan"] * 3 + ["quiet"] * 3
            parent.deliver("ghost", 0)
            error = parent.read_until(lambda f: f[0] == "R" and "worker_error" in f[1])
            assert "no actor 'ghost'" in error[1]["worker_error"]
            assert "ghost" not in parent.node.delivered
        finally:
            parent.close()


class TestElasticityOnWorkers:
    EXPANSIONS = [
        lambda pipe: expand_maintainers(pipe, 1),
        lambda pipe: expand_filters(pipe, host="A", count=1),
        lambda pipe: expand_queues(pipe, 1),
        lambda pipe: expand_batchers(pipe, 1),
    ]

    def test_started_workers_refuse_every_expansion(self):
        runtime = MultiprocRuntime(workers=1)
        deployment = ChariotsDeployment(runtime, ["A"], batch_size=4)
        pipe = deployment["A"]
        epochs = len(pipe.plan.epochs)
        try:
            runtime.start()
            for expand in self.EXPANSIONS:
                with pytest.raises(ConfigurationError, match="item 16"):
                    expand(pipe)
        finally:
            runtime.stop()
        assert len(pipe.plan.epochs) == epochs
        assert len(pipe.maintainers) == len(pipe.queues) == 1

    def test_expanding_before_start_is_allowed(self):
        runtime = MultiprocRuntime(workers=1)
        pipe = ChariotsDeployment(runtime, ["A"], batch_size=4)["A"]
        for expand in self.EXPANSIONS:
            assert len(expand(pipe)) == 1
        assert len(pipe.plan.epochs) == 2


def _records_collected(actor):
    return actor.core.records_collected


class TestGcOnWorkers:
    def test_gc_collects_on_worker_maintainers(self):
        # The GC coordinators stay in the parent and gossip their Awareness
        # Tables there; the maintainers they truncate live on a worker.
        runtime = MultiprocRuntime(workers=2, placement=pipeline_placement(["A", "B"], 2))
        deployment = ChariotsDeployment(
            runtime, ["A", "B"], batch_size=8,
            pipeline_config=PipelineConfig(gc_interval=0.05),
        )

        def collected(dc):
            return sum(
                runtime.peek(m.name, _records_collected) for m in deployment[dc].maintainers
            )

        def tables_agree():
            return deployment["A"].gc.atable.as_matrix() == deployment["B"].gc.atable.as_matrix()

        try:
            runtime.start()
            clients = {dc: deployment.client(dc) for dc in "AB"}
            acks = []
            for i in range(200):
                for dc in "AB":
                    clients[dc].append(f"{dc}{i}", on_done=acks.append)
            runtime.run_until(lambda: len(acks) == 400, timeout=60)
            assert deployment.settle(max_seconds=60)
            runtime.run_until(
                lambda: tables_agree() and collected("A") > 0 and collected("B") > 0,
                timeout=30,
            )
            assert collected("A") > 0 and collected("B") > 0
            assert deployment.frontiers() == {dc: {"A": 200, "B": 200} for dc in "AB"}
            assert tables_agree()
        finally:
            runtime.stop()
