"""MultiprocRuntime: placement and routing mechanics.

The multiproc runtime trades determinism for parallelism, so its anchor is
*outcome* equivalence with the abstract solution, checked on real worker
processes and inline by ``tests/test_runtime_contract.py``.  These unit
tests cover the default placement policy, routing to worker-hosted
maintainers, shadow refresh, ``peek``, worker errors, the one delivery
point, the refusal of live elasticity on worker processes, garbage
collection with the maintainers on workers and the direct links between
workers; registration, unknown destinations and the fault plan are the
contract suite's.
"""

import socket
import time

import pytest

from repro.chaos import FaultPlan
from repro.chariots import ChariotsDeployment, check_logs
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
from repro.net.binary_codec import encode_value_binary
from repro.runtime.multiproc.wire import _K_MSG, _envelope
from repro.runtime.multiproc.worker import _WorkerNode
from repro.scenarios.executors import pipeline_placement

from conftest import run_abstract
from test_supervision_commit import Fan, Quiet, RawParent, ThreadProc, _state


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


def geo_placement(name, workers):
    """Both datacenters' stages on worker 0, their stores and indexers on
    worker 1, the control plane in the parent: every record goes from
    worker 0 to worker 1 and, replicated, back."""
    kind = name.split("/")[1] if "/" in name else ""
    if kind in ("batcher", "filter", "queue", "sender", "receiver"):
        return 0
    if kind in ("store", "indexer"):
        return 1
    return None


class ForwardCountingRuntime(MultiprocRuntime):
    """Counts the worker→worker frames the parent router forwards."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.forwarded = 0

    def _forward(self, src, dst, payload, frame):
        if self._location.get(dst) is not None:
            self.forwarded += 1
        super()._forward(src, dst, payload, frame)


GEO_DCS = ["A", "B"]
GEO_APPENDS = [(GEO_DCS[i % 2], f"g{i}") for i in range(2000)]


def append_all(runtime, deployment):
    """Send every append of :data:`GEO_APPENDS`; returns the ack list."""
    clients = {dc: deployment.client(dc) for dc in GEO_DCS}
    acks = []
    for dc, body in GEO_APPENDS:
        clients[dc].append(body, on_done=acks.append)
    return acks


class TestDirectLinks:
    """Unsupervised, unfaulted workers send to each other directly; a plan
    with rules keeps their frames on the router, where it applies."""

    def run_geo(self, chaos=None):
        runtime = ForwardCountingRuntime(workers=2, placement=geo_placement, chaos=chaos)
        deployment = ChariotsDeployment(runtime, GEO_DCS, batch_size=100)
        try:
            runtime.start()
            acks = append_all(runtime, deployment)
            runtime.run_until(lambda: len(acks) == len(GEO_APPENDS), timeout=60)
            assert deployment.settle(max_seconds=60)
            verdict = check_logs(
                deployment.logs(), reference=run_abstract(GEO_DCS, GEO_APPENDS), acks=acks
            )
            assert verdict.ok, verdict
            return runtime.forwarded
        finally:
            runtime.stop()

    def test_worker_frames_skip_the_router(self):
        assert self.run_geo() == 0

    def test_a_plan_with_rules_keeps_them_on_the_router(self):
        plan = FaultPlan(5).delay(dst="B/", delay=0.001)
        assert self.run_geo(chaos=plan) > 0
        assert plan.stats["delayed"] > 0

    def test_stop_with_link_frames_in_flight(self):
        runtime = MultiprocRuntime(workers=2, placement=geo_placement)
        deployment = ChariotsDeployment(runtime, GEO_DCS, batch_size=100)
        runtime.start()
        procs = list(runtime._procs)
        acks = append_all(runtime, deployment)
        runtime.run_until(lambda: acks, timeout=60)
        # B's records are still on their way to A's store, over the links.
        assert runtime.peek("A/store/0", _stored_count) < len(GEO_APPENDS)
        began = time.monotonic()
        runtime.stop()
        assert time.monotonic() - began < 10.0
        assert all(proc.exitcode is not None for proc in procs)

    def test_a_closed_inbound_link_is_dropped_and_the_worker_carries_on(self):
        listener = socket.create_server(("127.0.0.1", 0))
        parent = RawParent([], node_cls=lambda wid, sock: _WorkerNode(wid, sock, listener))
        node = parent.node
        parent.proc = ThreadProc(node)
        try:
            parent.control({"op": "restore", "state": _state([Quiet("quiet")])})
            parent.control({"op": "start"})
            peer = socket.create_connection(listener.getsockname()[:2], timeout=5.0)
            peer.sendall(_envelope(_K_MSG, "peer", "quiet", encode_value_binary(1)))
            deadline = time.monotonic() + 5.0
            while node.actor("quiet").seen < 1 and time.monotonic() < deadline:
                time.sleep(0.001)
            assert node.actor("quiet").seen == 1
            assert len(node._conns) == 2  # the parent's and the accepted link
            peer.close()
            while len(node._conns) > 1 and time.monotonic() < deadline:
                time.sleep(0.001)
            assert len(node._conns) == 1
            parent.control({"op": "peek", "name": "quiet", "fn": _seen})
            assert parent.proc.is_alive()
        finally:
            parent.close()


def _seen(actor):
    return actor.seen
