"""Fault tolerance of the multi-process runtime.

Fast units cover the sequenced envelope, ``FaultPlan.kill`` round-trips,
and the chaos placement helper.  The
``-m slow`` variants SIGKILL real worker processes mid-run — one pipeline
stage worker and one maintainer worker — and judge the recovered logs with
``check_logs`` against the abstract solution: same record sets, causal
order (so identical per-host total orders), no lost or duplicated LIds.
"""

import tempfile

import pytest

from repro.chariots import ChariotsDeployment, check_logs
from repro.chaos import FaultPlan, KillEvent
from repro.runtime.multiproc import MultiprocRuntime
from repro.runtime.multiproc.wire import _envelope, _parse_envelope
from repro.runtime.supervisor import ProcessSupervisor
from repro.scenarios.multiproc_chaos import (
    pipeline_placement,
    run_deployment_multiproc_chaos,
)

from conftest import run_abstract
from test_runtime_contract import DCS, WORKLOAD


# --------------------------------------------------------------------- #
# Envelope sequencing
# --------------------------------------------------------------------- #


class TestEnvelopeSeq:
    def test_seq_round_trips(self):
        frame = _envelope(0, "A/filter/0", "A/queue/0", b"payload", seq=7)
        kind, seq, src, dst, payload = _parse_envelope(memoryview(frame)[4:])
        assert (kind, seq, src, dst) == (0, 7, "A/filter/0", "A/queue/0")
        assert bytes(payload) == b"payload"

    def test_default_seq_is_unsequenced_zero(self):
        frame = _envelope(1, "parent", "worker", b"")
        _, seq, _, _, _ = _parse_envelope(memoryview(frame)[4:])
        assert seq == 0

    def test_seq_survives_large_values(self):
        frame = _envelope(2, "s", "d", b"x", seq=0xFFFF_FFFF)
        _, seq, _, _, _ = _parse_envelope(memoryview(frame)[4:])
        assert seq == 0xFFFF_FFFF


# --------------------------------------------------------------------- #
# FaultPlan.kill round-trip
# --------------------------------------------------------------------- #


class TestKillPlanRoundTrip:
    def test_kill_round_trips_through_dict(self):
        plan = FaultPlan(seed=9).kill("B/batcher/0", 0.25).kill(2, 1.5)
        data = plan.to_dict()
        assert data["kills"] == [
            {"worker": "B/batcher/0", "at": 0.25},
            {"worker": 2, "at": 1.5},
        ]
        restored = FaultPlan.from_dict(data)
        assert restored.kills == [KillEvent("B/batcher/0", 0.25), KillEvent(2, 1.5)]
        assert restored.to_dict() == data

    def test_empty_plan_round_trips(self):
        data = FaultPlan().to_dict()
        assert data["kills"] == []
        assert FaultPlan.from_dict(data).kills == []


# --------------------------------------------------------------------- #
# Chaos placement
# --------------------------------------------------------------------- #


class TestPipelinePlacement:
    def test_stages_and_maintainers_split_per_datacenter(self):
        placement = pipeline_placement(["A", "B"], 4)
        assert placement("A/batcher/0", 4) == 0
        assert placement("A/filter/0", 4) == 0
        assert placement("A/sender/B", 4) == 0
        assert placement("A/store/0", 4) == 1
        assert placement("A/indexer/0", 4) == 1
        assert placement("B/queue/0", 4) == 2
        assert placement("B/store/1", 4) == 3

    def test_control_plane_stays_in_parent(self):
        placement = pipeline_placement(["A", "B"], 4)
        assert placement("A/client/0", 4) is None
        assert placement("A/controller", 4) is None
        assert placement("supervisor", 4) is None

    def test_zero_workers_places_everything_in_parent(self):
        placement = pipeline_placement(["A"], 0)
        assert placement("A/store/0", 0) is None


# --------------------------------------------------------------------- #
# The acceptance bar: SIGKILL two workers, logs match the abstract solution
# --------------------------------------------------------------------- #


def run_workload_on_multiproc_with_kills(kills, journal_dir):
    """The WORKLOAD of tests.test_runtime_contract, under supervision and kills."""
    plan = FaultPlan(seed=7)
    for worker, at in kills:
        plan.kill(worker, at)
    runtime = MultiprocRuntime(
        workers=4, placement=pipeline_placement(DCS, 4), chaos=plan
    )
    try:
        deployment = ChariotsDeployment(runtime, DCS, batch_size=8)
        supervisor = ProcessSupervisor()
        deployment.supervise(supervisor, journal_dir=journal_dir)
        runtime.start()
        clients = {dc: deployment.client(dc) for dc in DCS}
        acks = []
        for dc, payload in WORKLOAD:
            clients[dc].append(payload, on_done=acks.append)
        runtime.run_until(lambda: len(acks) == len(WORKLOAD), timeout=120)
        runtime.run_until(
            lambda: plan.stats["workers_killed"] >= len(kills), timeout=120
        )
        runtime.run_until(
            lambda: len(supervisor.recoveries) >= len(kills), timeout=120
        )
        assert deployment.settle(max_seconds=120)
        verdict = check_logs(deployment.logs(), reference=run_abstract(DCS, WORKLOAD), acks=acks)
        return verdict, supervisor, dict(runtime.loss_accounting)
    finally:
        runtime.stop()


@pytest.mark.slow
class TestCrashRecoveryEquivalence:
    def test_killed_stage_and_maintainer_workers_match_the_abstract_solution(self):
        """Kill one pipeline-stage worker (A's batcher/filter/queue) and one
        maintainer worker (A's stores) mid-run; the recovered logs must
        match the abstract solution's, and every ack its LId."""
        with tempfile.TemporaryDirectory() as journal_dir:
            verdict, supervisor, loss = run_workload_on_multiproc_with_kills(
                [("A/batcher/0", 0.15), ("A/store/0", 0.3)], journal_dir
            )
        assert verdict.ok, verdict
        assert len(supervisor.recoveries) >= 2
        for recovery in supervisor.recoveries:
            assert recovery["seconds"] < 30.0
        assert loss == {}

    def test_chaos_driver_reports_recovery_metrics(self):
        plan = FaultPlan(seed=3).kill("A/batcher/0", 0.15).kill("A/store/0", 0.3)
        out = run_deployment_multiproc_chaos(
            datacenters=DCS, workers=4, appends=24, batch_size=8, plan=plan
        )
        assert out["converged"]
        assert out["acked"] == out["appended"] == 24
        assert out["gap_free"] and out["duplicate_free"]
        assert out["causal_order_ok"]
        assert out["records"]["A"] == out["records"]["B"] == 24
        assert out["workers_killed"] == 2
        assert out["recoveries"] >= 2
        assert 0.0 < out["recovery_seconds_max"] < 30.0
        assert out["loss_accounting"] == {}


@pytest.mark.slow
class TestPlannedRestart:
    def test_drain_then_restart_loses_nothing(self):
        """The elasticity path: a planned, drained restart of the maintainer
        worker mid-workload neither loses records nor times out the drain."""
        runtime = MultiprocRuntime(
            workers=4, placement=pipeline_placement(DCS, 4)
        )
        with tempfile.TemporaryDirectory() as journal_dir:
            try:
                deployment = ChariotsDeployment(runtime, DCS, batch_size=8)
                supervisor = ProcessSupervisor()
                deployment.supervise(supervisor, journal_dir=journal_dir)
                runtime.start()
                clients = {dc: deployment.client(dc) for dc in DCS}
                acks = []
                for dc, payload in WORKLOAD:
                    clients[dc].append(payload, on_done=acks.append)
                runtime.run_until(
                    lambda: len(acks) == len(WORKLOAD), timeout=120
                )
                drained = runtime.restart_worker(1, drain=True)
                assert drained
                assert deployment.settle(max_seconds=120)
                assert check_logs(deployment.logs(), reference=run_abstract(DCS, WORKLOAD)).ok
                assert supervisor.recoveries
                assert supervisor.recoveries[-1]["reason"] == "planned restart"
                assert runtime.loss_accounting.get("drain_timeouts", 0) == 0
            finally:
                runtime.stop()
