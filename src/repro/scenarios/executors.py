"""Kind-specific executors driving one scenario spec through its phases.

Every executor implements the same three-phase protocol the runner calls:

* :meth:`Executor.standup` — resolve the spec into ready-to-run points
  (profiles looked up, configs constructed, fault plans instantiated).
  Misconfiguration fails here, before any simulation work.
* :meth:`Executor.experiment` — execute every point and produce the
  **aggregates** document (deterministic, simulated metrics only — two
  seeded runs yield byte-identical JSON) plus the **perf** document
  (host-measured wall-clock numbers, informational only).
* :meth:`Executor.teardown` — close the context (a functional point stops
  its own runtime before it returns).  The runner guarantees this runs
  even when the experiment raises.

The sim-backed kinds (``flstore``/``pipeline``/``corfu``/``geo``) delegate
the actual capacity modelling to :mod:`repro.scenarios.harness`; the
``functional`` kind drives the real deployment on the deterministic
LocalRuntime, over TCP sockets (AioRuntime), or across worker processes
(MultiprocRuntime).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..chaos.plan import FaultPlan
from ..chariots.abstract import check_logs
from ..chariots.messages import DraftBatch, DraftRecord
from ..chariots.pipeline import ChariotsDeployment
from ..core.config import DeploymentSpec, NetworkProfile
from ..core.errors import ConfigurationError
from ..net.aio_runtime import AioRuntime
from ..runtime.actor import Runtime
from ..runtime.local import LocalRuntime
from ..runtime.multiproc import MultiprocRuntime
from ..sim.kernel import SimRuntime
from ..sim.workload import LoadClient
from .harness import (
    PIPELINE_STAGES,
    _template_record,
    run_corfu_sim,
    run_flstore_sim,
    run_pipeline_sim,
)
from .spec import PROFILES, ScenarioSpec, resolve_profile

#: Rate threshold (records/s) below which a timeseries source counts as
#: idle when locating the end of its active window (Figure 9 analysis).
_ACTIVE_FLOOR = 1000.0


@dataclass
class ExecutionContext:
    """Everything standup resolved, handed through experiment to teardown."""

    spec: ScenarioSpec
    #: (label, effective per-point spec, per-point fault plan).
    points: List[Tuple[str, ScenarioSpec, Optional[FaultPlan]]]
    #: Per-point timeseries, persisted as a separate run artifact.
    timeseries: Dict[str, Dict[str, List[Tuple[float, float]]]] = field(
        default_factory=dict
    )
    torn_down: bool = False


class Executor:
    """Base class: shared standup/teardown; subclasses run one point."""

    kind = ""

    def standup(self, spec: ScenarioSpec) -> ExecutionContext:
        points: List[Tuple[str, ScenarioSpec, Optional[FaultPlan]]] = []
        for label, point in spec.points():
            resolve_profile(point.topology.profile)  # fail fast on typos
            plan = (
                FaultPlan.from_dict(point.faults)
                if point.faults is not None
                else None
            )
            points.append((label, point, plan))
        if not points:
            raise ConfigurationError(f"scenario {spec.name!r} has no points")
        return ExecutionContext(spec=spec, points=points)

    def experiment(
        self, context: ExecutionContext
    ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        """Returns ``(aggregates, perf)``."""
        point_metrics: List[Dict[str, Any]] = []
        perf: Dict[str, Any] = {}
        fault_stats: Dict[str, int] = {}
        for label, point, plan in context.points:
            metrics = self.run_point(context, label, point, plan)
            host = metrics.pop("_perf", None)
            if host:
                perf[label] = host
            if plan is not None:
                for key, count in plan.stats.items():
                    fault_stats[key] = fault_stats.get(key, 0) + count
            metrics = {"label": label, **metrics}
            point_metrics.append(metrics)
        aggregates: Dict[str, Any] = {
            "kind": context.spec.kind,
            "scenario": context.spec.name,
            "points": point_metrics,
        }
        best = self.best_point(point_metrics)
        if best is not None:
            aggregates["best"] = best
        if fault_stats:
            aggregates["faults"] = dict(sorted(fault_stats.items()))
        return aggregates, perf

    def teardown(self, context: ExecutionContext) -> None:
        context.torn_down = True

    # -- hooks ----------------------------------------------------------- #

    def run_point(
        self,
        context: ExecutionContext,
        label: str,
        point: ScenarioSpec,
        plan: Optional[FaultPlan],
    ) -> Dict[str, Any]:
        raise NotImplementedError

    #: Metric key identifying each kind's headline number, used to pick the
    #: sweep's best point (Figure 7's "peak at 150K" claim).
    primary_metric = ""

    def best_point(
        self, points: List[Dict[str, Any]]
    ) -> Optional[Dict[str, Any]]:
        if not self.primary_metric or not points:
            return None
        index = max(
            range(len(points)),
            key=lambda i: points[i].get(self.primary_metric, float("-inf")),
        )
        return {"index": index, **points[index]}


class FLStoreExecutor(Executor):
    """Figures 7–8: load generators against an FLStore deployment."""

    kind = "flstore"
    primary_metric = "achieved"

    def run_point(
        self,
        context: ExecutionContext,
        label: str,
        point: ScenarioSpec,
        plan: Optional[FaultPlan],
    ) -> Dict[str, Any]:
        if point.topology.expand_maintainers:
            return self._run_elastic(point, plan)
        topo, work = point.topology, point.workload
        result = run_flstore_sim(
            n_maintainers=topo.maintainers,
            target_per_maintainer=work.target_rate,
            maintainer_profile=resolve_profile(topo.profile),
            duration=work.duration,
            warmup=work.warmup,
            client_batch=work.client_batch,
            record_size=work.record_size,
            lid_batch=work.lid_batch,
            gossip_interval=work.gossip_interval,
            shared_nic=topo.shared_nic,
            config=point.flstore_config(),
            chaos=plan,
        )
        return {
            "maintainers": topo.maintainers,
            "target": round(work.target_rate),
            "achieved": round(result.achieved_total),
            "achieved_per_maintainer": round(result.achieved_per_maintainer),
            "scaling_fraction": round(result.perfect_scaling_fraction, 4),
            "records_stored": result.records_stored,
            "head_lag": result.head_lag_records,
        }

    def _run_elastic(
        self, point: ScenarioSpec, plan: Optional[FaultPlan]
    ) -> Dict[str, Any]:
        """Live elasticity (§6.3): maintainers join mid-run under overload.

        ``workload.target_rate`` is the *total* offered load here (spread
        over ``topology.clients`` generators); ``workload.warmup`` doubles
        as the settle margin after the expansion, so the ``after`` window
        excludes the reassignment handshake and the drained backlog surge.
        """
        from ..chariots.elasticity import expand_maintainers
        from ..flstore.messages import AppendRequest
        from ..flstore.store import FLStore

        topo, work = point.topology, point.workload
        if not 0 < work.expand_at < work.duration:
            raise ConfigurationError(
                "elastic flstore scenarios need 0 < workload.expand_at < duration"
            )
        profile = resolve_profile(topo.profile)
        runtime = SimRuntime(record_size=work.record_size, chaos=plan)

        def place(actor: Any) -> None:
            runtime.place_on_new_machine(actor, profile=profile)

        store = FLStore(
            runtime,
            n_maintainers=topo.maintainers,
            n_indexers=0,
            batch_size=work.lid_batch,
            config=point.flstore_config(),
            placer=place,
        )
        template = _template_record(work.record_size)

        def factory(client_name: str, batch_index: int, n: int) -> AppendRequest:
            return AppendRequest(
                request_id=batch_index, records=[template] * n, want_results=False
            )

        offered = work.target_rate
        clients = []
        for i in range(topo.clients):
            client = LoadClient(
                f"loadgen/{i}",
                targets=[m.name for m in store.maintainers],
                batch_factory=factory,
                target_rate=offered / topo.clients,
                batch_size=work.client_batch,
                max_outstanding=work.max_outstanding,
            )
            runtime.place_on_new_machine(
                client, profile=PROFILES["load-generator"]
            )
            clients.append(client)

        runtime.run(until_time=work.expand_at)
        expand_maintainers(store, topo.expand_maintainers, placer=place)
        names = [m.name for m in store.maintainers]
        for client in clients:
            client.set_targets(names)  # session refresh after the expansion
        runtime.run(until_time=work.duration)

        def stage_rate(start: float, end: float) -> float:
            return sum(
                runtime.metrics.rate(m.name, "in_records", start, end)
                for m in store.maintainers
                if runtime.metrics.total(m.name, "in_records") > 0
            )

        before = stage_rate(work.warmup, work.expand_at)
        after = stage_rate(work.expand_at + work.warmup, work.duration)
        return {
            "maintainers_before": topo.maintainers,
            "maintainers_after": topo.maintainers + topo.expand_maintainers,
            "offered": round(offered),
            "before": round(before),
            "after": round(after),
            "step_ratio": round(after / before, 3) if before else 0.0,
        }


class PipelineExecutor(Executor):
    """Tables 2–5 and Figure 9: the single-datacenter Chariots pipeline."""

    kind = "pipeline"
    primary_metric = ""

    def run_point(
        self,
        context: ExecutionContext,
        label: str,
        point: ScenarioSpec,
        plan: Optional[FaultPlan],
    ) -> Dict[str, Any]:
        topo, work = point.topology, point.workload
        result = run_pipeline_sim(
            clients=topo.clients,
            batchers=topo.batchers,
            filters=topo.filters,
            queues=topo.queues,
            maintainers=topo.maintainers,
            senders=topo.senders,
            receivers=topo.receivers,
            client_target=work.target_rate,
            total_records=work.total_records,
            profile=resolve_profile(topo.profile),
            duration=work.duration,
            warmup=work.warmup,
            client_batch=work.client_batch,
            record_size=work.record_size,
            lid_batch=work.lid_batch,
            timeseries_for=work.timeseries_sources,
            timeseries_bin=work.timeseries_bin,
            run_past_load=work.run_past_load,
            shared_nic=topo.shared_nic,
            pipeline_config=point.pipeline_config() if point.pipeline else None,
            flstore_config=point.flstore_config(),
            chaos=plan,
        )
        metrics: Dict[str, Any] = {
            "stage_totals": {
                stage: round(result.stage_total(stage))
                for stage, _, _ in PIPELINE_STAGES
            },
            "stage_rates": {
                stage: {m: round(r) for m, r in sorted(rates.items())}
                for stage, rates in result.stage_rates.items()
            },
            "bottleneck": result.bottleneck(),
            "records_stored": result.records_stored,
        }
        if work.timeseries_sources:
            context.timeseries[label] = {
                source: [(round(t, 3), round(rate)) for t, rate in series]
                for source, series in result.timeseries.items()
            }
        if work.drain_probe is not None:
            metrics["drain"] = self._drain_summary(result.timeseries, work.drain_probe)
        if result.wall_clock:
            metrics["_perf"] = {
                "wall_clock_seconds": round(result.wall_clock, 3),
                "records_per_host_sec": round(
                    result.records_stored / result.wall_clock
                ),
                "records_stored": result.records_stored,
            }
        return metrics

    @staticmethod
    def _drain_summary(
        timeseries: Dict[str, List[Tuple[float, float]]],
        probe: Tuple[str, str],
    ) -> Dict[str, Any]:
        """Figure 9's drain analysis: when did the load stop, how hard did
        the drain source surge once the upstream NIC pressure lifted."""
        load_source, drain_source = probe
        for source in probe:
            if source not in timeseries:
                raise ConfigurationError(
                    f"drain_probe source {source!r} not in timeseries_sources"
                )

        def active_end(series: List[Tuple[float, float]]) -> float:
            active = [t for t, rate in series if rate > _ACTIVE_FLOOR]
            return active[-1] if active else 0.0

        load_end = active_end(timeseries[load_source])
        drain_end = active_end(timeseries[drain_source])
        drain_series = timeseries[drain_source]
        loaded = [r for t, r in drain_series if 0.2 <= t <= load_end]
        draining = [
            r for t, r in drain_series if load_end + 0.2 <= t < drain_end
        ]
        loaded_mean = sum(loaded) / len(loaded) if loaded else 0.0
        drain_max = max(draining) if draining else 0.0
        return {
            "load_end": round(load_end, 3),
            "drain_end": round(drain_end, 3),
            "gap": round(drain_end - load_end, 3),
            "loaded_mean": round(loaded_mean),
            "drain_max": round(drain_max),
            "surge_ratio": round(drain_max / loaded_mean, 3) if loaded_mean else 0.0,
        }


class CorfuExecutor(Executor):
    """The sequencer-based comparator (scaling ablation)."""

    kind = "corfu"
    primary_metric = "achieved"

    def run_point(
        self,
        context: ExecutionContext,
        label: str,
        point: ScenarioSpec,
        plan: Optional[FaultPlan],
    ) -> Dict[str, Any]:
        topo, work = point.topology, point.workload
        result = run_corfu_sim(
            n_units=topo.units,
            target_per_unit=work.target_rate,
            unit_profile=resolve_profile(topo.profile),
            sequencer_capacity=topo.sequencer_capacity,
            grant_batch=topo.grant_batch,
            duration=work.duration,
            warmup=work.warmup,
            record_size=work.record_size,
            lid_batch=work.lid_batch,
            chaos=plan,
        )
        return {
            "units": topo.units,
            "target": round(work.target_rate),
            "achieved": round(result.achieved_total),
            "sequencer_grants_per_sec": round(result.sequencer_grants_per_second),
        }


class GeoExecutor(Executor):
    """Multi-datacenter deployments over simulated WAN links.

    Drives a fixed-size load into the first datacenter and measures how
    long past the end of the load window the *remote* datacenters need to
    incorporate everything — the geo-replication lag.  Partitions and
    message-level faults come from the spec's :class:`FaultPlan`.
    """

    kind = "geo"
    primary_metric = ""

    def run_point(
        self,
        context: ExecutionContext,
        label: str,
        point: ScenarioSpec,
        plan: Optional[FaultPlan],
    ) -> Dict[str, Any]:
        topo, work = point.topology, point.workload
        if len(topo.datacenters) < 2:
            raise ConfigurationError("geo scenarios need >= 2 datacenters")
        if work.total_records is None:
            raise ConfigurationError("geo scenarios need workload.total_records")
        network = (
            NetworkProfile(wan_rtt=topo.wan_rtt)
            if topo.wan_rtt is not None
            else NetworkProfile()
        )
        runtime = SimRuntime(
            network=network, record_size=work.record_size, chaos=plan
        )
        profile = resolve_profile(topo.profile)

        def placer(actor: Any) -> None:
            datacenter = actor.name.split("/")[0]
            runtime.place_on_new_machine(
                actor, profile=profile, datacenter=datacenter
            )

        deployment = ChariotsDeployment(
            runtime,
            list(topo.datacenters),
            spec=DeploymentSpec(
                clients=1,
                batchers=topo.batchers,
                filters=topo.filters,
                queues=topo.queues,
                maintainers=topo.maintainers,
                senders=topo.senders,
                receivers=topo.receivers,
            ),
            batch_size=work.lid_batch,
            pipeline_config=point.pipeline_config() if point.pipeline else None,
            flstore_config=point.flstore_config(),
            n_indexers=0,
            placer=placer,
        )

        home = topo.datacenters[0]
        remotes = list(topo.datacenters[1:])
        body = b"\x00" * work.record_size
        sequence = itertools.count(1)

        def factory(client_name: str, batch_index: int, n: int) -> DraftBatch:
            return DraftBatch(
                [
                    DraftRecord(client=client_name, seq=next(sequence), body=body)
                    for _ in range(n)
                ]
            )

        client = LoadClient(
            f"{home}/loadgen",
            targets=[deployment[home].batchers[0].name],
            batch_factory=factory,
            target_rate=work.target_rate,
            batch_size=work.client_batch,
            total_records=work.total_records,
            max_outstanding=work.max_outstanding,
        )
        runtime.place_on_new_machine(
            client, profile=PROFILES["load-generator"], datacenter=home
        )

        load_end = work.total_records / work.target_rate
        deadline = load_end + work.settle_seconds
        runtime.start()
        caught_up: Optional[float] = None
        while runtime.now < deadline:
            runtime.run_for(0.01)
            if all(
                deployment[dc].frontier().get(home, 0) >= work.total_records
                for dc in remotes
            ):
                caught_up = max(0.0, runtime.now - load_end)
                break
        # A short quiet period so every datacenter finishes incorporating.
        runtime.run_for(0.2)
        return {
            "records": {
                dc: deployment[dc].total_records() for dc in topo.datacenters
            },
            "caught_up": caught_up is not None,
            "lag_seconds": round(caught_up, 4) if caught_up is not None else None,
            "converged": deployment.converged(),
        }


def functional_metrics(
    deployment: ChariotsDeployment, appended: int, converged: bool, acked: int
) -> Dict[str, Any]:
    """The functional outcome every runtime reports: per-datacenter record
    counts, acks against appends, and the log checks of ``check_logs``."""
    verdict = check_logs(deployment.logs())
    return {
        "records": {dc: pipe.total_records() for dc, pipe in deployment.pipelines.items()},
        "appended": appended,
        "acked": acked,
        "converged": converged,
        "causal_order_ok": not verdict.causal_violation,
        "gap_free": not verdict.lid_gap,
        "duplicate_free": not verdict.repeated_lid,
    }


def drive_functional(
    deployment: ChariotsDeployment,
    appends_per_dc: int,
    settle_seconds: float,
    ready: Optional[Callable[[], bool]] = None,
) -> Dict[str, Any]:
    """The functional drive, the same on every runtime: one client per
    datacenter appends ``appends_per_dc`` records; once every append is
    acked and ``ready()`` holds (when given), the deployment settles."""
    acks: List[Any] = []
    for dc in deployment.datacenters:
        client = deployment.client(dc)
        for i in range(appends_per_dc):
            client.append(f"{dc}-{i}", on_done=acks.append)
    appended = appends_per_dc * len(deployment.datacenters)
    if ready is not None:
        deployment.runtime.run_until(
            lambda: len(acks) == appended and ready(), timeout=settle_seconds
        )
    converged = deployment.settle(max_seconds=settle_seconds)
    return functional_metrics(deployment, appended, converged, len(acks))


class FunctionalExecutor(Executor):
    """The real protocol stack, functionally: append, settle, converge.

    One drive (:func:`drive_functional`) on every runtime; only the runtime
    constructed differs.  ``local`` is deterministic (virtual clock); ``aio``
    (TCP) and ``multiproc`` (worker processes; with a fault plan, the
    supervised ``multiproc_chaos`` driver) are wall-clock.
    """

    kind = "functional"
    primary_metric = ""

    def run_point(
        self,
        context: ExecutionContext,
        label: str,
        point: ScenarioSpec,
        plan: Optional[FaultPlan],
    ) -> Dict[str, Any]:
        work = point.workload
        if point.runtime == "multiproc" and plan is not None:
            from .multiproc_chaos import run_deployment_multiproc_chaos

            dcs = point.topology.datacenters
            return run_deployment_multiproc_chaos(
                datacenters=dcs,
                workers=point.topology.workers,
                appends=work.append_records * len(dcs),
                batch_size=work.lid_batch,
                plan=plan,
                timeout=work.settle_seconds,
            )
        runtime = self._runtime(point, plan)
        try:
            deployment = ChariotsDeployment(
                runtime,
                list(point.topology.datacenters),
                spec=self._deployment_spec(point),
                batch_size=work.lid_batch,
                pipeline_config=point.pipeline_config() if point.pipeline else None,
                flstore_config=point.flstore_config(),
            )
            supervisor = None
            if plan is not None and plan.crashes:
                # Crash events only make sense with someone to restart the
                # victims; supervise every maintainer from its journal.
                supervisor = deployment.supervise()
            metrics = drive_functional(deployment, work.append_records, work.settle_seconds)
            if supervisor is not None:
                metrics["restarts"] = int(sum(supervisor.restarts.values()))
            return metrics
        finally:
            runtime.stop()

    @staticmethod
    def _runtime(point: ScenarioSpec, plan: Optional[FaultPlan]) -> Runtime:
        if point.runtime == "aio":
            return AioRuntime(chaos=plan)
        if point.runtime == "multiproc":
            return MultiprocRuntime(workers=point.topology.workers)
        return LocalRuntime(chaos=plan)

    def _deployment_spec(self, point: ScenarioSpec) -> DeploymentSpec:
        topo = point.topology
        return DeploymentSpec(
            clients=1,
            batchers=topo.batchers,
            filters=topo.filters,
            queues=topo.queues,
            maintainers=topo.maintainers,
            senders=topo.senders,
            receivers=topo.receivers,
        )


EXECUTORS: Dict[str, Executor] = {
    executor.kind: executor
    for executor in (
        FLStoreExecutor(),
        PipelineExecutor(),
        CorfuExecutor(),
        GeoExecutor(),
        FunctionalExecutor(),
    )
}


def executor_for(spec: ScenarioSpec) -> Executor:
    try:
        return EXECUTORS[spec.kind]
    except KeyError:
        raise ConfigurationError(f"no executor for kind {spec.kind!r}") from None
