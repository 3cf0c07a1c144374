"""Scenario kinds: each turns one sweep point into its metrics.

:data:`EXECUTORS` maps every kind to one function ``(point, plan) ->
metrics`` that builds its deployment straight from the point's
``topology``, ``workload``, ``flstore_config()`` and ``pipeline_config()``
and runs it:

* ``flstore`` — load generators against an FLStore deployment (Figures 7
  and 8; §6.3 live elasticity when ``topology.expand_maintainers`` is set);
* ``pipeline`` — one datacenter's Chariots pipeline under client load,
  per-machine rates (Tables 2–5) and timeseries (Figure 9);
* ``corfu`` — the CORFU-style sequencer baseline (the scaling ablation);
* ``geo`` — multi-datacenter deployments over simulated WAN links;
* ``functional`` — the real deployment on the deterministic LocalRuntime,
  over TCP sockets (AioRuntime), or across worker processes
  (MultiprocRuntime), supervised when its fault plan crashes or kills.

The first four run the real protocol code on simulated machines
(:class:`~repro.sim.kernel.SimRuntime`).  A kind may return a
``timeseries`` entry; the runner (:mod:`.runner`) moves it out of the
aggregates into ``timeseries.json``.
"""

from __future__ import annotations

import itertools
import tempfile
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..baseline.corfu import CorfuLoadClient, CorfuLog
from ..chaos.plan import FaultPlan
from ..chariots.abstract import check_logs
from ..chariots.elasticity import expand_maintainers
from ..chariots.messages import DraftBatch, DraftRecord
from ..chariots.pipeline import ChariotsDeployment, DatacenterPipeline
from ..core.config import DeploymentSpec, NetworkProfile, PipelineConfig
from ..core.errors import ConfigurationError
from ..core.record import Record
from ..flstore.messages import AppendRequest
from ..flstore.store import FLStore
from ..net.aio_runtime import AioRuntime
from ..runtime.actor import Actor
from ..runtime.local import BaseRuntime, LocalRuntime
from ..runtime.multiproc import MultiprocRuntime
from ..sim.kernel import SimRuntime
from ..sim.workload import LoadClient
from .spec import PROFILES, ScenarioSpec, TopologySpec, resolve_profile

Metrics = Dict[str, Any]

#: Rate threshold (records/s) below which a timeseries source counts as
#: idle when locating the end of its active window (Figure 9 analysis).
_ACTIVE_FLOOR = 1000.0

#: Paper table stage names in pipeline order.  "Store" is the FLStore log
#: maintainer stage; the queue stage appears as "Queue" (the paper's tables
#: print it as "Maintainer", see EXPERIMENTS.md for the mapping note).
PIPELINE_STAGES: Tuple[Tuple[str, str, str], ...] = (
    ("Client", "client/", "out_records"),
    ("Batcher", "batcher/", "in_records"),
    ("Filter", "filter/", "in_records"),
    ("Queue", "queue/", "in_records"),
    ("Store", "store/", "in_records"),
)


def _template_record(record_size: int) -> Record:
    """A single reusable record of the experiment's wire size (512 B, §7)."""
    return Record.make("bench", 1, b"\x00" * record_size)


def _deployment_spec(topo: TopologySpec) -> DeploymentSpec:
    """Per-datacenter stage counts; the scenario drives its own clients."""
    return DeploymentSpec(
        clients=1,
        batchers=topo.batchers,
        filters=topo.filters,
        queues=topo.queues,
        maintainers=topo.maintainers,
        senders=topo.senders,
        receivers=topo.receivers,
    )


# ===================================================================== #
# FLStore (Figures 7 and 8, §6.3 elasticity)
# ===================================================================== #


def _flstore_under_load(
    point: ScenarioSpec, plan: Optional[FaultPlan], elastic: bool
) -> Tuple[SimRuntime, FLStore, List[LoadClient]]:
    """An FLStore on simulated machines plus its load generators.

    Fixed deployments get one generator per maintainer offering it
    ``workload.target_rate`` (§7.1: "an identical number of client machines
    were used to generate records").  Elastic ones spread the *total*
    ``workload.target_rate`` over ``topology.clients`` generators that
    round-robin every maintainer.
    """
    topo, work = point.topology, point.workload
    runtime = SimRuntime(record_size=work.record_size, chaos=plan)
    profile = resolve_profile(topo.profile)

    def place(actor: Actor) -> None:
        runtime.place_on_new_machine(actor, profile=profile, shared_nic=topo.shared_nic)

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

    names = [m.name for m in store.maintainers]
    if elastic:
        targets = [names] * topo.clients
        rate, outstanding = work.target_rate / topo.clients, work.max_outstanding
    else:
        targets = [[name] for name in names]
        rate, outstanding = work.target_rate, 8
    clients = []
    for i, wanted in enumerate(targets):
        client = LoadClient(
            f"loadgen/{i}",
            targets=wanted,
            batch_factory=factory,
            target_rate=rate,
            batch_size=work.client_batch,
            max_outstanding=outstanding,
        )
        runtime.place_on_new_machine(client, profile=PROFILES["load-generator"])
        clients.append(client)
    return runtime, store, clients


def _scaling_fraction(per_maintainer: Mapping[str, float]) -> float:
    """Achieved vs (n × the best single maintainer's achieved rate)."""
    best = max(per_maintainer.values()) if per_maintainer else 0.0
    if best <= 0:
        return 0.0
    return sum(per_maintainer.values()) / (best * len(per_maintainer))


def run_flstore(point: ScenarioSpec, plan: Optional[FaultPlan]) -> Metrics:
    """Figures 7–8: offered appends/s against each maintainer (§7.1)."""
    topo, work = point.topology, point.workload
    if topo.expand_maintainers:
        return _run_flstore_elastic(point, plan)
    runtime, store, _clients = _flstore_under_load(point, plan, elastic=False)
    runtime.run(until_time=work.duration)

    per_maintainer = {
        m.name: runtime.metrics.rate(m.name, "in_records", work.warmup, work.duration)
        for m in store.maintainers
    }
    achieved = sum(per_maintainer.values())
    max_assigned = max(m.core.max_stored_lid for m in store.maintainers)
    return {
        "maintainers": topo.maintainers,
        "target": round(work.target_rate),
        "achieved": round(achieved),
        "achieved_per_maintainer": round(achieved / topo.maintainers),
        "scaling_fraction": round(_scaling_fraction(per_maintainer), 4),
        "records_stored": store.total_records(),
        # Records assigned but not yet covered by the head of the log.
        "head_lag": max(0, max_assigned - store.head_of_log()),
    }


def _run_flstore_elastic(point: ScenarioSpec, plan: Optional[FaultPlan]) -> Metrics:
    """Live elasticity (§6.3): maintainers join mid-run under overload.

    ``workload.warmup`` doubles as the settle margin after the expansion,
    so the ``after`` window excludes the reassignment handshake and the
    drained backlog surge.
    """
    topo, work = point.topology, point.workload
    if not 0 < work.expand_at < work.duration:
        raise ConfigurationError(
            "elastic flstore scenarios need 0 < workload.expand_at < duration"
        )
    runtime, store, clients = _flstore_under_load(point, plan, elastic=True)

    runtime.run(until_time=work.expand_at)
    expand_maintainers(store, topo.expand_maintainers)
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
        "offered": round(work.target_rate),
        "before": round(before),
        "after": round(after),
        "step_ratio": round(after / before, 3) if before else 0.0,
    }


# ===================================================================== #
# Chariots pipeline (Tables 2–5, Figure 9)
# ===================================================================== #


def _bottleneck(totals: Mapping[str, float]) -> str:
    """The most-upstream stage that absorbs clearly less than it is fed.

    Walking the pipeline in order, the first stage whose total rate falls
    below 95% of the previous stage's total is the constraint; if none
    does, the clients are the limit (the Table 2 situation).
    """
    order = [stage for stage, _, _ in PIPELINE_STAGES]
    for upstream, stage in zip(order, order[1:]):
        fed, absorbed = totals[upstream], totals[stage]
        if fed > 0 and absorbed < 0.95 * fed:
            return stage
    return "Client"


def run_pipeline(point: ScenarioSpec, plan: Optional[FaultPlan]) -> Metrics:
    """One datacenter's full pipeline under client load (§7.2).

    ``workload.total_records`` bounds generation (Figure 9's fixed-size
    experiment); ``workload.run_past_load`` keeps simulating after the load
    window so draining backlogs remain observable in the timeseries.
    """
    topo, work = point.topology, point.workload
    runtime = SimRuntime(record_size=work.record_size, chaos=plan)
    profile = resolve_profile(topo.profile)
    dc = "A"

    def place(actor: Actor) -> None:
        runtime.place_on_new_machine(actor, profile=profile, shared_nic=topo.shared_nic)

    pipeline = DatacenterPipeline(
        runtime,
        dc,
        [dc],
        spec=_deployment_spec(topo),
        batch_size=work.lid_batch,
        pipeline_config=point.pipeline_config()
        if point.pipeline
        else PipelineConfig(batcher_flush_threshold=work.client_batch),
        flstore_config=point.flstore_config(),
        n_indexers=0,
        placer=place,
    )

    body = b"\x00" * work.record_size
    per_client = None if work.total_records is None else work.total_records // topo.clients
    for i in range(topo.clients):
        seq_counter = itertools.count(1)

        def factory(
            client_name: str, batch_index: int, n: int, counter=seq_counter
        ) -> DraftBatch:
            drafts = [
                DraftRecord(client=client_name, seq=next(counter), body=body)
                for _ in range(n)
            ]
            return DraftBatch(drafts)

        client = LoadClient(
            f"{dc}/client/{i}",
            targets=[pipeline.batchers[i % topo.batchers].name],
            batch_factory=factory,
            target_rate=work.target_rate,
            batch_size=work.client_batch,
            total_records=per_client,
            max_outstanding=4,
        )
        place(client)

    runtime.run(until_time=work.duration + work.run_past_load)

    totals: Dict[str, float] = {}
    stage_rates: Dict[str, Dict[str, int]] = {}
    for stage, prefix, metric in PIPELINE_STAGES:
        rates = {
            source: runtime.metrics.rate(source, metric, work.warmup, work.duration)
            for source in runtime.metrics.sources(metric)
            if source.startswith(f"{dc}/{prefix}")
        }
        totals[stage] = sum(rates.values())
        stage_rates[stage] = {m: round(r) for m, r in sorted(rates.items())}
    metrics: Metrics = {
        "stage_totals": {stage: round(total) for stage, total in totals.items()},
        "stage_rates": stage_rates,
        "bottleneck": _bottleneck(totals),
        "records_stored": pipeline.total_records(),
    }

    series = {
        source: runtime.metrics.timeseries(
            source,
            "out_records" if "/client/" in source else "in_records",
            work.timeseries_bin,
        )
        for source in work.timeseries_sources
    }
    if work.drain_probe is not None:
        metrics["drain"] = _drain_summary(series, work.drain_probe)
    if series:
        metrics["timeseries"] = {
            source: [(round(t, 3), round(rate)) for t, rate in points]
            for source, points in series.items()
        }
    return metrics


def _drain_summary(
    timeseries: Dict[str, List[Tuple[float, float]]],
    probe: Tuple[str, str],
) -> Metrics:
    """Figure 9's drain analysis: when did the load stop, how hard did the
    drain source surge once the upstream NIC pressure lifted."""
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
    draining = [r for t, r in drain_series if load_end + 0.2 <= t < drain_end]
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


# ===================================================================== #
# CORFU baseline (scaling ablation)
# ===================================================================== #


def run_corfu(point: ScenarioSpec, plan: Optional[FaultPlan]) -> Metrics:
    """The sequencer-based comparator under the Figure 8 workload shape.

    ``topology.sequencer_capacity`` is the sequencer's grant-requests/s
    ceiling (its published bottleneck); appends/s are capped near
    ``sequencer_capacity × grant_batch`` no matter how many units exist.
    """
    topo, work = point.topology, point.workload
    runtime = SimRuntime(record_size=work.record_size, chaos=plan)
    profile = resolve_profile(topo.profile)

    def place(actor: Actor) -> None:
        runtime.place_on_new_machine(actor, profile=profile)

    log = CorfuLog(
        runtime,
        n_units=topo.units,
        batch_size=work.lid_batch,
        placer=place,
        sequencer_grant_cost=1.0 / topo.sequencer_capacity,
    )
    template = _template_record(work.record_size)
    for i in range(topo.units):
        client = CorfuLoadClient(
            f"corfu/loadgen/{i}",
            log.sequencer.name,
            log.plan,
            template,
            target_rate=work.target_rate,
            grant_batch=topo.grant_batch,
        )
        runtime.place_on_new_machine(client, profile=PROFILES["load-generator"])

    runtime.run(until_time=work.duration)

    achieved = sum(
        runtime.metrics.rate(unit.name, "in_records", work.warmup, work.duration)
        for unit in log.units
    )
    grants = runtime.metrics.rate(
        log.sequencer.name, "in_messages", work.warmup, work.duration
    )
    return {
        "units": topo.units,
        "target": round(work.target_rate),
        "achieved": round(achieved),
        "sequencer_grants_per_sec": round(grants),
    }


# ===================================================================== #
# Multi-datacenter replication lag
# ===================================================================== #


def run_geo(point: ScenarioSpec, plan: Optional[FaultPlan]) -> Metrics:
    """Multi-datacenter deployments over simulated WAN links.

    Drives a fixed-size load into the first datacenter and measures how
    long past the end of the load window the *remote* datacenters need to
    incorporate everything — the geo-replication lag.  Partitions and
    message-level faults come from the spec's :class:`FaultPlan`.
    """
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
    runtime = SimRuntime(network=network, record_size=work.record_size, chaos=plan)
    profile = resolve_profile(topo.profile)

    def placer(actor: Any) -> None:
        datacenter = actor.name.split("/")[0]
        runtime.place_on_new_machine(actor, profile=profile, datacenter=datacenter)

    deployment = ChariotsDeployment(
        runtime,
        list(topo.datacenters),
        spec=_deployment_spec(topo),
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
        "records": {dc: deployment[dc].total_records() for dc in topo.datacenters},
        "caught_up": caught_up is not None,
        "lag_seconds": round(caught_up, 4) if caught_up is not None else None,
        "converged": deployment.converged(),
    }


# ===================================================================== #
# Functional: the real protocol stack on any runtime
# ===================================================================== #


def functional_metrics(
    deployment: ChariotsDeployment, appended: int, converged: bool, acked: int
) -> Metrics:
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


def pipeline_placement(
    datacenters: Sequence[str], workers: int
) -> Callable[[str, int], Optional[int]]:
    """Deterministic per-datacenter placement for multiproc runs.

    Datacenter ``i``'s pipeline *stages* (batchers, filters, queues,
    senders, receivers) land on worker ``2i`` and its *maintainers +
    indexers* on worker ``2i + 1`` (mod ``workers``), so a single
    ``FaultPlan.kill()`` can target exactly "one stage worker" or "one
    maintainer worker" of a datacenter by actor name.  Control-plane actors
    stay in the parent.
    """
    order = {dc: i for i, dc in enumerate(sorted(datacenters))}
    stage_markers = ("batcher", "filter", "queue", "sender", "receiver")
    store_markers = ("store", "indexer")

    def placement(name: str, w: int) -> Optional[int]:
        if w <= 0:
            return None
        dc = name.split("/", 1)[0]
        if dc not in order:
            return None
        lowered = name.lower()
        if any(marker in lowered for marker in store_markers):
            return (2 * order[dc] + 1) % w
        if any(marker in lowered for marker in stage_markers):
            return (2 * order[dc]) % w
        return None

    return placement


def run_functional(point: ScenarioSpec, plan: Optional[FaultPlan]) -> Metrics:
    """The real protocol stack, functionally: append, settle, converge.

    One path and one outcome record on every runtime; only the runtime
    constructed differs.  ``local`` is deterministic (virtual clock); ``aio``
    (TCP) and ``multiproc`` (worker processes under
    :func:`pipeline_placement`) are wall-clock.  One client per datacenter
    appends ``workload.append_records`` records, then the deployment
    settles.  A plan with crashes or kills is supervised — every maintainer
    restarts from its journal, a file journal when worker processes hold
    it — and settling starts once every append is acked and every crash
    and kill has been recovered from.
    """
    topo, work = point.topology, point.workload
    dcs = list(topo.datacenters)
    runtime: BaseRuntime
    if point.runtime == "aio":
        runtime = AioRuntime(chaos=plan)
    elif point.runtime == "multiproc":
        placement = pipeline_placement(dcs, topo.workers)
        runtime = MultiprocRuntime(workers=topo.workers, placement=placement, chaos=plan)
    else:
        runtime = LocalRuntime(chaos=plan)
    supervised = plan is not None and bool(plan.crashes or plan.kills)
    deployment = ChariotsDeployment(
        runtime,
        dcs,
        spec=_deployment_spec(topo),
        batch_size=work.lid_batch,
        pipeline_config=point.pipeline_config() if point.pipeline else None,
        flstore_config=point.flstore_config(),
    )
    journals = (
        tempfile.TemporaryDirectory(prefix="repro-journals-")
        if supervised and point.runtime == "multiproc"
        else None
    )
    try:
        supervisor = (
            deployment.supervise(journal_dir=journals.name if journals else None)
            if supervised
            else None
        )
        acks: List[Any] = []
        for dc in dcs:
            client = deployment.client(dc)
            for i in range(work.append_records):
                client.append(f"{dc}-{i}", on_done=acks.append)
        appended = work.append_records * len(dcs)
        if plan is not None and supervisor is not None:

            def recovered() -> bool:
                """Every append acked; every crash and kill recovered from."""
                killed = min(plan.stats["workers_killed"], len(supervisor.recoveries))
                return (
                    len(acks) == appended
                    and killed >= len(plan.kills)
                    and all(supervisor.restarts[crash.actor] for crash in plan.crashes)
                )

            runtime.run_until(recovered, timeout=work.settle_seconds)
        converged = deployment.settle(max_seconds=work.settle_seconds)
        metrics = functional_metrics(deployment, appended, converged, len(acks))
        metrics["loss_accounting"] = runtime.loss_accounting
        if supervisor is not None:
            metrics["restarts"] = int(sum(supervisor.restarts.values()))
            metrics["recoveries"] = len(supervisor.recoveries)
            metrics["messages_dropped"] = runtime.messages_dropped
        return metrics
    finally:
        runtime.stop()
        if journals is not None:
            for pipe in deployment.pipelines.values():
                for journal in (pipe.journals or {}).values():
                    journal.close()
            journals.cleanup()


#: Each kind's run of one sweep point.
EXECUTORS: Dict[str, Callable[[ScenarioSpec, Optional[FaultPlan]], Metrics]] = {
    "flstore": run_flstore,
    "pipeline": run_pipeline,
    "corfu": run_corfu,
    "geo": run_geo,
    "functional": run_functional,
}

#: Each kind's headline metric, used to pick a sweep's best point
#: (Figure 7's "peak at 150K" claim).
PRIMARY_METRIC: Dict[str, str] = {"flstore": "achieved", "corfu": "achieved"}
