"""Capacity-model harness: builds simulated deployments matching §7's setups.

Every experiment in the paper's evaluation maps to one function here:

* :func:`run_flstore_sim` — client machines offering a target append load to
  an FLStore deployment (Figures 7 and 8).
* :func:`run_pipeline_sim` — a full single-datacenter Chariots pipeline
  under client load, reporting per-machine throughput (Tables 2–5) and
  per-second timeseries (Figure 9).
* :func:`run_corfu_sim` — the CORFU-style sequencer baseline under the same
  load (the scaling ablation).

All functions return plain result objects with the measured rates; the
executors (:mod:`.executors`) turn them into the aggregates documents the
catalog's invariants assert the paper's qualitative claims over.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..chaos.plan import FaultPlan

from ..baseline.corfu import CorfuLog
from ..baseline.sequencer import ReservedRange, SequencerRequest
from ..chariots.messages import DraftBatch, DraftRecord
from ..chariots.pipeline import DatacenterPipeline
from ..core.config import (
    PRIVATE_CLOUD,
    PUBLIC_CLOUD,
    DeploymentSpec,
    FLStoreConfig,
    MachineProfile,
    PipelineConfig,
)
from ..flstore.messages import AppendRequest, PlaceRecords
from ..flstore.range_map import OwnershipPlan
from ..flstore.store import FLStore
from ..core.record import Record
from ..runtime.actor import Actor
from ..sim.kernel import SimRuntime
from ..sim.workload import LoadClient

#: Machine profile for pure load generators (Figures 7–8 drive maintainers
#: from separate machines whose own capacity must not be the bottleneck).
GENERATOR = MachineProfile(
    name="load-generator",
    per_record_cost=1.0 / 4_000_000,
    nic_bandwidth_bytes=10e9 / 8,
    saturation_queue=1_000_000,
    overload_penalty=0.0,
)


def _template_record(record_size: int, host: str = "bench") -> Record:
    """A single reusable record of the experiment's wire size (512 B, §7)."""
    return Record.make(host, 1, b"\x00" * record_size)


# ===================================================================== #
# FLStore (Figures 7 and 8)
# ===================================================================== #


@dataclass
class FLStoreSimResult:
    n_maintainers: int
    target_per_maintainer: float
    achieved_total: float
    per_maintainer: Dict[str, float]
    duration: float
    records_stored: int
    #: Head of the log (HL) as gossip left it at the end of the run, and the
    #: highest LId actually assigned — their gap is the HL staleness.
    head_of_log: int = -1
    max_assigned_lid: int = -1

    @property
    def head_lag_records(self) -> int:
        """Records assigned but not yet covered by the head of the log."""
        return max(0, self.max_assigned_lid - self.head_of_log)

    @property
    def achieved_per_maintainer(self) -> float:
        return self.achieved_total / self.n_maintainers

    @property
    def perfect_scaling_fraction(self) -> float:
        """Achieved vs (n × single-maintainer achieved at the same target)."""
        singles = list(self.per_maintainer.values())
        best = max(singles) if singles else 0.0
        if best <= 0:
            return 0.0
        return self.achieved_total / (best * self.n_maintainers)


def run_flstore_sim(
    n_maintainers: int = 1,
    target_per_maintainer: float = 125_000.0,
    maintainer_profile: MachineProfile = PUBLIC_CLOUD,
    duration: float = 1.5,
    warmup: float = 0.4,
    client_batch: int = 500,
    record_size: int = 512,
    lid_batch: int = 1000,
    gossip_interval: float = 0.005,
    shared_nic: bool = False,
    config: Optional[FLStoreConfig] = None,
    chaos: Optional["FaultPlan"] = None,
) -> FLStoreSimResult:
    """Offer ``target_per_maintainer`` appends/s to each maintainer (§7.1).

    One generator client machine per maintainer, as in the paper ("an
    identical number of client machines were used to generate records").
    ``chaos`` installs a seeded :class:`~repro.chaos.plan.FaultPlan` on the
    simulated network (the scenario harness's fault injection path).
    """
    runtime = SimRuntime(record_size=record_size, chaos=chaos)
    if config is None:
        config = FLStoreConfig(batch_size=lid_batch, gossip_interval=gossip_interval)

    def place_data(actor: Actor) -> None:
        runtime.place_on_new_machine(
            actor, profile=maintainer_profile, shared_nic=shared_nic
        )

    store = FLStore(
        runtime,
        n_maintainers=n_maintainers,
        n_indexers=0,
        batch_size=lid_batch,
        config=config,
        placer=place_data,
    )

    template = _template_record(record_size)

    def factory(client_name: str, batch_index: int, n: int) -> AppendRequest:
        return AppendRequest(
            request_id=batch_index, records=[template] * n, want_results=False
        )

    for i, maintainer in enumerate(store.maintainers):
        client = LoadClient(
            f"loadgen/{i}",
            targets=[maintainer.name],
            batch_factory=factory,
            target_rate=target_per_maintainer,
            batch_size=client_batch,
            max_outstanding=8,
        )
        runtime.place_on_new_machine(client, profile=GENERATOR)

    runtime.run(until_time=duration)

    per_maintainer = {
        m.name: runtime.metrics.rate(m.name, "in_records", warmup, duration)
        for m in store.maintainers
    }
    max_assigned = max(m.core.max_stored_lid for m in store.maintainers)
    return FLStoreSimResult(
        n_maintainers=n_maintainers,
        target_per_maintainer=target_per_maintainer,
        achieved_total=sum(per_maintainer.values()),
        per_maintainer=per_maintainer,
        duration=duration,
        records_stored=store.total_records(),
        head_of_log=store.head_of_log(),
        max_assigned_lid=max_assigned,
    )


# ===================================================================== #
# Chariots pipeline (Tables 2–5, Figure 9)
# ===================================================================== #

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


@dataclass
class PipelineSimResult:
    stage_rates: Dict[str, Dict[str, float]]  # stage -> machine -> rate
    duration: float
    records_stored: int
    timeseries: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)
    #: Host seconds spent inside ``runtime.run`` — the implementation's own
    #: cost of simulating the run, tracked by the perf-regression harness.
    wall_clock: float = 0.0

    def stage_total(self, stage: str) -> float:
        return sum(self.stage_rates.get(stage, {}).values())

    def bottleneck(self) -> str:
        """The most-upstream stage that absorbs clearly less than it is fed.

        Walking the pipeline in order, the first stage whose total rate
        falls below 95% of the previous stage's total is the constraint;
        if none does, the clients are the limit (the Table 2 situation).
        """
        order = [s for s, _, _ in PIPELINE_STAGES]
        for upstream, stage in zip(order, order[1:]):
            fed = self.stage_total(upstream)
            absorbed = self.stage_total(stage)
            if fed > 0 and absorbed < 0.95 * fed:
                return stage
        return "Client"

    def rows(self) -> List[Tuple[str, str, float]]:
        """(stage, machine, K records/s) rows, pipeline order — the tables."""
        out = []
        for stage, _prefix, _metric in PIPELINE_STAGES:
            for machine, rate in sorted(self.stage_rates.get(stage, {}).items()):
                out.append((stage, machine, rate))
        return out


def run_pipeline_sim(
    clients: int = 1,
    batchers: int = 1,
    filters: int = 1,
    queues: int = 1,
    maintainers: int = 1,
    senders: int = 1,
    receivers: int = 1,
    client_target: float = 130_000.0,
    total_records: Optional[int] = None,
    profile: MachineProfile = PRIVATE_CLOUD,
    duration: float = 1.5,
    warmup: float = 0.4,
    client_batch: int = 500,
    record_size: int = 512,
    lid_batch: int = 1000,
    timeseries_for: Tuple[str, ...] = (),
    timeseries_bin: float = 0.1,
    run_past_load: float = 0.0,
    shared_nic: bool = False,
    pipeline_config: Optional[PipelineConfig] = None,
    flstore_config: Optional[FLStoreConfig] = None,
    chaos: Optional["FaultPlan"] = None,
) -> PipelineSimResult:
    """One datacenter's full pipeline under client load (§7.2).

    ``total_records`` bounds generation (Figure 9's fixed-size experiment);
    ``run_past_load`` keeps simulating after the load window so draining
    backlogs remain observable in the timeseries.  ``pipeline_config`` /
    ``flstore_config`` / ``chaos`` let the scenario harness exercise
    backpressure limits and fault plans without bespoke setup code.
    """
    runtime = SimRuntime(record_size=record_size, chaos=chaos)
    dc = "A"

    def place_data(actor: Actor) -> None:
        runtime.place_on_new_machine(actor, profile=profile, shared_nic=shared_nic)

    pipeline = DatacenterPipeline(
        runtime,
        dc,
        [dc],
        spec=DeploymentSpec(
            clients=1,  # bench drives its own clients below
            batchers=batchers,
            filters=filters,
            queues=queues,
            maintainers=maintainers,
            senders=senders,
            receivers=receivers,
        ),
        batch_size=lid_batch,
        pipeline_config=pipeline_config
        or PipelineConfig(
            batcher_flush_threshold=client_batch,
            batcher_flush_interval=0.002,
        ),
        flstore_config=flstore_config,
        n_indexers=0,
        placer=place_data,
    )

    body = b"\x00" * record_size
    per_client = None if total_records is None else total_records // clients
    for i in range(clients):
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
            targets=[pipeline.batchers[i % batchers].name],
            batch_factory=factory,
            target_rate=client_target,
            batch_size=client_batch,
            total_records=per_client,
            max_outstanding=4,
        )
        runtime.place_on_new_machine(client, profile=profile, shared_nic=shared_nic)

    wall_start = perf_counter()
    runtime.run(until_time=duration + run_past_load)
    wall_clock = perf_counter() - wall_start

    stage_rates: Dict[str, Dict[str, float]] = {}
    for stage, prefix, metric in PIPELINE_STAGES:
        rates: Dict[str, float] = {}
        for source in runtime.metrics.sources(metric):
            if source.startswith(f"{dc}/{prefix}"):
                rates[source] = runtime.metrics.rate(source, metric, warmup, duration)
        stage_rates[stage] = rates

    timeseries: Dict[str, List[Tuple[float, float]]] = {}
    for source in timeseries_for:
        metric = "out_records" if "/client/" in source else "in_records"
        timeseries[source] = runtime.metrics.timeseries(source, metric, timeseries_bin)

    return PipelineSimResult(
        stage_rates=stage_rates,
        duration=duration,
        records_stored=pipeline.total_records(),
        timeseries=timeseries,
        wall_clock=wall_clock,
    )


# ===================================================================== #
# CORFU baseline (scaling ablation)
# ===================================================================== #


class CorfuLoadClient(Actor):
    """Paced CORFU client: reserve positions, then write to storage units."""

    def __init__(
        self,
        name: str,
        sequencer: str,
        plan: OwnershipPlan,
        template: Record,
        target_rate: float,
        grant_batch: int = 16,
        max_outstanding: int = 32,
    ) -> None:
        super().__init__(name)
        self.sequencer = sequencer
        self.plan = plan
        self.template = template
        self.target_rate = target_rate
        self.grant_batch = grant_batch
        self.max_outstanding = max_outstanding
        self._outstanding = 0
        self._request_ids = itertools.count(1)
        self.records_written = 0

    def on_start(self) -> None:
        interval = self.grant_batch / self.target_rate

        def tick() -> None:
            if self._outstanding >= self.max_outstanding:
                return
            self._outstanding += 1
            self.send(
                self.sequencer,
                SequencerRequest(next(self._request_ids), count=self.grant_batch),
            )

        self.set_timer(interval, tick, periodic=True)

    def on_message(self, sender: str, message: Any) -> None:
        if not isinstance(message, ReservedRange):
            return
        self._outstanding -= 1
        placements: Dict[str, PlaceRecords] = {}
        for offset in range(message.count):
            lid = message.start + offset
            owner = self.plan.owner(lid)
            placements.setdefault(owner, PlaceRecords()).placements.append(
                (lid, self.template)
            )
        for owner, batch in placements.items():
            self.send(owner, batch)
        self.records_written += message.count


@dataclass
class CorfuSimResult:
    n_units: int
    target_per_unit: float
    achieved_total: float
    sequencer_grants_per_second: float
    duration: float


def run_corfu_sim(
    n_units: int = 1,
    target_per_unit: float = 125_000.0,
    unit_profile: MachineProfile = PUBLIC_CLOUD,
    sequencer_capacity: float = 600_000.0,
    grant_batch: int = 16,
    duration: float = 1.5,
    warmup: float = 0.4,
    record_size: int = 512,
    lid_batch: int = 1000,
    chaos: Optional["FaultPlan"] = None,
) -> CorfuSimResult:
    """The sequencer-based comparator under the Figure 8 workload shape.

    ``sequencer_capacity`` is the sequencer's grant-requests/s ceiling (its
    published bottleneck); appends/s are capped near
    ``sequencer_capacity × grant_batch`` no matter how many units exist.
    """
    runtime = SimRuntime(record_size=record_size, chaos=chaos)

    def place_data(actor: Actor) -> None:
        runtime.place_on_new_machine(actor, profile=unit_profile)

    log = CorfuLog(
        runtime,
        n_units=n_units,
        batch_size=lid_batch,
        placer=place_data,
        sequencer_grant_cost=1.0 / sequencer_capacity,
    )
    template = _template_record(record_size)
    for i in range(n_units):
        client = CorfuLoadClient(
            f"corfu/loadgen/{i}",
            log.sequencer.name,
            log.plan,
            template,
            target_rate=target_per_unit,
            grant_batch=grant_batch,
        )
        runtime.place_on_new_machine(client, profile=GENERATOR)

    runtime.run(until_time=duration)

    achieved = sum(
        runtime.metrics.rate(unit.name, "in_records", warmup, duration)
        for unit in log.units
    )
    grants = runtime.metrics.rate(log.sequencer.name, "in_messages", warmup, duration)
    return CorfuSimResult(
        n_units=n_units,
        target_per_unit=target_per_unit,
        achieved_total=achieved,
        sequencer_grants_per_second=grants,
        duration=duration,
    )
