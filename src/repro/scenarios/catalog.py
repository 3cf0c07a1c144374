"""The scenario catalog: every experiment of the paper's evaluation — and
the repo's own soak/overload/chaos workloads — as declarative entries.

Figures 7–9 and Tables 2–5 are ``paper-figure`` entries whose invariants
encode the paper's qualitative claims (peak at 150 K, the batcher then the
filter becoming the bottleneck, near-linear FLStore scaling, the Figure 9
drain surge).  The deterministic subset runs as a pytest regression suite
(``tests/test_scenarios_catalog.py``) — a paper claim breaking fails
``make check``.

Tags:

* ``paper-figure`` — a figure/table of §7; deterministic, invariant-checked.
* ``soak`` / ``chaos`` — seeded fault-plan runs (partitions, drops, dups).
* ``overload`` — offered load far past capacity, exercising the pipeline's
  high-water-mark backpressure limits.
* ``geo`` — multi-datacenter deployments over simulated WAN links.
* ``ablation`` — parameter sweeps beyond the paper's own figures.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.errors import ConfigurationError
from .spec import Invariant, ScenarioSpec, TopologySpec, WorkloadSpec

__all__ = ["CATALOG", "get", "names", "select", "tags_in_use"]


def _fig7() -> ScenarioSpec:
    targets = [25_000, 50_000, 75_000, 100_000, 125_000, 150_000,
               175_000, 200_000, 250_000, 300_000]
    invariants: List[Invariant] = [
        # Below the knee, achieved tracks target (§7.1).
        Invariant(metric=f"points.{i}.achieved", op="approx",
                  other=f"points.{i}.target", rel=0.05,
                  note="below the knee achieved tracks target")
        for i in range(5)
    ]
    invariants += [
        Invariant(metric="best.target", op="eq", value=150_000,
                  note="maximum throughput at target 150K"),
        Invariant(metric="points.9.achieved", op="lt", other="points.5.achieved",
                  note="overload degrades past the peak"),
        Invariant(metric="points.9.achieved", op="approx", value=120_000, rel=0.08,
                  note="drops to around 120K appends per second"),
    ]
    return ScenarioSpec(
        name="fig7-single-maintainer",
        title="Figure 7: one public-cloud maintainer, achieved vs target",
        kind="flstore",
        tags=("paper-figure",),
        topology=TopologySpec(maintainers=1, profile="public-cloud"),
        workload=WorkloadSpec(target_rate=150_000, duration=1.2, warmup=0.4),
        sweep=tuple(
            {"label": f"target-{t // 1000}k", "workload": {"target_rate": t}}
            for t in targets
        ),
        invariants=tuple(invariants),
    )


def _fig8(slug: str, profile: str, target: float) -> ScenarioSpec:
    counts = [1, 2, 4, 6, 8, 10]
    return ScenarioSpec(
        name=f"fig8-scaling-{slug}",
        title=f"Figure 8: FLStore scaling — {profile}, target {target / 1000:.0f}K",
        kind="flstore",
        tags=("paper-figure",),
        topology=TopologySpec(maintainers=1, profile=profile),
        workload=WorkloadSpec(target_rate=target, duration=1.0, warmup=0.3),
        sweep=tuple(
            {"label": f"m{n}", "topology": {"maintainers": n}} for n in counts
        ),
        invariants=(
            Invariant(metric="points.5.scaling_fraction", op="gt", value=0.97,
                      note="99.3%/99.9% of perfect scaling at ten maintainers"),
            Invariant(metric="points.5.achieved", op="approx",
                      other="points.0.achieved", scale=10, rel=0.05,
                      note="ten maintainers achieve ten times one"),
        ),
    )


def _fig9() -> ScenarioSpec:
    sources = ("A/client/0", "A/batcher/0", "A/queue/0")
    return ScenarioSpec(
        name="fig9-stage-timeseries",
        title="Figure 9: client/batcher/queue throughput over time (shared NIC)",
        kind="pipeline",
        tags=("paper-figure",),
        topology=TopologySpec(
            clients=2, batchers=2, profile="fig9-shared-nic", shared_nic=True
        ),
        workload=WorkloadSpec(
            target_rate=130_000,
            duration=1.5,
            warmup=0.2,
            total_records=240_000,
            run_past_load=2.0,
            timeseries_sources=sources,
            timeseries_bin=0.2,
            drain_probe=("A/client/0", "A/queue/0"),
        ),
        invariants=(
            Invariant(metric="points.0.records_stored", op="eq", value=240_000,
                      note="the fixed-size workload is fully stored"),
            Invariant(metric="points.0.drain.gap", op="gt", value=0.4,
                      note="latter stages outlast the clients"),
            Invariant(metric="points.0.drain.surge_ratio", op="gt", value=1.25,
                      note="abrupt queue surge once the filter NIC frees up"),
        ),
    )


_STAGES = ("Client", "Batcher", "Filter", "Queue", "Store")

#: Table 2/3 single-machine deployment and Table 4/5 widenings, as sweep
#: overrides (the paper's Tables 2–5 are sweeps over DeploymentSpec).
_BASIC = {"clients": 1, "batchers": 1, "filters": 1, "queues": 1,
          "maintainers": 1, "senders": 1, "receivers": 1}


def _table(name: str, title: str,
           sweep: Sequence[Dict[str, Dict[str, int]]],
           invariants: Sequence[Invariant]) -> ScenarioSpec:
    return ScenarioSpec(
        name=name,
        title=title,
        kind="pipeline",
        tags=("paper-figure",),
        workload=WorkloadSpec(target_rate=130_000, duration=1.5, warmup=0.4),
        sweep=tuple(sweep),
        invariants=tuple(invariants),
    )


def _table2() -> ScenarioSpec:
    invariants = [
        Invariant(metric=f"points.0.stage_totals.{stage}", op="approx",
                  other="points.0.stage_totals.Client", rel=0.06,
                  note="all stages track the client rate (Table 2)")
        for stage in _STAGES[1:]
    ]
    invariants += [
        Invariant(metric="points.0.stage_totals.Client", op="between",
                  band=(120_000, 135_000), note="124-132K records/s per machine"),
        Invariant(metric="points.0.bottleneck", op="eq", value="Client",
                  note="the bottleneck is possibly due to the clients"),
    ]
    return _table(
        "table2-basic-pipeline",
        "Table 2: basic Chariots deployment, one machine per stage",
        [{"label": "basic", "topology": dict(_BASIC)}],
        invariants,
    )


def _table3() -> ScenarioSpec:
    return _table(
        "table3-two-clients",
        "Table 3: two clients overload the single batcher",
        [
            {"label": "basic", "topology": dict(_BASIC)},
            {"label": "two-clients", "topology": {**_BASIC, "clients": 2}},
        ],
        [
            Invariant(metric="points.1.bottleneck", op="eq", value="Batcher",
                      note="the batcher is possibly the bottleneck"),
            Invariant(metric="points.1.stage_totals.Batcher", op="lt",
                      other="points.0.stage_totals.Batcher",
                      note="doubling offered load lowers batcher throughput"),
            Invariant(metric="points.1.stage_totals.Store", op="approx",
                      other="points.1.stage_totals.Batcher", rel=0.06,
                      note="downstream sees only what the batcher emits"),
        ],
    )


def _table4() -> ScenarioSpec:
    return _table(
        "table4-two-batchers",
        "Table 4: two clients + two batchers push the bottleneck to the filter",
        [
            {"label": "one-batcher", "topology": {**_BASIC, "clients": 2}},
            {"label": "two-batchers", "topology": {**_BASIC, "clients": 2, "batchers": 2}},
        ],
        [
            Invariant(metric="points.1.bottleneck", op="eq", value="Filter",
                      note="now the bottleneck is pushed to the filter stage"),
            Invariant(metric="points.1.stage_totals.Batcher", op="gt",
                      other="points.0.stage_totals.Batcher", scale=1.8,
                      note="the batcher stage roughly doubled"),
            Invariant(metric="points.1.stage_totals.Filter", op="ratio_between",
                      other="points.1.stage_totals.Batcher", band=(0.4, 0.6),
                      note="latter stages run at almost half the batchers"),
            Invariant(metric="points.1.stage_totals.Filter", op="approx",
                      value=120_000, rel=0.08, note="filter absorbs ~120K"),
        ],
    )


def _table5() -> ScenarioSpec:
    doubled = {k: 2 for k in _BASIC}
    invariants = [
        Invariant(metric=f"points.1.stage_totals.{stage}", op="approx",
                  other=f"points.0.stage_totals.{stage}", scale=2, rel=0.08,
                  note="the throughput of each stage has doubled (Table 5)")
        for stage in _STAGES
    ]
    invariants += [
        Invariant(metric="points.1.stage_rates.Batcher.A/batcher/1", op="approx",
                  other="points.0.stage_totals.Batcher", rel=0.1,
                  note="each machine stays close to the basic single-machine rate"),
        Invariant(metric="points.1.stage_rates.Store.A/store/1", op="approx",
                  other="points.0.stage_totals.Store", rel=0.1,
                  note="each machine stays close to the basic single-machine rate"),
    ]
    return _table(
        "table5-two-per-stage",
        "Table 5: two machines at every stage — all stages scale",
        [
            {"label": "basic", "topology": dict(_BASIC)},
            {"label": "doubled", "topology": doubled},
        ],
        invariants,
    )


def _overload() -> ScenarioSpec:
    return ScenarioSpec(
        name="overload-backpressure",
        title="Overload: 3x offered load against one batcher with tight buffer limits",
        kind="pipeline",
        tags=("overload", "soak"),
        topology=TopologySpec(clients=3),
        workload=WorkloadSpec(target_rate=130_000, duration=1.2, warmup=0.4),
        # Tight high-water marks (PR 4's backpressure limits): the pipeline
        # must shed load at the batcher, not buffer without bound.
        pipeline={
            "batcher_flush_threshold": 500,
            "batcher_flush_interval": 0.002,
            "batcher_buffer_limit": 2000,
            "queue_buffer_limit": 4096,
            "sender_buffer_limit": 4096,
        },
        invariants=(
            Invariant(metric="points.0.bottleneck", op="eq", value="Batcher",
                      note="overload lands on the first funnel stage"),
            Invariant(metric="points.0.stage_totals.Batcher", op="lt",
                      other="points.0.stage_totals.Client", scale=0.5,
                      note="the batcher sheds most of the 3x offered load"),
            Invariant(metric="points.0.stage_totals.Store", op="approx",
                      other="points.0.stage_totals.Batcher", rel=0.06,
                      note="admitted records still flow through bounded buffers"),
            Invariant(metric="points.0.records_stored", op="gt", value=0),
        ),
        notes="Exercises batcher/queue/sender high-water marks under 3x load.",
    )


def _geo_replication_lag() -> ScenarioSpec:
    intervals = [0.005, 0.04, 0.16]
    return ScenarioSpec(
        name="geo-replication-lag",
        title="Geo: sender shipping interval vs replication lag (WAN RTT 60 ms)",
        kind="geo",
        tags=("geo", "ablation"),
        topology=TopologySpec(datacenters=("A", "B"), wan_rtt=0.060),
        workload=WorkloadSpec(
            target_rate=20_000, client_batch=200, total_records=10_000,
            duration=1.0, warmup=0.2, settle_seconds=5.0,
        ),
        sweep=tuple(
            {"label": f"ship-{round(i * 1000)}ms",
             "pipeline": {"replication_interval": i}}
            for i in intervals
        ),
        invariants=(
            Invariant(metric="points.2.lag_seconds", op="gt",
                      other="points.0.lag_seconds",
                      note="lag grows with the shipping interval"),
            Invariant(metric="points.0.lag_seconds", op="ge", value=0.015,
                      note="the WAN one-way latency is the floor"),
            Invariant(metric="points.0.converged", op="eq", value=True),
            Invariant(metric="points.2.converged", op="eq", value=True),
        ),
    )


def _geo_partition_soak() -> ScenarioSpec:
    return ScenarioSpec(
        name="geo-partition-soak",
        title="Geo soak: WAN partition during load, duplicates on heal, full catch-up",
        kind="geo",
        tags=("geo", "soak", "chaos"),
        topology=TopologySpec(datacenters=("A", "B"), wan_rtt=0.060),
        workload=WorkloadSpec(
            target_rate=10_000, client_batch=200, total_records=10_000,
            duration=1.0, warmup=0.2, settle_seconds=10.0,
        ),
        faults={
            "seed": 11,
            "rules": [
                # After the heal, the retransmission burst is stressed with
                # duplicated and reordered cross-datacenter deliveries.
                {"kind": "duplicate", "dst": "B/", "probability": 0.2,
                 "delay": 0.01, "start": 1.6},
                {"kind": "reorder", "dst": "B/", "probability": 0.3,
                 "delay": 0.02, "start": 1.6},
            ],
            "crashes": [],
            "partitions": [{"a": "A/", "b": "B/", "start": 0.2, "end": 1.6}],
        },
        invariants=(
            Invariant(metric="points.0.caught_up", op="eq", value=True,
                      note="the remote datacenter catches up after the heal"),
            Invariant(metric="points.0.converged", op="eq", value=True),
            Invariant(metric="points.0.records.B", op="eq",
                      other="points.0.records.A",
                      note="no records lost to the partition"),
            Invariant(metric="faults.partitioned", op="gt", value=0,
                      note="the partition actually severed traffic"),
        ),
        notes="Senders retransmit with backoff through a 1.4 s partition.",
    )


def _flstore_chaos_soak() -> ScenarioSpec:
    return ScenarioSpec(
        name="flstore-chaos-soak",
        title="Chaos soak: FLStore throughput under gossip drops and duplicates",
        kind="flstore",
        tags=("chaos", "soak"),
        topology=TopologySpec(maintainers=2, profile="private-cloud"),
        workload=WorkloadSpec(target_rate=100_000, duration=1.0, warmup=0.3),
        faults={
            "seed": 7,
            "rules": [
                {"kind": "delay", "dst": "store/", "probability": 0.05,
                 "delay": 0.002},
                {"kind": "duplicate", "message_type": "GossipHL",
                 "probability": 0.2, "delay": 0.01},
                {"kind": "drop", "message_type": "GossipHL", "probability": 0.1},
            ],
            "crashes": [],
            "partitions": [],
        },
        invariants=(
            Invariant(metric="points.0.achieved", op="approx", value=200_000,
                      rel=0.1, note="gossip faults are off the data path"),
            Invariant(metric="faults.dropped", op="gt", value=0),
            Invariant(metric="faults.duplicated", op="gt", value=0),
        ),
    )


def _corfu_ceiling() -> ScenarioSpec:
    return ScenarioSpec(
        name="corfu-sequencer-ceiling",
        title="Ablation: the CORFU-style sequencer caps cluster appends",
        kind="corfu",
        tags=("ablation",),
        topology=TopologySpec(units=1, profile="public-cloud",
                              sequencer_capacity=30_000.0, grant_batch=16),
        workload=WorkloadSpec(target_rate=125_000, duration=1.0, warmup=0.3),
        sweep=tuple(
            {"label": f"u{n}", "topology": {"units": n}} for n in (1, 4, 8)
        ),
        invariants=(
            Invariant(metric="points.0.achieved", op="approx", value=125_000,
                      rel=0.05, note="one unit is not sequencer-limited"),
            Invariant(metric="points.2.achieved", op="approx",
                      other="points.1.achieved", rel=0.02,
                      note="doubling units past saturation gains nothing"),
            Invariant(metric="points.2.achieved", op="lt",
                      other="points.2.target", scale=8,
                      note="the shared sequencer prevents linear scaling"),
        ),
    )


def _functional(runtime: str) -> ScenarioSpec:
    return ScenarioSpec(
        name=f"functional-convergence-{runtime}",
        title=f"Functional: two datacenters converge on the {runtime} runtime",
        kind="functional",
        runtime=runtime,
        tags=("functional",) + (("net",) if runtime != "local" else ()),
        # Multiproc: two unsupervised workers under the default placement.
        topology=TopologySpec(
            datacenters=("A", "B"), workers=2 if runtime == "multiproc" else 0
        ),
        workload=WorkloadSpec(lid_batch=8, append_records=12, settle_seconds=30.0),
        invariants=(
            Invariant(metric="points.0.converged", op="eq", value=True),
            Invariant(metric="points.0.causal_order_ok", op="eq", value=True),
            Invariant(metric="points.0.records.A", op="eq",
                      other="points.0.records.B"),
            Invariant(metric="points.0.acked", op="eq",
                      other="points.0.appended"),
        ),
    )


def _crash_during_partition() -> ScenarioSpec:
    # The ROADMAP chaos soak: a maintainer dies while its datacenter is cut
    # off from the WAN, so journal-replay recovery and partition catch-up
    # overlap — the log must still come out gap-free and convergent.
    return ScenarioSpec(
        name="crash-during-partition",
        title="Chaos soak: maintainer crash inside a WAN partition window",
        kind="functional",
        runtime="local",
        tags=("chaos", "soak", "functional"),
        topology=TopologySpec(datacenters=("A", "B")),
        workload=WorkloadSpec(lid_batch=8, append_records=16, settle_seconds=60.0),
        faults={
            "seed": 13,
            "rules": [],
            "crashes": [{"actor": "A/store/0", "at": 0.1}],
            "kills": [],
            "partitions": [{"a": "A/", "b": "B/", "start": 0.02, "end": 0.8}],
        },
        invariants=(
            Invariant(metric="points.0.converged", op="eq", value=True),
            Invariant(metric="points.0.causal_order_ok", op="eq", value=True),
            Invariant(metric="points.0.gap_free", op="eq", value=True,
                      note="journal replay leaves no hole in the log"),
            Invariant(metric="points.0.duplicate_free", op="eq", value=True,
                      note="replay + partition retransmits assign no LId twice"),
            Invariant(metric="points.0.records.A", op="eq",
                      other="points.0.records.B",
                      note="pipeline outcome matches the abstract log"),
            Invariant(metric="points.0.restarts", op="ge", value=1,
                      note="the supervisor actually restarted the victim"),
            Invariant(metric="faults.partitioned", op="gt", value=0,
                      note="the partition actually severed traffic"),
        ),
        notes="Crash at 0.1s lands inside the 0.02-0.8s A/B partition "
              "(virtual time; the whole run converges in about a second).",
    )


def _rolling_maintainer_restart() -> ScenarioSpec:
    # Every maintainer in the deployment crashes once, staggered, under
    # continuous client load — the rolling-restart elasticity drill.
    return ScenarioSpec(
        name="rolling-maintainer-restart",
        title="Chaos soak: rolling restart of every maintainer under load",
        kind="functional",
        runtime="local",
        tags=("chaos", "soak", "functional"),
        topology=TopologySpec(datacenters=("A", "B"), maintainers=2),
        workload=WorkloadSpec(lid_batch=8, append_records=32, settle_seconds=60.0),
        faults={
            "seed": 17,
            "rules": [],
            "crashes": [
                {"actor": "A/store/0", "at": 0.01},
                {"actor": "A/store/1", "at": 0.03},
                {"actor": "B/store/0", "at": 0.05},
                {"actor": "B/store/1", "at": 0.07},
            ],
            "kills": [],
            "partitions": [],
        },
        invariants=(
            Invariant(metric="points.0.converged", op="eq", value=True),
            Invariant(metric="points.0.causal_order_ok", op="eq", value=True),
            Invariant(metric="points.0.gap_free", op="eq", value=True),
            Invariant(metric="points.0.duplicate_free", op="eq", value=True),
            Invariant(metric="points.0.acked", op="eq",
                      other="points.0.appended",
                      note="no client append is lost across the restarts"),
            Invariant(metric="points.0.restarts", op="ge", value=4,
                      note="all four maintainers were restarted"),
        ),
        notes="Crashes staggered 20ms apart (virtual time) so at most one "
              "maintainer per datacenter is down at a time.",
    )


def _multiproc_crash_recovery() -> ScenarioSpec:
    # The acceptance scenario for process-level supervision: SIGKILL one
    # stage worker and one maintainer worker mid-run (real OS processes),
    # and require the same outcome as a fault-free run plus bounded,
    # invariant-checked recovery time.
    return ScenarioSpec(
        name="multiproc-crash-recovery",
        title="Chaos: SIGKILL a stage worker and a maintainer worker mid-run",
        kind="functional",
        runtime="multiproc",
        tags=("chaos", "functional", "net"),
        topology=TopologySpec(datacenters=("A", "B"), workers=4),
        workload=WorkloadSpec(lid_batch=8, append_records=12, settle_seconds=120.0),
        faults={
            "seed": 19,
            "rules": [],
            "crashes": [],
            # pipeline_placement: A's stages live on worker 0, A's
            # maintainers+indexers on worker 1 — one kill each.
            "kills": [
                {"worker": "A/batcher/0", "at": 0.15},
                {"worker": "A/store/0", "at": 0.3},
            ],
            "partitions": [],
        },
        invariants=(
            Invariant(metric="points.0.converged", op="eq", value=True),
            Invariant(metric="points.0.causal_order_ok", op="eq", value=True),
            Invariant(metric="points.0.gap_free", op="eq", value=True,
                      note="no LId lost to the kills"),
            Invariant(metric="points.0.duplicate_free", op="eq", value=True,
                      note="no LId assigned twice during replay"),
            Invariant(metric="points.0.acked", op="eq",
                      other="points.0.appended"),
            Invariant(metric="points.0.records.A", op="eq",
                      other="points.0.records.B"),
            Invariant(metric="points.0.workers_killed", op="eq", value=2,
                      note="both scheduled SIGKILLs fired"),
            Invariant(metric="points.0.recoveries", op="ge", value=2,
                      note="the supervisor respawned both workers"),
            Invariant(metric="points.0.recovery_seconds_max", op="between",
                      band=(0.0, 30.0),
                      note="detection + respawn + replay stays bounded"),
            Invariant(metric="points.0.loss_accounting", op="eq", value={},
                      note="a clean recovery gives up on no frame"),
        ),
        notes="Spawns real worker processes (excluded from the deterministic "
              "subset); the CI chaos smoke job runs this entry under a hard "
              "wall-clock timeout.",
    )


def _ablation_lid_batch() -> ScenarioSpec:
    sizes = [100, 1000, 10_000, 50_000]
    return ScenarioSpec(
        name="ablation-lid-batch-size",
        title="Ablation: LId round size vs throughput and head-of-log lag",
        kind="flstore",
        tags=("ablation",),
        topology=TopologySpec(maintainers=4, profile="public-cloud"),
        workload=WorkloadSpec(target_rate=100_000, duration=1.0, warmup=0.3),
        sweep=tuple(
            {"label": f"batch-{size}", "workload": {"lid_batch": size}}
            for size in sizes
        ),
        invariants=(
            Invariant(metric="points.3.achieved", op="approx",
                      other="points.0.achieved", rel=0.05,
                      note="throughput is insensitive to the round size"),
            Invariant(metric="points.3.head_lag", op="ge",
                      other="points.0.head_lag",
                      note="larger rounds hold the head of the log further back"),
        ),
    )


def _ablation_gossip_interval() -> ScenarioSpec:
    intervals = [0.001, 0.005, 0.02, 0.08]
    return ScenarioSpec(
        name="ablation-gossip-interval",
        title="Ablation: gossip interval vs head-of-log staleness",
        kind="flstore",
        tags=("ablation",),
        topology=TopologySpec(maintainers=4, profile="public-cloud"),
        workload=WorkloadSpec(target_rate=100_000, duration=1.0, warmup=0.3),
        sweep=tuple(
            {"label": f"gossip-{round(i * 1000)}ms",
             "flstore": {"gossip_interval": i}}
            for i in intervals
        ),
        invariants=(
            Invariant(metric="points.3.achieved", op="approx",
                      other="points.0.achieved", rel=0.05,
                      note="fixed-size gossip is off the data path"),
            Invariant(metric="points.3.head_lag", op="gt",
                      other="points.0.head_lag",
                      note="HL staleness grows with the gossip interval"),
        ),
    )


def _ablation_token_queues() -> ScenarioSpec:
    return ScenarioSpec(
        name="ablation-token-queues",
        title="Ablation: queue-stage width under the circulating token (§6.2)",
        kind="pipeline",
        tags=("ablation",),
        workload=WorkloadSpec(target_rate=130_000, duration=1.2, warmup=0.4),
        sweep=tuple(
            {"label": f"q{n}", "topology": {"queues": n}} for n in (1, 2, 4)
        ),
        invariants=(
            Invariant(metric="points.2.stage_totals.Store", op="approx",
                      other="points.0.stage_totals.Store", rel=0.06,
                      note="the token is not a throughput bottleneck"),
            Invariant(metric="points.1.stage_totals.Store", op="approx",
                      other="points.0.stage_totals.Store", rel=0.06,
                      note="widening the queue stage neither helps nor hurts"),
            Invariant(metric="points.2.stage_rates.Queue.A/queue/3", op="gt",
                      value=0, note="every queue sees a share of the work"),
        ),
    )


def _ablation_elasticity() -> ScenarioSpec:
    offered = 480_000.0
    return ScenarioSpec(
        name="ablation-elasticity",
        title="Ablation: live maintainer expansion under overload (§6.3)",
        kind="flstore",
        tags=("ablation",),
        topology=TopologySpec(
            maintainers=2, clients=4, profile="private-cloud",
            expand_maintainers=2,
        ),
        workload=WorkloadSpec(
            target_rate=offered, client_batch=500, duration=3.5, warmup=0.7,
            expand_at=1.5, max_outstanding=8,
        ),
        invariants=(
            Invariant(metric="points.0.before", op="lt",
                      other="points.0.offered", scale=0.6,
                      note="two maintainers saturate well under the offered load"),
            Invariant(metric="points.0.after", op="gt",
                      other="points.0.before", scale=1.5,
                      note="throughput steps up once the new maintainers join"),
            Invariant(metric="points.0.after", op="gt",
                      other="points.0.offered", scale=0.9,
                      note="the expanded deployment absorbs the offered load"),
        ),
        notes="workload.target_rate is the total offered load here, spread "
              "over topology.clients generators; no restart, live §6.3 "
              "future reassignment.",
    )


CATALOG: Tuple[ScenarioSpec, ...] = (
    _fig7(),
    _fig8("private-131k", "private-cloud", 131_000),
    _fig8("public-125k", "public-cloud", 125_000),
    _fig8("public-250k", "public-cloud", 250_000),
    _fig9(),
    _table2(),
    _table3(),
    _table4(),
    _table5(),
    _overload(),
    _geo_replication_lag(),
    _geo_partition_soak(),
    _flstore_chaos_soak(),
    _crash_during_partition(),
    _rolling_maintainer_restart(),
    _multiproc_crash_recovery(),
    _corfu_ceiling(),
    _ablation_lid_batch(),
    _ablation_gossip_interval(),
    _ablation_token_queues(),
    _ablation_elasticity(),
    _functional("local"),
    _functional("aio"),
    _functional("multiproc"),
)

_BY_NAME: Dict[str, ScenarioSpec] = {spec.name: spec for spec in CATALOG}
if len(_BY_NAME) != len(CATALOG):  # pragma: no cover - guarded by tests
    raise ConfigurationError("duplicate scenario names in the catalog")


def names() -> List[str]:
    return [spec.name for spec in CATALOG]


def get(name: str) -> ScenarioSpec:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario {name!r} (see `python -m repro.scenarios list`)"
        ) from None


def select(
    tags: Sequence[str] = (),
    names_filter: Sequence[str] = (),
    deterministic: Optional[bool] = None,
    runtime: Optional[str] = None,
) -> List[ScenarioSpec]:
    """Catalog entries matching all tags / any listed name / determinism /
    runtime (``sim``/``local``/``aio``/``multiproc``)."""
    out = []
    for spec in CATALOG:
        if names_filter and spec.name not in names_filter:
            continue
        if any(tag not in spec.tags for tag in tags):
            continue
        if deterministic is not None and spec.deterministic != deterministic:
            continue
        if runtime is not None and spec.runtime != runtime:
            continue
        out.append(spec)
    return out


def tags_in_use() -> List[str]:
    out: Set[str] = set()
    for spec in CATALOG:
        out.update(spec.tags)
    return sorted(out)
