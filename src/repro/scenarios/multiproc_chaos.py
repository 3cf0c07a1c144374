"""Process-chaos driver: a supervised Chariots deployment under SIGKILLs.

:func:`run_deployment_multiproc_chaos` runs a full deployment on the
:class:`~repro.runtime.multiproc.MultiprocRuntime` (real worker OS
processes) while a :class:`~repro.chaos.plan.FaultPlan`'s ``kill()`` events
take workers down mid-run, and reports the functional outcome plus the
recovery metrics.  :func:`pipeline_placement` pins each datacenter's stages
and maintainers to known workers so a kill can name its victim by actor.
"""

from __future__ import annotations

import tempfile
from time import perf_counter
from typing import Any, Callable, Dict, Optional, Sequence

from ..chaos.plan import FaultPlan
from ..chariots.pipeline import ChariotsDeployment
from ..runtime.multiproc import MultiprocRuntime
from ..runtime.supervisor import ProcessSupervisor
from .executors import drive_functional


def pipeline_placement(
    datacenters: Sequence[str], workers: int
) -> Callable[[str, int], Optional[int]]:
    """Deterministic per-datacenter placement for chaos runs.

    Datacenter ``i``'s pipeline *stages* (batchers, filters, queues,
    senders, receivers) land on worker ``2i`` and its *maintainers +
    indexers* on worker ``2i + 1`` (mod ``workers``), so a single
    ``FaultPlan.kill()`` can target exactly "one stage worker" or "one
    maintainer worker" of a datacenter by actor name.  Control-plane actors
    stay in the parent.
    """
    order = {dc: i for i, dc in enumerate(sorted(datacenters))}
    stage_markers = ("batcher", "filter", "queue", "sender", "receiver")
    store_markers = ("store", "maintainer", "indexer")

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


def run_deployment_multiproc_chaos(
    datacenters: Sequence[str] = ("A", "B"),
    workers: int = 4,
    appends: int = 24,
    batch_size: int = 8,
    plan: Optional[FaultPlan] = None,
    journal_dir: Optional[str] = None,
    timeout: float = 120.0,
) -> Dict[str, Any]:
    """One full Chariots deployment on real processes, under process chaos.

    Runs ``appends`` client appends (an equal share per datacenter) through
    a supervised :class:`MultiprocRuntime` with the functional executor's
    drive, while ``plan``'s ``kill()`` events SIGKILL workers mid-run (and
    its rules and partitions, if any, fault the routed messages); waits
    for every recovery to complete and the log to converge, and returns the
    outcome + recovery metrics.  Shared by the ``multiproc-crash-recovery``
    scenario entry, the ``-m slow`` acceptance test, and the CI chaos smoke
    job.
    """
    kills_expected = len(plan.kills) if plan is not None else 0
    dcs = list(datacenters)
    owned_dir: Optional[tempfile.TemporaryDirectory] = None
    if journal_dir is None:
        owned_dir = tempfile.TemporaryDirectory(prefix="repro-mp-journals-")
        journal_dir = owned_dir.name
    runtime = MultiprocRuntime(
        workers=workers,
        placement=pipeline_placement(dcs, workers),
        chaos=plan,
    )
    try:
        deployment = ChariotsDeployment(runtime, dcs, batch_size=batch_size)
        supervisor = ProcessSupervisor()
        deployment.supervise(supervisor, journal_dir=journal_dir)

        def recovered() -> bool:
            """Every scheduled kill has fired and been recovered from."""
            killed = plan.stats["workers_killed"] if plan is not None else 0
            return min(killed, len(supervisor.recoveries)) >= kills_expected

        started = perf_counter()
        outcome = drive_functional(deployment, appends // len(dcs), timeout, ready=recovered)
        wall = perf_counter() - started
        recovery_seconds = [r["seconds"] for r in supervisor.recoveries]
        return {
            **outcome,
            "workers_killed": int(plan.stats["workers_killed"]) if plan is not None else 0,
            "messages_dropped": runtime.messages_dropped,
            "recoveries": len(supervisor.recoveries),
            "frames_replayed": sum(r["replayed"] for r in supervisor.recoveries),
            "recovery_seconds_max": round(max(recovery_seconds), 3)
            if recovery_seconds
            else 0.0,
            "recovery_seconds_mean": round(
                sum(recovery_seconds) / len(recovery_seconds), 3
            )
            if recovery_seconds
            else 0.0,
            "loss_accounting": dict(runtime.loss_accounting),
            "snapshots_received": runtime.snapshots_received,
            "snapshot_bytes": runtime.snapshot_bytes,
            "uncommitted_peak_bytes": runtime.uncommitted_peak_bytes,
            "wall_clock_seconds": round(wall, 3),
        }
    finally:
        runtime.stop()
        if owned_dir is not None:
            owned_dir.cleanup()
