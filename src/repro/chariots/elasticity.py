"""Live elasticity operations (§6.3).

Every pipeline stage scales without disrupting application clients:

* **Completely independent stages** (batchers, receivers, senders) just join
  and get announced to the upstream stage.
* **Filters** and **log maintainers** champion deterministic slices, so
  growing them uses *future reassignment*: the new mapping takes effect at a
  future TOId (filters) or LId (maintainers); old records stay with their
  old champions, and the epoch journal lets readers locate them.
* **Queues** splice into the token exchange loop — one existing queue is
  told to forward the token to the newcomer.

These functions operate on a live :class:`~repro.flstore.store.FLStore` —
a :class:`~repro.chariots.pipeline.DatacenterPipeline` is one — and place
newcomers with the deployment's own placer unless given another; the
shared ``OwnershipPlan`` / ``FilterMap`` objects play the role the
controller plays in a physical deployment (distributing mapping updates).
"""

from __future__ import annotations

from typing import List, Optional

from ..core.errors import ConfigurationError
from ..flstore.maintainer import LogMaintainer
from ..flstore.store import FLStore, Placer
from .batcher import Batcher
from .filters import FilterStage
from .pipeline import DatacenterPipeline
from .queues import QueueStage


def _refuse_worker_processes(target: FLStore) -> None:
    """Refuse started worker processes: they hold copies of the plan and
    maps pickled at ``start()``, which an expansion cannot reach."""
    from ..runtime.multiproc import MultiprocRuntime  # imports this package

    runtime = target.runtime
    if isinstance(runtime, MultiprocRuntime) and runtime.workers and runtime._started:
        raise ConfigurationError(
            "live elasticity cannot reach worker processes, which hold the plan "
            "pickled at start(); expand before start() (ROADMAP item 16)"
        )


def _future_round_boundary(plan, margin_rounds: int = 2) -> int:
    """A safe LId for a maintainer epoch switch: beyond every cursor.

    The switch must be in the future — past every maintainer's assignment
    cursor — with a safety margin for records already in flight.
    """
    epoch = plan.current_epoch
    round_span = epoch.batch_size * len(epoch.maintainers)
    high = epoch.start_lid
    return high + _ceil_multiple(margin_rounds * round_span + 1, round_span)


def _ceil_multiple(value: int, multiple: int) -> int:
    return ((value + multiple - 1) // multiple) * multiple


def expand_maintainers(
    target: FLStore,
    count: int = 1,
    placer: Optional[Placer] = None,
    from_lid: Optional[int] = None,
) -> List[LogMaintainer]:
    """Add ``count`` log maintainers via future reassignment (§6.3).

    Works on any :class:`FLStore`, a :class:`DatacenterPipeline` included.
    The new epoch keeps the old maintainers and appends the new ones,
    effective at ``from_lid`` (default: a round boundary safely past all
    cursors).
    """
    if count < 1:
        raise ConfigurationError("count must be >= 1")
    _refuse_worker_processes(target)
    place = placer or target.placer
    plan = target.plan
    old_names = list(plan.current_epoch.maintainers)
    existing = len(plan.maintainers())
    new_names = [f"{target.prefix}store/{existing + i}" for i in range(count)]
    all_names = old_names + new_names

    if from_lid is None:
        cursors = [
            m.core.next_unassigned
            for m in target.maintainers
            if m.core.next_unassigned is not None
        ]
        boundary = _future_round_boundary(plan)
        epoch = plan.current_epoch
        round_span = epoch.batch_size * len(epoch.maintainers)
        while cursors and boundary <= max(cursors):
            boundary += round_span
        from_lid = boundary

    plan.add_epoch(from_lid, all_names)

    added: List[LogMaintainer] = []
    for name in new_names:
        maintainer = target.build_maintainer(name, all_names)
        place(maintainer)
        target.maintainers.append(maintainer)
        added.append(maintainer)

    # Existing maintainers must gossip with (and await) the newcomers, and
    # the newcomers must know everyone.
    for maintainer in target.maintainers:
        for name in all_names:
            maintainer.add_peer(name)

    # Chariots pipelines: some sender must ship the new maintainers' records.
    if isinstance(target, DatacenterPipeline):
        for i, maintainer in enumerate(added):
            target.senders[i % len(target.senders)].add_maintainer(maintainer.name)
    return added


def expand_filters(
    pipeline: DatacenterPipeline,
    host: str,
    count: int = 1,
    from_toid: Optional[int] = None,
    placer: Optional[Placer] = None,
) -> List[FilterStage]:
    """Add ``count`` filters that share championing of ``host`` (§6.3).

    The reassignment takes effect at ``from_toid`` (default: safely past the
    highest TOId of ``host`` seen so far); records before it stay with the
    old champions, later ones split by TOId residue among old + new.
    """
    if count < 1:
        raise ConfigurationError("count must be >= 1")
    _refuse_worker_processes(pipeline)
    place = placer or pipeline.placer
    filter_map = pipeline.filter_map
    existing = len(filter_map.filters)
    queue_names = [q.name for q in pipeline.queues]
    new_names = [f"{pipeline.dc_id}/filter/{existing + i}" for i in range(count)]

    added: List[FilterStage] = []
    for name in new_names:
        stage = FilterStage(name, filter_map, queues=queue_names, config=pipeline.pipeline_config)
        place(stage)
        pipeline.filters.append(stage)
        added.append(stage)

    if from_toid is None:
        seen = pipeline.frontier().get(host, 0)
        from_toid = seen + 100  # margin for records already in flight

    current = filter_map.champions_for(host, from_toid)
    filter_map.reassign_host(host, current + new_names, from_toid)
    # What the reassignment took out of a filter's reorder buffer goes to
    # its new champion now, not at that filter's next message.
    for stage in pipeline.filters:
        stage.forward_misrouted()
    return added


def expand_queues(
    pipeline: DatacenterPipeline,
    count: int = 1,
    placer: Optional[Placer] = None,
) -> List[QueueStage]:
    """Splice ``count`` new queues into the token loop (§6.3).

    Two tasks, exactly as the paper lists them: (1) an existing queue is
    told to forward the token to the newcomer; (2) the filters learn the new
    queue (no coordination needed — any queue can receive any record).
    """
    if count < 1:
        raise ConfigurationError("count must be >= 1")
    _refuse_worker_processes(pipeline)
    place = placer or pipeline.placer
    added: List[QueueStage] = []
    for _ in range(count):
        index = len(pipeline.queues)
        name = f"{pipeline.dc_id}/queue/{index}"
        splice_at = pipeline.queues[-1]
        successor = splice_at.next_queue or splice_at.name
        queue = QueueStage(
            name,
            pipeline.dc_id,
            pipeline.plan,
            next_queue=successor,
            gc=splice_at.gc,
            config=pipeline.pipeline_config,
            holds_initial_token=False,
        )
        place(queue)
        splice_at.next_queue = name
        # A previously solo queue now participates in a two-queue ring.
        if successor == splice_at.name and splice_at.holds_token:
            splice_at.set_timer(pipeline.pipeline_config.token_hold_interval, splice_at._pass_token)
        pipeline.queues.append(queue)
        added.append(queue)
        for stage in pipeline.filters:
            stage.add_queue(name)
    return added


def expand_batchers(
    pipeline: DatacenterPipeline,
    count: int = 1,
    placer: Optional[Placer] = None,
) -> List[Batcher]:
    """Add ``count`` batchers and announce them to the receivers (§6.3)."""
    if count < 1:
        raise ConfigurationError("count must be >= 1")
    _refuse_worker_processes(pipeline)
    place = placer or pipeline.placer
    added: List[Batcher] = []
    for _ in range(count):
        index = len(pipeline.batchers)
        name = f"{pipeline.dc_id}/batcher/{index}"
        batcher = Batcher(name, pipeline.filter_map, config=pipeline.pipeline_config)
        place(batcher)
        pipeline.batchers.append(batcher)
        pipeline.batcher_names.append(name)
        added.append(batcher)
        for receiver in pipeline.receivers:
            receiver.add_batcher(name)
    return added
