"""One datacenter's Chariots instance: the six-stage pipeline (§6.2).

Builds and wires every stage for a datacenter on any runtime:

    clients / receivers → batchers → filters → queues → log maintainers
                                                      ↘ senders → (peers)

plus the control plane (controller for client sessions, GC coordinator for
the Awareness Table).  Inter-datacenter wiring happens afterwards via
:meth:`DatacenterPipeline.connect_peer` (the deployment object does this).
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..core.config import DeploymentSpec, FLStoreConfig, PipelineConfig
from ..core.errors import ConfigurationError
from ..core.record import DatacenterId, KnowledgeVector, LogEntry
from ..flstore.controller import Controller
from ..flstore.indexer import Indexer
from ..flstore.journal import FileJournal, MemoryJournal, recover_maintainer_core
from ..flstore.maintainer import LogMaintainer
from ..flstore.range_map import OwnershipPlan
from ..runtime.actor import Actor, Runtime
from ..runtime.supervisor import Supervisor
from .batcher import Batcher
from .client import BlockingChariotsClient, ChariotsClient
from .filters import FilterMap, FilterStage
from .gc import GcCoordinator
from .queues import QueueStage
from .receiver import Receiver
from .sender import Sender

Placer = Callable[[Actor], None]


def _partition(items: List[str], n_groups: int) -> List[List[str]]:
    """Deal ``items`` round-robin into ``n_groups`` non-empty-ish groups."""
    return [items[i::n_groups] for i in range(n_groups)]


class DatacenterPipeline:
    """All Chariots components of one datacenter."""

    def __init__(
        self,
        runtime: Runtime,
        dc_id: DatacenterId,
        datacenters: Sequence[DatacenterId],
        spec: Optional[DeploymentSpec] = None,
        batch_size: int = 1000,
        pipeline_config: Optional[PipelineConfig] = None,
        flstore_config: Optional[FLStoreConfig] = None,
        n_indexers: int = 1,
        placer: Optional[Placer] = None,
        transitive_replication: bool = False,
    ) -> None:
        self.runtime = runtime
        self.dc_id = dc_id
        self.datacenters = list(datacenters)
        self.spec = spec or DeploymentSpec()
        self.transitive_replication = transitive_replication
        self.pipeline_config = pipeline_config or PipelineConfig()
        self.flstore_config = flstore_config or FLStoreConfig()
        place = placer or (lambda actor: runtime.register(actor))
        p = f"{dc_id}/"

        maintainer_names = [f"{p}store/{i}" for i in range(self.spec.maintainers)]
        indexer_names = [f"{p}indexer/{i}" for i in range(n_indexers)]
        queue_names = [f"{p}queue/{i}" for i in range(self.spec.queues)]
        filter_names = [f"{p}filter/{i}" for i in range(self.spec.filters)]
        batcher_names = [f"{p}batcher/{i}" for i in range(self.spec.batchers)]
        receiver_names = [f"{p}receiver/{i}" for i in range(self.spec.receivers)]
        sender_names = [f"{p}sender/{i}" for i in range(self.spec.senders)]
        self.gc_name = f"{p}gc"

        self.plan = OwnershipPlan(maintainer_names, batch_size=batch_size)
        self.filter_map = FilterMap(filter_names)
        self._assign_filter_champions(filter_names)

        # Log maintainers (FLStore, placed mode) ------------------------- #
        self.maintainers: List[LogMaintainer] = []
        for name in maintainer_names:
            maintainer = LogMaintainer(
                name,
                self.plan,
                peers=maintainer_names,
                indexers=indexer_names,
                config=self.flstore_config,
            )
            place(maintainer)
            self.maintainers.append(maintainer)

        self.indexers: List[Indexer] = []
        for name in indexer_names:
            indexer = Indexer(name)
            place(indexer)
            self.indexers.append(indexer)

        # GC coordinator (control plane, never on the data path) --------- #
        self.gc = GcCoordinator(
            self.gc_name,
            dc_id,
            self.datacenters,
            maintainers=maintainer_names,
            indexers=indexer_names,
            senders=sender_names,
            config=self.pipeline_config,
        )
        runtime.register(self.gc)

        # Queues: token ring ---------------------------------------------- #
        frontier_listeners = sender_names + [self.gc_name]
        self.queues: List[QueueStage] = []
        for i, name in enumerate(queue_names):
            next_queue = (
                queue_names[(i + 1) % len(queue_names)] if len(queue_names) > 1 else None
            )
            queue = QueueStage(
                name,
                dc_id,
                self.plan,
                next_queue=next_queue,
                frontier_listeners=frontier_listeners,
                config=self.pipeline_config,
                holds_initial_token=(i == 0),
            )
            place(queue)
            self.queues.append(queue)

        # Filters ---------------------------------------------------------- #
        self.filters: List[FilterStage] = []
        for name in filter_names:
            stage = FilterStage(name, self.filter_map, queues=queue_names, config=self.pipeline_config)
            place(stage)
            self.filters.append(stage)

        # Batchers ---------------------------------------------------------- #
        self.batchers: List[Batcher] = []
        for name in batcher_names:
            batcher = Batcher(name, self.filter_map, config=self.pipeline_config)
            place(batcher)
            self.batchers.append(batcher)

        # Receivers ---------------------------------------------------------- #
        self.receivers: List[Receiver] = []
        for name in receiver_names:
            receiver = Receiver(
                name,
                dc_id,
                batchers=batcher_names,
                gc_coordinator=self.gc_name,
                config=self.pipeline_config,
            )
            place(receiver)
            self.receivers.append(receiver)

        # Senders: each ships a partition of the maintainers ---------------- #
        self.senders: List[Sender] = []
        for name, maintainer_group in zip(
            sender_names, _partition(maintainer_names, len(sender_names))
        ):
            sender = Sender(
                name,
                dc_id,
                maintainers=maintainer_group or maintainer_names,
                peer_receivers={},
                config=self.pipeline_config,
                transitive=transitive_replication,
            )
            place(sender)
            self.senders.append(sender)

        # Controller (client sessions) ---------------------------------------- #
        self.controller = Controller(
            f"{p}controller", self.plan, indexers=indexer_names, config=self.flstore_config
        )
        runtime.register(self.controller)

        self.batcher_names = batcher_names
        self.receiver_names = receiver_names
        self._client_count = 0
        self.journals: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    def _assign_filter_champions(self, filter_names: List[str]) -> None:
        """Champion each host datacenter per §6.2.

        With at least as many hosts as filters, each filter champions whole
        hosts; with more filters than hosts, a host's records are split among
        its champions by TOId residue (the odd/even scheme).
        """
        n_filters = len(filter_names)
        n_hosts = len(self.datacenters)
        if n_filters <= n_hosts:
            for i, host in enumerate(sorted(self.datacenters)):
                self.filter_map.assign_host(host, [filter_names[i % n_filters]])
        else:
            groups = _partition(filter_names, n_hosts)
            for host, group in zip(sorted(self.datacenters), groups):
                self.filter_map.assign_host(host, group or filter_names[:1])

    # ------------------------------------------------------------------ #
    # Inter-datacenter wiring
    # ------------------------------------------------------------------ #

    def connect_peer(self, peer: "DatacenterPipeline") -> None:
        """Point this datacenter's senders at ``peer``'s receivers."""
        for sender in self.senders:
            sender.add_peer(peer.dc_id, peer.receiver_names)

    # ------------------------------------------------------------------ #
    # Resilience: journaling + supervised crash recovery
    # ------------------------------------------------------------------ #

    def attach_journals(
        self, directory: Optional[str] = None
    ) -> Dict[str, Any]:
        """Give every maintainer a journal (idempotent).

        Call before traffic flows so the journal covers every placement —
        it is what a supervised restart replays.  In-memory by default;
        with ``directory`` each maintainer journals to a block-journal file
        there instead — required for process-level recovery, where the
        maintainer writes in a worker process and the parent replays the
        file after a crash (a ``MemoryJournal`` would be pickle-copied
        into the worker, leaving the parent's copy empty).
        """
        if self.journals is None:
            self.journals = {}
            for maintainer in self.maintainers:
                if directory is not None:
                    path = os.path.join(
                        directory, maintainer.name.replace("/", "_") + ".journal"
                    )
                    journal: Any = FileJournal(path)
                else:
                    journal = MemoryJournal()
                maintainer.core.set_journal(journal)
                self.journals[maintainer.name] = journal
        return self.journals

    def recover_maintainer(self, name: str) -> LogMaintainer:
        """Rebuild the maintainer ``name`` from its journal (not registered).

        The replacement resumes exactly where the crashed maintainer's
        journal ends — same storage, same assignment cursor, same postings —
        so no LId is lost or handed out twice.
        """
        if self.journals is None or name not in self.journals:
            raise ConfigurationError(f"no journal attached for maintainer {name!r}")
        journal = self.journals[name]
        # Recover journal-less, then re-attach: replaying a journal into
        # itself would re-append every entry.
        core = recover_maintainer_core(
            name,
            self.plan,
            journal.replay_runs(),
            config=self.flstore_config,
            new_journal=None,
        )
        core.set_journal(journal)
        replacement = LogMaintainer(
            name,
            self.plan,
            peers=[m.name for m in self.maintainers],
            indexers=[ix.name for ix in self.indexers],
            config=self.flstore_config,
        )
        replacement.core = core
        for i, maintainer in enumerate(self.maintainers):
            if maintainer.name == name:
                self.maintainers[i] = replacement
        return replacement

    def supervise(
        self, supervisor: Supervisor, journal_dir: Optional[str] = None
    ) -> None:
        """Register journal-driven restart of every maintainer with ``supervisor``."""
        self.attach_journals(directory=journal_dir)
        for maintainer in self.maintainers:
            supervisor.supervise(
                maintainer.name,
                lambda name=maintainer.name: self.recover_maintainer(name),
            )

    # ------------------------------------------------------------------ #
    # Clients
    # ------------------------------------------------------------------ #

    def client(self, name: Optional[str] = None) -> ChariotsClient:
        self._client_count += 1
        client_name = name or f"{self.dc_id}/client/{self._client_count}"
        client = ChariotsClient(
            client_name,
            self.controller.name,
            batchers=self.batcher_names,
            seed=self._client_count,
        )
        self.runtime.register(client)
        return client

    def blocking_client(self, name: Optional[str] = None) -> BlockingChariotsClient:
        return BlockingChariotsClient(self.client(name), self.runtime)

    # ------------------------------------------------------------------ #
    # Introspection (tests / diagnostics)
    # ------------------------------------------------------------------ #

    def all_entries(self) -> List[LogEntry]:
        entries = [e for m in self.maintainers for e in m.core.stored_entries()]
        entries.sort(key=lambda entry: entry.lid)
        return entries

    def head_of_log(self) -> int:
        return min(m.core.head_of_log() for m in self.maintainers)

    def frontier(self) -> KnowledgeVector:
        """The datacenter's incorporation frontier (from the GC coordinator)."""
        return self.gc.atable.self_row()

    def total_records(self) -> int:
        return sum(m.core.stored_count() for m in self.maintainers)


class ChariotsDeployment:
    """A full multi-datacenter Chariots deployment."""

    def __init__(
        self,
        runtime: Runtime,
        datacenters: Sequence[DatacenterId],
        spec: Optional[DeploymentSpec] = None,
        specs: Optional[Dict[DatacenterId, DeploymentSpec]] = None,
        batch_size: int = 1000,
        pipeline_config: Optional[PipelineConfig] = None,
        flstore_config: Optional[FLStoreConfig] = None,
        n_indexers: int = 1,
        placer: Optional[Placer] = None,
        topology: Optional[Dict[DatacenterId, List[DatacenterId]]] = None,
        transitive: Optional[bool] = None,
    ) -> None:
        """``topology`` maps each datacenter to the peers its senders ship
        to (default: full mesh).  ``transitive`` turns on Replicated
        Dictionary-style forwarding of third-party records — required for
        convergence when the topology is not a full mesh, so it defaults
        to True exactly when a custom topology is given."""
        self.runtime = runtime
        self.datacenters = list(datacenters)
        if transitive is None:
            transitive = topology is not None
        self.transitive = transitive
        self.pipelines: Dict[DatacenterId, DatacenterPipeline] = {}
        for dc in self.datacenters:
            dc_spec = (specs or {}).get(dc, spec)
            self.pipelines[dc] = DatacenterPipeline(
                runtime,
                dc,
                self.datacenters,
                spec=dc_spec,
                batch_size=batch_size,
                pipeline_config=pipeline_config,
                flstore_config=flstore_config,
                n_indexers=n_indexers,
                placer=placer,
                transitive_replication=transitive,
            )
        for src in self.datacenters:
            peers = (
                topology.get(src, []) if topology is not None
                else [dc for dc in self.datacenters if dc != src]
            )
            for dst in peers:
                if src != dst:
                    self.pipelines[src].connect_peer(self.pipelines[dst])

    def __getitem__(self, dc: DatacenterId) -> DatacenterPipeline:
        return self.pipelines[dc]

    def client(self, dc: DatacenterId, name: Optional[str] = None) -> ChariotsClient:
        return self.pipelines[dc].client(name)

    def blocking_client(self, dc: DatacenterId, name: Optional[str] = None) -> BlockingChariotsClient:
        return self.pipelines[dc].blocking_client(name)

    def supervise(
        self,
        supervisor: Optional[Supervisor] = None,
        check_interval: float = 0.05,
        journal_dir: Optional[str] = None,
    ) -> Supervisor:
        """Attach journals everywhere and supervise every log maintainer.

        Creates (and registers) a :class:`~repro.runtime.supervisor.Supervisor`
        unless one is passed in.  Call before running traffic so the journals
        are complete.  ``journal_dir`` switches the maintainers to on-disk
        :class:`~repro.flstore.journal.FileJournal` files (required for
        multiproc worker recovery — see
        :meth:`DatacenterPipeline.attach_journals`).
        """
        if supervisor is None:
            supervisor = Supervisor("supervisor", check_interval=check_interval)
        if supervisor.runtime is None:
            self.runtime.register(supervisor)
        for pipe in self.pipelines.values():
            pipe.supervise(supervisor, journal_dir=journal_dir)
        return supervisor

    # -- logs and convergence ---------------------------------------------- #

    def logs(self) -> Dict[DatacenterId, List[LogEntry]]:
        """Every datacenter's stored log in LId order, as ``check_logs`` takes it."""
        return {dc: pipe.all_entries() for dc, pipe in self.pipelines.items()}

    def frontiers(self) -> Dict[DatacenterId, Dict[DatacenterId, int]]:
        return {
            dc: {h: t for h, t in pipe.frontier().items() if t > 0}
            for dc, pipe in self.pipelines.items()
        }

    def converged(self) -> bool:
        """All datacenters have incorporated the same records.

        Compares incorporation frontiers (max contiguous TOId per host),
        which stays correct when garbage collection has already truncated
        old records — record *sets* would diverge transiently under GC.
        """
        fronts = list(self.frontiers().values())
        return all(f == fronts[0] for f in fronts[1:])

    def settle(self, max_seconds: float = 30.0) -> bool:
        """Run the deployment until replication converges and every stage
        has drained (or ``max_seconds`` pass), on any runtime."""
        return self.runtime.settle(
            lambda: self.converged() and self._pipelines_drained(), max_seconds
        )

    def _pipelines_drained(self) -> bool:
        for pipe in self.pipelines.values():
            if any(q.deferred_count for q in pipe.queues):
                return False
            if any(f.core.buffered_count() for f in pipe.filters):
                return False
            # Conservation: every record the queues sequenced must have
            # reached a maintainer (or been GC'd) — otherwise placements
            # are still in flight and reads would race them.
            sequenced = sum(pipe.frontier().values())
            landed = pipe.total_records() + sum(
                m.core.records_collected for m in pipe.maintainers
            )
            if landed < sequenced:
                return False
        return True
