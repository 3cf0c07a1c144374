"""One datacenter's Chariots instance: the six-stage pipeline (§6.2).

A datacenter's pipeline is an :class:`~repro.flstore.store.FLStore` (log
maintainers in placed mode, indexers, the controller for client sessions,
journals and supervision) plus every stage, wired on any runtime:

    clients / receivers → batchers → filters → queues → log maintainers
                                                      ↘ senders → (peers)

and the GC coordinator for the Awareness Table.  Inter-datacenter wiring
happens afterwards via
:meth:`DatacenterPipeline.connect_peer` (the deployment object does this).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..core.causality import CausalFrontier
from ..core.config import DeploymentSpec, FLStoreConfig, PipelineConfig
from ..core.record import DatacenterId, KnowledgeVector, LogEntry
from ..flstore.store import FLStore, Placer
from ..runtime.actor import Runtime
from ..runtime.supervisor import Supervisor
from .batcher import Batcher
from .client import BlockingChariotsClient, ChariotsClient
from .filters import FilterMap, FilterStage
from .gc import GcCoordinator
from .queues import QueueStage
from .receiver import Receiver
from .sender import Sender


def _partition(items: List[str], n_groups: int) -> List[List[str]]:
    """Deal ``items`` round-robin into ``n_groups`` non-empty-ish groups."""
    return [items[i::n_groups] for i in range(n_groups)]


class DatacenterPipeline(FLStore):
    """All Chariots components of one datacenter: an FLStore (maintainers in
    placed mode, indexers, controller) plus the pipeline stages."""

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
        self.spec = spec or DeploymentSpec()
        super().__init__(
            runtime,
            n_maintainers=self.spec.maintainers,
            n_indexers=n_indexers,
            batch_size=batch_size,
            config=flstore_config,
            prefix=f"{dc_id}/",
            placer=placer,
        )
        self.dc_id = dc_id
        self.datacenters = list(datacenters)
        self.transitive_replication = transitive_replication
        self.pipeline_config = pipeline_config or PipelineConfig()
        p = self.prefix

        maintainer_names = [m.name for m in self.maintainers]
        indexer_names = [ix.name for ix in self.indexers]
        queue_names = [f"{p}queue/{i}" for i in range(self.spec.queues)]
        filter_names = [f"{p}filter/{i}" for i in range(self.spec.filters)]
        batcher_names = [f"{p}batcher/{i}" for i in range(self.spec.batchers)]
        receiver_names = [f"{p}receiver/{i}" for i in range(self.spec.receivers)]
        sender_names = [f"{p}sender/{i}" for i in range(self.spec.senders)]
        self.gc_name = f"{p}gc"

        self.filter_map = FilterMap(filter_names)
        self._assign_filter_champions(filter_names)

        # GC coordinator (control plane, never on the data path) --------- #
        self.gc = GcCoordinator(
            self.gc_name,
            dc_id,
            self.datacenters,
            maintainers=maintainer_names,
            indexers=indexer_names,
            config=self.pipeline_config,
        )
        runtime.register(self.gc)

        # Queues: token ring ---------------------------------------------- #
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
                gc=self.gc_name,
                config=self.pipeline_config,
                holds_initial_token=(i == 0),
            )
            self.placer(queue)
            self.queues.append(queue)

        # Filters ---------------------------------------------------------- #
        self.filters: List[FilterStage] = []
        for name in filter_names:
            stage = FilterStage(name, self.filter_map, queues=queue_names, config=self.pipeline_config)
            self.placer(stage)
            self.filters.append(stage)

        # Batchers ---------------------------------------------------------- #
        self.batchers: List[Batcher] = []
        for name in batcher_names:
            batcher = Batcher(name, self.filter_map, config=self.pipeline_config)
            self.placer(batcher)
            self.batchers.append(batcher)

        # Receivers ---------------------------------------------------------- #
        self.receivers: List[Receiver] = []
        for name in receiver_names:
            receiver = Receiver(
                name,
                dc_id,
                batchers=batcher_names,
                config=self.pipeline_config,
            )
            self.placer(receiver)
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
            self.placer(sender)
            self.senders.append(sender)

        self.batcher_names = batcher_names
        self.receiver_names = receiver_names

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
        """Point this datacenter's senders at ``peer``'s receivers, and its
        GC coordinator's Awareness Table gossip at ``peer``'s coordinator."""
        for sender in self.senders:
            sender.add_peer(peer.dc_id, peer.receiver_names)
        self.gc.peers.append(peer.gc_name)

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

    def frontier(self) -> KnowledgeVector:
        """The incorporation frontier: the element-wise max of the GC
        coordinator's own row, at most one ``replication_interval`` old, and
        the queues' ``frontier``.  Exact in-process; on multiproc the queues
        are the parent's shadows until ``settle`` refreshes them."""
        frontier = CausalFrontier(self.gc.atable.self_row())
        for queue in self.queues:
            for host, toid in queue.frontier.items():
                frontier.advance_host(host, toid)
        return frontier.snapshot()


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
        unless one is passed in; on a multiproc runtime that turns on process
        supervision.  Call before running traffic so the journals are
        complete.  ``journal_dir`` switches the maintainers to on-disk
        :class:`~repro.flstore.journal.FileJournal` files, which worker
        processes require (see :meth:`FLStore.supervise`).
        """
        if supervisor is None:
            supervisor = Supervisor("supervisor", check_interval=check_interval)
        for pipe in self.pipelines.values():
            pipe.supervise(supervisor, journal_dir=journal_dir)
        if supervisor.runtime is None:
            self.runtime.register(supervisor)
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
        Read through :meth:`DatacenterPipeline.frontier`: exact in-process,
        at most one ``replication_interval`` old on multiproc.
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
