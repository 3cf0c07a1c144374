"""FLStore deployment facade: wire up a whole single-datacenter log store.

Builds the controller, log maintainers, and indexers on any runtime and
hands out clients.  Tests, examples, and the benchmark harness all create
FLStore deployments through this module.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..core.config import FLStoreConfig
from ..core.record import LogEntry
from ..runtime.actor import Actor, Runtime
from .client import BlockingFLStoreClient, FLStoreClient
from .controller import Controller
from .indexer import Indexer
from .maintainer import LogMaintainer
from .range_map import OwnershipPlan

#: Hook deciding how an actor joins the runtime (e.g. simulator placement).
Placer = Callable[[Actor], None]


class FLStore:
    """A deployed single-datacenter FLStore instance."""

    def __init__(
        self,
        runtime: Runtime,
        n_maintainers: int = 3,
        n_indexers: int = 1,
        batch_size: int = 1000,
        config: Optional[FLStoreConfig] = None,
        prefix: str = "",
        placer: Optional[Placer] = None,
    ) -> None:
        self.runtime = runtime
        self.config = config or FLStoreConfig()
        place = placer or (lambda actor: runtime.register(actor))

        maintainer_names = [f"{prefix}maintainer/{i}" for i in range(n_maintainers)]
        indexer_names = [f"{prefix}indexer/{i}" for i in range(n_indexers)]
        controller_name = f"{prefix}controller"
        self.plan = OwnershipPlan(maintainer_names, batch_size=batch_size)

        self.maintainers: List[LogMaintainer] = []
        for name in maintainer_names:
            maintainer = LogMaintainer(
                name,
                self.plan,
                peers=maintainer_names,
                indexers=indexer_names,
                config=self.config,
                controller=controller_name,
            )
            place(maintainer)
            self.maintainers.append(maintainer)

        self.indexers: List[Indexer] = []
        for name in indexer_names:
            indexer = Indexer(name)
            place(indexer)
            self.indexers.append(indexer)

        self.controller = Controller(
            controller_name, self.plan, indexers=indexer_names, config=self.config
        )
        runtime.register(self.controller)  # control plane: never placed on a machine

        self._client_count = 0
        self._placer = place
        self._prefix = prefix

    # ------------------------------------------------------------------ #
    # Clients
    # ------------------------------------------------------------------ #

    def client(self, name: Optional[str] = None) -> FLStoreClient:
        self._client_count += 1
        client_name = name or f"{self._prefix}client/{self._client_count}"
        client = FLStoreClient(client_name, self.controller.name, seed=self._client_count)
        self.runtime.register(client)
        return client

    def blocking_client(self, name: Optional[str] = None) -> BlockingFLStoreClient:
        return BlockingFLStoreClient(self.client(name), self.runtime)

    # ------------------------------------------------------------------ #
    # Whole-log introspection (test/diagnostic convenience)
    # ------------------------------------------------------------------ #

    def head_of_log(self) -> int:
        """The most conservative HL across maintainers' gossip views."""
        return min(m.core.head_of_log() for m in self.maintainers)

    def all_entries(self) -> List[LogEntry]:
        """Every stored entry across maintainers, in LId order."""
        entries = [e for m in self.maintainers for e in m.core.stored_entries()]
        entries.sort(key=lambda entry: entry.lid)
        return entries

    def total_records(self) -> int:
        return sum(m.core.stored_count() for m in self.maintainers)
