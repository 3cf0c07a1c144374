"""FLStore deployment facade: wire up a whole single-datacenter log store.

Builds the controller, log maintainers, and indexers on any runtime, hands
out clients, and journals and supervises the maintainers.  Tests, examples,
the benchmark harness, a Chariots datacenter's pipeline and the CORFU
baseline all create their log store through this module.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, List, Optional

from ..core.config import FLStoreConfig
from ..core.errors import ConfigurationError
from ..core.record import LogEntry
from ..runtime.actor import Actor, Runtime
from ..runtime.supervisor import Supervisor
from .client import BlockingFLStoreClient, FLStoreClient
from .controller import Controller
from .indexer import Indexer
from .journal import FileJournal, MemoryJournal, recover_maintainer_core
from .maintainer import LogMaintainer
from .range_map import OwnershipPlan

#: Hook deciding how an actor joins the runtime (e.g. simulator placement).
Placer = Callable[[Actor], None]


class FLStore:
    """A deployed single-datacenter FLStore instance: maintainers
    ``{prefix}store/{i}``, indexers ``{prefix}indexer/{i}`` and the
    controller ``{prefix}controller``; ``placer`` (also elasticity's) puts
    every data-plane actor on the runtime."""

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
        self.prefix = prefix
        self.placer: Placer = placer or (lambda actor: runtime.register(actor))

        maintainer_names = [f"{prefix}store/{i}" for i in range(n_maintainers)]
        indexer_names = [f"{prefix}indexer/{i}" for i in range(n_indexers)]
        self.plan = OwnershipPlan(maintainer_names, batch_size=batch_size)
        self.controller = Controller(
            f"{prefix}controller", self.plan, indexers=indexer_names, config=self.config
        )

        self.maintainers: List[LogMaintainer] = []
        for name in maintainer_names:
            maintainer = self.build_maintainer(name, maintainer_names)
            self.placer(maintainer)
            self.maintainers.append(maintainer)

        self.indexers: List[Indexer] = []
        for name in indexer_names:
            indexer = Indexer(name)
            self.placer(indexer)
            self.indexers.append(indexer)

        runtime.register(self.controller)  # control plane: never placed on a machine

        self._client_count = 0
        self.journals: Optional[Dict[str, Any]] = None

    def build_maintainer(self, name: str, peers: List[str]) -> LogMaintainer:
        """A maintainer wired to this store's indexers and controller."""
        return LogMaintainer(
            name,
            self.plan,
            peers=peers,
            indexers=list(self.controller.core.indexers),
            config=self.config,
            controller=self.controller.name,
        )

    # ------------------------------------------------------------------ #
    # Clients
    # ------------------------------------------------------------------ #

    def client(self, name: Optional[str] = None) -> FLStoreClient:
        self._client_count += 1
        client_name = name or f"{self.prefix}client/{self._client_count}"
        client = FLStoreClient(client_name, self.controller.name, seed=self._client_count)
        self.runtime.register(client)
        return client

    def blocking_client(self, name: Optional[str] = None) -> BlockingFLStoreClient:
        return BlockingFLStoreClient(self.client(name), self.runtime)

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
        core = recover_maintainer_core(
            name, self.plan, journal.replay_runs(), config=self.config
        )
        core.set_journal(journal)
        replacement = self.build_maintainer(name, [m.name for m in self.maintainers])
        replacement.core = core
        for i, maintainer in enumerate(self.maintainers):
            if maintainer.name == name:
                self.maintainers[i] = replacement
        return replacement

    def supervise(
        self, supervisor: Supervisor, journal_dir: Optional[str] = None
    ) -> None:
        """Register journal-driven restart of every maintainer with ``supervisor``.

        ``journal_dir`` switches the maintainers to on-disk
        :class:`~repro.flstore.journal.FileJournal` files, which worker
        processes require (see :meth:`attach_journals`).
        """
        from ..runtime.multiproc import MultiprocRuntime  # imports this package

        runtime = self.runtime
        if journal_dir is None and isinstance(runtime, MultiprocRuntime) and runtime.workers:
            raise ConfigurationError(
                "supervising worker processes needs journal_dir: a MemoryJournal "
                "pickled into a worker leaves the parent nothing to replay"
            )
        self.attach_journals(directory=journal_dir)
        for maintainer in self.maintainers:
            supervisor.supervise(
                maintainer.name,
                lambda name=maintainer.name: self.recover_maintainer(name),
            )

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
