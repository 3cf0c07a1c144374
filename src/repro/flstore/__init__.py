"""FLStore: the sequencer-free distributed shared log within a datacenter (§5)."""

from .archive import ArchiveStore
from .client import BlockingFLStoreClient, FLStoreClient
from .controller import Controller, ControllerCore
from .indexer import Indexer, IndexerCore
from .journal import FileJournal, MemoryJournal, recover_maintainer_core
from .maintainer import LogMaintainer, MaintainerCore
from .range_map import OwnershipPlan, RangeEpoch
from .store import FLStore

__all__ = [
    "ArchiveStore",
    "BlockingFLStoreClient",
    "Controller",
    "ControllerCore",
    "FLStore",
    "FLStoreClient",
    "FileJournal",
    "Indexer",
    "IndexerCore",
    "LogMaintainer",
    "MaintainerCore",
    "MemoryJournal",
    "OwnershipPlan",
    "RangeEpoch",
    "recover_maintainer_core",
]
