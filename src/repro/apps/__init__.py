"""Case-study applications built on the shared log (§4) plus log tooling."""

from .helios import HeliosManager
from .hyksos import Hyksos, VersionedValue, key_tag
from .objects import (
    ReplicatedCounter,
    ReplicatedDict,
    ReplicatedObject,
    ReplicatedQueue,
    ReplicatedSet,
)
from .message_futures import (
    MessageFuturesManager,
    PendingCommit,
    Transaction,
    TxnRecord,
)
from .streams import (
    Event,
    EventPublisher,
    StreamJoiner,
    StreamProcessor,
    StreamReader,
    WindowedAggregator,
)
from .timetravel import Checkpoint, Checkpointer, LogAuditor

__all__ = [
    "Checkpoint",
    "Checkpointer",
    "Event",
    "EventPublisher",
    "HeliosManager",
    "Hyksos",
    "LogAuditor",
    "MessageFuturesManager",
    "PendingCommit",
    "ReplicatedCounter",
    "ReplicatedDict",
    "ReplicatedObject",
    "ReplicatedQueue",
    "ReplicatedSet",
    "StreamJoiner",
    "StreamProcessor",
    "StreamReader",
    "Transaction",
    "TxnRecord",
    "VersionedValue",
    "WindowedAggregator",
    "key_tag",
]
