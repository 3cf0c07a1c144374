"""Chariots reproduction: a scalable shared log for multi-datacenter clouds.

Reproduction of Nawab, Arora, Agrawal, El Abbadi,
"Chariots: A Scalable Shared Log for Data Management in Multi-Datacenter
Cloud Environments", EDBT 2015.

Package layout
--------------

``repro.core``
    Records, logs, causality, awareness tables, configuration.
``repro.runtime``
    Actor model and the deterministic local runtime.
``repro.sim``
    Discrete-event capacity simulator (machines, NICs, metrics).
``repro.flstore``
    FLStore: the sequencer-free distributed log within a datacenter (§5).
``repro.chariots``
    The geo-replicated causal pipeline, abstract solution, elasticity (§6).
``repro.baseline``
    CORFU-style sequencer baseline (§2.1).
``repro.apps``
    Hyksos KV store, stream processing, Message Futures, Helios (§4).
``repro.net``
    asyncio TCP deployment of FLStore.
``repro.scenarios``
    Declarative scenario catalog: every table and figure of §7, plus the
    soak/chaos/overload workloads (``python -m repro.scenarios``).

Quickstart
----------

>>> from repro import LocalRuntime, ChariotsDeployment
>>> runtime = LocalRuntime()
>>> deployment = ChariotsDeployment(runtime, ["A", "B"])
>>> client = deployment.blocking_client("A")
>>> result = client.append("hello", tags={"topic": "greetings"})
>>> result.lid
0
"""

from .apps import (
    Checkpointer,
    EventPublisher,
    HeliosManager,
    Hyksos,
    LogAuditor,
    MessageFuturesManager,
    ReplicatedCounter,
    ReplicatedDict,
    ReplicatedQueue,
    ReplicatedSet,
    StreamJoiner,
    StreamProcessor,
    StreamReader,
)
from .baseline import CorfuLog
from .chariots import (
    AbstractChariots,
    AbstractDeployment,
    BlockingChariotsClient,
    ChariotsClient,
    ChariotsDeployment,
    DatacenterPipeline,
    DirectDeployment,
)
from .core import (
    PRIVATE_CLOUD,
    PUBLIC_CLOUD,
    AppendResult,
    AwarenessTable,
    CausalFrontier,
    ChariotsError,
    DeploymentSpec,
    FLStoreConfig,
    LogEntry,
    MachineProfile,
    PipelineConfig,
    ReadRules,
    Record,
    RecordId,
    TransactionAborted,
    causal_order_respected,
)
from .flstore import (
    ArchiveStore,
    BlockingFLStoreClient,
    FLStore,
    FLStoreClient,
    FileJournal,
    MemoryJournal,
    OwnershipPlan,
)
from .runtime import Actor, LocalRuntime
from .sim import LoadClient, MetricsRegistry, SimRuntime

__version__ = "1.0.0"

__all__ = [
    "AbstractChariots",
    "AbstractDeployment",
    "Actor",
    "AppendResult",
    "AwarenessTable",
    "BlockingChariotsClient",
    "ArchiveStore",
    "BlockingFLStoreClient",
    "Checkpointer",
    "CausalFrontier",
    "ChariotsClient",
    "ChariotsDeployment",
    "ChariotsError",
    "CorfuLog",
    "DatacenterPipeline",
    "DeploymentSpec",
    "DirectDeployment",
    "FileJournal",
    "EventPublisher",
    "FLStore",
    "FLStoreClient",
    "FLStoreConfig",
    "HeliosManager",
    "Hyksos",
    "LoadClient",
    "LocalRuntime",
    "LogAuditor",
    "LogEntry",
    "MachineProfile",
    "MemoryJournal",
    "MessageFuturesManager",
    "MetricsRegistry",
    "OwnershipPlan",
    "PRIVATE_CLOUD",
    "PUBLIC_CLOUD",
    "PipelineConfig",
    "ReadRules",
    "Record",
    "RecordId",
    "ReplicatedCounter",
    "ReplicatedDict",
    "ReplicatedQueue",
    "ReplicatedSet",
    "SimRuntime",
    "StreamJoiner",
    "StreamProcessor",
    "StreamReader",
    "TransactionAborted",
    "causal_order_respected",
    "__version__",
]
