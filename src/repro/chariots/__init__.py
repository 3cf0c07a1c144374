"""Chariots: geo-replicated causal shared log via a multi-stage pipeline (§6)."""

from .abstract import AbstractChariots, AbstractDeployment, LogVerdict, check_logs
from .batcher import Batcher
from .client import BlockingChariotsClient, ChariotsClient
from .direct import DirectClient, DirectDeployment
from .filters import FilterCore, FilterMap, FilterStage
from .gc import GcCoordinator
from .messages import DraftRecord, Token
from .pipeline import ChariotsDeployment, DatacenterPipeline
from .queues import QueueStage
from .receiver import Receiver
from .sender import Sender

__all__ = [
    "AbstractChariots",
    "AbstractDeployment",
    "Batcher",
    "BlockingChariotsClient",
    "ChariotsClient",
    "ChariotsDeployment",
    "DatacenterPipeline",
    "DirectClient",
    "DirectDeployment",
    "DraftRecord",
    "FilterCore",
    "FilterMap",
    "FilterStage",
    "GcCoordinator",
    "LogVerdict",
    "QueueStage",
    "Receiver",
    "Sender",
    "Token",
    "check_logs",
]
