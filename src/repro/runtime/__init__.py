"""Actor runtimes: the runtime contract, event loop, actor base class,
deterministic local runtime."""

from .actor import Actor, Runtime
from .local import BaseRuntime, LocalRuntime
from .loop import EventHandle, EventLoop
from .messages import (
    CONTROL_MESSAGE_BYTES,
    Payload,
    RecordBatch,
    record_count_of,
    wire_size_of,
)
from .supervisor import ProcessSupervisor, Supervisor

__all__ = [
    "Actor",
    "BaseRuntime",
    "CONTROL_MESSAGE_BYTES",
    "EventHandle",
    "EventLoop",
    "LocalRuntime",
    "Payload",
    "ProcessSupervisor",
    "RecordBatch",
    "Runtime",
    "Supervisor",
    "record_count_of",
    "wire_size_of",
]
