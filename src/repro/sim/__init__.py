"""Discrete-event cluster simulator: machines, NICs, metrics, workloads."""

from .kernel import SimRuntime
from .machine import Machine
from .metrics import MetricsRegistry
from .workload import LoadClient

__all__ = [
    "LoadClient",
    "Machine",
    "MetricsRegistry",
    "SimRuntime",
]
