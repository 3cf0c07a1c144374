"""Chaos layer: deterministic fault injection across every transport.

``repro.chaos`` creates the lossy, reordering, partitioning channels the
protocol claims to survive (§1's component/datacenter failures; the
Replicated-Dictionary lineage of the ATable assumes them) and injects them
into the runtimes behind zero-overhead no-op defaults:

* :class:`FaultPlan` — seeded message faults, crashes, partitions and
  worker kills: the one ``chaos`` argument of ``LocalRuntime`` /
  ``SimRuntime`` / ``AioRuntime`` / ``MultiprocRuntime``;
* :class:`NetChaos` — seeded request-level faults for the asyncio servers.
"""

from .netchaos import NetChaos
from .plan import CrashEvent, FaultPlan, FaultRule, KillEvent, PartitionEvent

__all__ = [
    "CrashEvent",
    "FaultPlan",
    "FaultRule",
    "KillEvent",
    "NetChaos",
    "PartitionEvent",
]
