"""Configuration objects shared across FLStore, Chariots, and the simulator.

Defaults follow the paper's experimental setup (§7): 512-byte records, a
round-robin batch size of 1000 LIds per maintainer round (Figure 4), and
machine profiles calibrated so a single pipeline stage machine sustains the
~120–130 K records/s the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from .errors import ConfigurationError
from .retry import RetryPolicy


@dataclass(frozen=True)
class FLStoreConfig:
    """Tunables for the intra-datacenter log store (§5)."""

    #: Number of consecutive LIds in one maintainer round (Figure 4 uses 1000).
    batch_size: int = 1000
    #: Seconds between head-of-log gossip messages between maintainers (§5.4).
    gossip_interval: float = 0.005
    #: When True, a maintainer holding an explicit-order record whose minimum
    #: bound cannot yet be satisfied fills the intervening positions it owns
    #: with internal no-op records instead of waiting (liveness fallback).
    fill_gaps_with_noops: bool = False

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.gossip_interval <= 0:
            raise ConfigurationError("gossip_interval must be positive")


@dataclass(frozen=True)
class PipelineConfig:
    """Tunables for the Chariots multi-stage pipeline (§6.2)."""

    #: Records buffered per (batcher, filter) before a flush.
    batcher_flush_threshold: int = 64
    #: Seconds after which a non-empty batcher buffer flushes regardless.
    batcher_flush_interval: float = 0.002
    #: High-water mark on the *total* records buffered across a batcher's
    #: per-filter buffers: reaching it forces a full flush (backpressure for
    #: many-filter deployments where no single buffer hits the threshold).
    batcher_buffer_limit: int = 8192
    #: Seconds the token dwells at a queue before moving on.
    token_hold_interval: float = 0.001
    #: Maximum deferred records shipped along with the token (§6.2 Queues:
    #: "The token might include all, some, or none of the [deferred] records").
    token_deferred_limit: int = 1024
    #: Seconds between sender replication shipments to each remote datacenter.
    replication_interval: float = 0.02
    #: Records per replication shipment.
    replication_batch_limit: int = 4096
    #: High-water mark on a queue's buffered (externals + drafts) while it
    #: does not hold the token: past it, arriving batches are forwarded
    #: around the ring toward the token holder instead of buffered.
    queue_buffer_limit: int = 65_536
    #: High-water mark on a sender's per-maintainer retransmission window:
    #: past it, the sender stops fetching new records from that maintainer's
    #: durable log (the fetch cursor pauses) until acks drain the window.
    sender_buffer_limit: int = 65_536
    #: Seconds between garbage-collection sweeps (0 disables GC).
    gc_interval: float = 0.0
    #: Keep at least this many most recent LIds even when GC-eligible.
    gc_keep_records: int = 0
    #: First replication retransmission timeout; later attempts back off
    #: exponentially (capped, jittered) instead of the old fixed constant.
    retransmit_base: float = 0.5
    #: Cap on the retransmission backoff.
    retransmit_max: float = 4.0
    #: Backoff multiplier between consecutive retransmissions.
    retransmit_multiplier: float = 2.0
    #: ±fraction of seeded jitter on each retransmission delay.
    retransmit_jitter: float = 0.1
    #: Consecutive retransmission failures before a peer datacenter's
    #: circuit breaker opens (senders stop shipping until a probe succeeds).
    breaker_failure_threshold: int = 8
    #: Seconds an open breaker waits before allowing a half-open probe.
    breaker_reset_timeout: float = 2.0

    def __post_init__(self) -> None:
        if self.batcher_flush_threshold < 1:
            raise ConfigurationError("batcher_flush_threshold must be >= 1")
        if self.batcher_buffer_limit < self.batcher_flush_threshold:
            raise ConfigurationError(
                "batcher_buffer_limit must be >= batcher_flush_threshold"
            )
        if self.token_deferred_limit < 0:
            raise ConfigurationError("token_deferred_limit must be >= 0")
        if self.queue_buffer_limit < 1:
            raise ConfigurationError("queue_buffer_limit must be >= 1")
        if self.sender_buffer_limit < 1:
            raise ConfigurationError("sender_buffer_limit must be >= 1")
        if self.retransmit_base <= 0:
            raise ConfigurationError("retransmit_base must be positive")
        if self.retransmit_max < self.retransmit_base:
            raise ConfigurationError("retransmit_max must be >= retransmit_base")

    def retransmit_policy(self) -> "RetryPolicy":
        """The replication retransmission schedule as a shared RetryPolicy."""
        return RetryPolicy(
            base_delay=self.retransmit_base,
            max_delay=self.retransmit_max,
            multiplier=self.retransmit_multiplier,
            jitter=self.retransmit_jitter,
            max_attempts=1_000_000,  # senders retransmit until acked
        )


@dataclass(frozen=True)
class MachineProfile:
    """Capacity model for one simulated machine (§7 experimental setup).

    ``per_record_cost`` is the CPU-side service time per record; a machine
    alone therefore peaks near ``1 / per_record_cost`` records/s.  The
    overload knee reproduces Figure 7: once the backlog passes
    ``saturation_queue`` batches, service slows by ``overload_penalty`` per
    excess batch (capped), so pushing past the peak *reduces* throughput.
    """

    name: str = "private-cloud"
    per_record_cost: float = 1.0 / 132_000
    nic_bandwidth_bytes: float = 10e9 / 8  # 10 GbE
    saturation_queue: int = 24
    overload_penalty: float = 0.012
    overload_cap: float = 1.35

    def __post_init__(self) -> None:
        if self.per_record_cost <= 0:
            raise ConfigurationError("per_record_cost must be positive")
        if self.nic_bandwidth_bytes <= 0:
            raise ConfigurationError("nic_bandwidth_bytes must be positive")
        if self.overload_cap < 1.0:
            raise ConfigurationError("overload_cap must be >= 1.0")


#: Machine profile matching the paper's private cluster (Xeon E5620, 10 GbE,
#: 0.15 ms RTT).  A single maintainer sustains ~131 K appends/s (§7.1).
PRIVATE_CLOUD = MachineProfile(
    name="private-cloud",
    per_record_cost=1.0 / 132_000,
    nic_bandwidth_bytes=10e9 / 8,
    saturation_queue=24,
    overload_penalty=0.012,
    overload_cap=1.09,
)

#: Machine profile matching AWS c3.large (2 vCPU, shared NIC): peaks near
#: 150 K then degrades to ~120 K under overload (Figure 7).
PUBLIC_CLOUD = MachineProfile(
    name="public-cloud",
    per_record_cost=1.0 / 152_000,
    nic_bandwidth_bytes=1e9 / 8,
    saturation_queue=12,
    overload_penalty=0.035,
    overload_cap=1.27,
)


@dataclass(frozen=True)
class NetworkProfile:
    """Latency model for links between machines."""

    #: Intra-rack RTT of the private cluster (§7: average 0.15 ms).
    lan_rtt: float = 0.00015
    #: Cross-datacenter RTT (representative US-East <-> US-West).
    wan_rtt: float = 0.060
    #: Fixed per-message framing overhead in bytes.
    message_overhead_bytes: int = 64

    @property
    def lan_latency(self) -> float:
        return self.lan_rtt / 2

    @property
    def wan_latency(self) -> float:
        return self.wan_rtt / 2


@dataclass
class DeploymentSpec:
    """How many machines each Chariots stage gets in one datacenter (§6.2).

    The evaluation's Tables 2–5 are sweeps over these counts.
    """

    clients: int = 1
    batchers: int = 1
    filters: int = 1
    queues: int = 1
    maintainers: int = 1
    senders: int = 1
    receivers: int = 1
    extra: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for stage in ("clients", "batchers", "filters", "queues", "maintainers", "senders", "receivers"):
            if getattr(self, stage) < 1:
                raise ConfigurationError(f"{stage} must be >= 1")

    @classmethod
    def uniform(
        cls, machines_per_stage: int, clients: Optional[int] = None
    ) -> "DeploymentSpec":
        """A deployment with the same machine count at every stage."""
        n = machines_per_stage
        return cls(
            clients=clients if clients is not None else n,
            batchers=n,
            filters=n,
            queues=n,
            maintainers=n,
            senders=n,
            receivers=n,
        )
