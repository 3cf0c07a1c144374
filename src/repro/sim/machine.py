"""Machine capacity model: CPU service with overload degradation, NIC queues.

Each simulated machine serialises three resources:

* **CPU** — one service queue; processing a message costs
  ``records × per_record_cost`` seconds (or the actor's own
  ``service_cost``).  When the backlog exceeds the profile's saturation
  threshold, service slows by a penalty factor that grows with the backlog
  (bounded by ``overload_cap``).  This models the GC/caching/retry overheads
  that make Figure 7's achieved throughput *decline* past its peak instead
  of plateauing.
* **TX NIC** and **RX NIC** — transmission time is ``bytes / bandwidth``.
  With ``shared_nic=True`` both directions contend for one resource
  (virtualised/1 GbE public-cloud machines), which reproduces the Figure 9
  effect where a stage's output surges once its inbound traffic stops.
"""

from __future__ import annotations


from ..core.config import MachineProfile
from ..core.errors import ConfigurationError


class Machine:
    """One simulated machine hosting one or more actors."""

    def __init__(
        self,
        name: str,
        profile: MachineProfile,
        datacenter: str = "A",
        shared_nic: bool = False,
    ) -> None:
        if not name:
            raise ConfigurationError("machines need a non-empty name")
        self.name = name
        self.profile = profile
        self.datacenter = datacenter
        self.shared_nic = shared_nic
        self._cpu_free_at = 0.0
        self._tx_free_at = 0.0
        self._rx_free_at = 0.0
        self._cpu_pending = 0
        self.cpu_busy_seconds = 0.0
        self.bytes_sent = 0
        self.bytes_received = 0

    # ------------------------------------------------------------------ #
    # CPU
    # ------------------------------------------------------------------ #

    def overload_factor(self) -> float:
        """Current service-time multiplier given the backlog."""
        profile = self.profile
        excess = self._cpu_pending - profile.saturation_queue
        if excess <= 0:
            return 1.0
        return min(profile.overload_cap, 1.0 + profile.overload_penalty * excess)

    def submit_cpu(self, ready_at: float, base_cost: float) -> float:
        """Enqueue a CPU job; returns its completion time.

        The overload factor is sampled at submission, reflecting the backlog
        the job joins.  Call :meth:`complete_cpu` when the completion event
        fires.
        """
        if base_cost < 0:
            raise ConfigurationError(f"negative service cost {base_cost}")
        self._cpu_pending += 1
        cost = base_cost * self.overload_factor()
        start = max(ready_at, self._cpu_free_at)
        done = start + cost
        self._cpu_free_at = done
        self.cpu_busy_seconds += cost
        return done

    def complete_cpu(self) -> None:
        """Mark one CPU job finished (invoked by the runtime at completion)."""
        if self._cpu_pending <= 0:  # pragma: no cover - defensive
            raise ConfigurationError(f"CPU completion underflow on {self.name}")
        self._cpu_pending -= 1

    def record_cost(self, n_records: int) -> float:
        """Baseline CPU cost for a message carrying ``n_records`` records.

        Control messages (0 records) still pay a small fixed handling cost.
        """
        if n_records <= 0:
            return self.profile.per_record_cost * 0.25
        return n_records * self.profile.per_record_cost

    # ------------------------------------------------------------------ #
    # NIC
    # ------------------------------------------------------------------ #

    def transmit(self, ready_at: float, size_bytes: int) -> float:
        """Serialise an outbound frame; returns when the last byte leaves."""
        duration = size_bytes / self.profile.nic_bandwidth_bytes
        start = max(ready_at, self._tx_free_at)
        done = start + duration
        self._tx_free_at = done
        if self.shared_nic:
            self._rx_free_at = max(self._rx_free_at, done)
        self.bytes_sent += size_bytes
        return done

    def receive(self, arrival: float, size_bytes: int) -> float:
        """Serialise an inbound frame; returns when it is fully received."""
        duration = size_bytes / self.profile.nic_bandwidth_bytes
        start = max(arrival, self._rx_free_at)
        done = start + duration
        self._rx_free_at = done
        if self.shared_nic:
            self._tx_free_at = max(self._tx_free_at, done)
        self.bytes_received += size_bytes
        return done

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Machine {self.name!r} dc={self.datacenter!r} {self.profile.name}>"
