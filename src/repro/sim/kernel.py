"""Capacity-modelling runtime: the same actors, under simulated resources.

:class:`SimRuntime` extends the deterministic runtime with machine placement.
A message between actors on different machines passes through

    sender CPU (implicit: sends happen during the sender's service time)
    → sender TX NIC → link latency → receiver RX NIC → receiver CPU queue
    → ``on_message``

Each hop is serialised by the owning :class:`~repro.sim.machine.Machine`, so
queueing, bottlenecks, and overload degradation emerge mechanistically —
they are not scripted.  Actors without a placement (test harness helpers)
communicate instantly at zero cost.

The runtime also feeds a :class:`~repro.sim.metrics.MetricsRegistry`: every
delivery counts ``in_records`` at the receiver and every send counts
``out_records`` at the sender, which is exactly the per-machine
records/second the paper's Tables 2–5 report.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple, TYPE_CHECKING

from ..core.config import MachineProfile, NetworkProfile, PRIVATE_CLOUD
from ..core.errors import ConfigurationError
from ..runtime.actor import Actor
from ..runtime.local import LocalRuntime
from ..runtime.messages import record_count_of, wire_size_of
from .machine import Machine
from .metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..chaos.plan import FaultPlan


class SimRuntime(LocalRuntime):
    """Discrete-event runtime with per-machine CPU and NIC capacity: the
    local runtime's loop, drivers, fault plan and crash semantics, with its
    own way of carrying a message."""

    def __init__(
        self,
        network: Optional[NetworkProfile] = None,
        record_size: int = 512,
        metrics: Optional[MetricsRegistry] = None,
        chaos: Optional["FaultPlan"] = None,
    ) -> None:
        super().__init__(chaos=chaos)
        self.network = network or NetworkProfile()
        self.record_size = record_size
        self.metrics = metrics or MetricsRegistry()
        self._machines: Dict[str, Machine] = {}
        self._placement: Dict[str, Machine] = {}
        self._latency_overrides: Dict[Tuple[str, str], float] = {}

    # ------------------------------------------------------------------ #
    # Topology
    # ------------------------------------------------------------------ #

    def add_machine(
        self,
        name: str,
        profile: MachineProfile = PRIVATE_CLOUD,
        datacenter: str = "A",
        shared_nic: bool = False,
    ) -> Machine:
        if name in self._machines:
            raise ConfigurationError(f"machine {name!r} already exists")
        machine = Machine(name, profile, datacenter=datacenter, shared_nic=shared_nic)
        self._machines[name] = machine
        return machine

    def machine(self, name: str) -> Machine:
        return self._machines[name]

    def machines(self) -> Dict[str, Machine]:
        return dict(self._machines)

    def place(self, actor: Actor, machine_name: str) -> Actor:
        """Register ``actor`` and pin it to a machine."""
        if machine_name not in self._machines:
            raise ConfigurationError(f"unknown machine {machine_name!r}")
        self.register(actor)
        self._placement[actor.name] = self._machines[machine_name]
        return actor

    def place_on_new_machine(
        self,
        actor: Actor,
        profile: MachineProfile = PRIVATE_CLOUD,
        datacenter: str = "A",
        shared_nic: bool = False,
    ) -> Actor:
        """Convenience: one fresh machine per actor (the paper's deployments)."""
        machine = self.add_machine(
            f"m/{actor.name}", profile, datacenter=datacenter, shared_nic=shared_nic
        )
        return self.place(actor, machine.name)

    def set_latency(self, dc_a: str, dc_b: str, one_way_seconds: float) -> None:
        """Override the one-way latency between two datacenters."""
        self._latency_overrides[(dc_a, dc_b)] = one_way_seconds
        self._latency_overrides[(dc_b, dc_a)] = one_way_seconds

    def latency_between(self, src: Machine, dst: Machine) -> float:
        if src.datacenter == dst.datacenter:
            return self.network.lan_latency
        override = self._latency_overrides.get((src.datacenter, dst.datacenter))
        if override is not None:
            return override
        return self.network.wan_latency

    # ------------------------------------------------------------------ #
    # Message transport
    # ------------------------------------------------------------------ #

    def _schedule_delivery(
        self, src: str, dst: str, message: Any, delays: Sequence[float]
    ) -> None:
        """A copy the plan delays leaves its sender after that delay; an
        undelayed single copy goes onto the network at once."""
        if len(delays) > 1 or delays[0] > 0.0:
            for delay in delays:
                self.loop.schedule(delay, lambda: self._transmit(src, dst, message))
            return
        self._transmit(src, dst, message)

    def _transmit(self, src: str, dst: str, message: Any) -> None:
        target = self._actors[dst]
        n_records = record_count_of(message)
        if src != dst:
            # Self-sends model internal work (e.g. record generation); they
            # cost CPU but are not stage throughput.
            if n_records:
                self.metrics.add(src, "out_records", n_records, self.now)
            self.metrics.add(src, "out_messages", 1, self.now)

        src_machine = self._placement.get(src)
        dst_machine = self._placement.get(dst)

        if src_machine is None or dst_machine is None:
            # Control-plane / harness actors: instant, costless delivery.
            self.loop.schedule(0.0, lambda: self._deliver(src, target, message, n_records))
            return

        if src_machine is dst_machine:
            # Same machine: no NIC, but the work still occupies the CPU.
            self._enqueue_cpu(src, target, dst_machine, message, n_records, self.now)
            return

        size = wire_size_of(message, self.record_size) + self.network.message_overhead_bytes
        tx_done = src_machine.transmit(self.now, size)
        arrival = tx_done + self.latency_between(src_machine, dst_machine)

        def on_arrival() -> None:
            rx_done = dst_machine.receive(self.now, size)
            self.loop.schedule_at(
                rx_done,
                lambda: self._enqueue_cpu(
                    src, target, dst_machine, message, n_records, self.now
                ),
            )

        self.loop.schedule_at(arrival, on_arrival)

    def _enqueue_cpu(
        self,
        src: str,
        target: Actor,
        machine: Machine,
        message: Any,
        n_records: int,
        ready_at: float,
    ) -> None:
        cost = target.service_cost(message)
        if cost is None:
            cost = machine.record_cost(n_records)
        done = machine.submit_cpu(ready_at, cost)

        def complete() -> None:
            machine.complete_cpu()
            self._deliver(src, target, message, n_records)

        self.loop.schedule_at(done, complete)

    def _deliver(self, src: str, target: Actor, message: Any, n_records: int) -> None:
        if src != target.name:
            if n_records:
                self.metrics.add(target.name, "in_records", n_records, self.now)
            self.metrics.add(target.name, "in_messages", 1, self.now)
        self._on_deliver(src, target.name, message)
