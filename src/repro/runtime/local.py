"""Deterministic in-process runtime: instant (or hook-delayed) delivery.

This is the substrate for functional tests, applications, and examples.  It
delivers messages in a deterministic order, supports fault injection through
``latency_fn`` / ``drop_fn`` hooks (used by the property-based tests to
produce adversarial delivery schedules) and through a full seeded
:class:`~repro.chaos.plan.FaultPlan` (drops, delays, duplicates, reorders,
crashes, partitions), and exposes ``run_until`` so synchronous client code
can pump the network until a reply arrives.

Crash semantics (shared by this runtime and the simulator): a crashed
actor's outgoing messages are discarded (a dead process sends nothing) and
its inbound traffic is *parked* — held aside and redelivered when the actor
is revived or replaced.  Parking models the reliable channels real deployments
put in front of a restarted node: peers keep retransmitting until the
replacement accepts, so from the protocol's point of view the messages were
simply delayed across the outage.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple, TYPE_CHECKING

from ..core.errors import ConfigurationError
from .actor import Actor, Timers
from .loop import EventLoop

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..chaos.plan import FaultPlan

#: latency hook signature: (src, dst, message) -> seconds of delivery delay.
LatencyFn = Callable[[str, str, Any], float]
#: drop hook signature: (src, dst, message) -> True to drop the message.
DropFn = Callable[[str, str, Any], bool]


#: Runtime seconds :meth:`BaseRuntime.settle` runs between two checks.
SETTLE_SLICE = 0.1


class BaseRuntime:
    """The :class:`~repro.runtime.actor.Runtime` surface every runtime shares:
    the actor registry, crash bookkeeping, start / stop, ``settle`` and
    ``peek``.  Subclasses supply ``loop``, ``send``, ``run_for`` and
    ``run_until``."""

    loop: Timers

    def __init__(self) -> None:
        self._actors: Dict[str, Actor] = {}
        self._started = False
        self._crashed: Set[str] = set()
        #: Inbound messages held for crashed actors: name -> [(src, message)].
        self._parked: Dict[str, List[Tuple[str, Any]]] = {}
        self.messages_parked = 0

    # -- registry -------------------------------------------------------- #

    def register(self, actor: Actor) -> Actor:
        """Add an actor; its ``name`` becomes its address."""
        if actor.name in self._actors:
            raise ConfigurationError(f"actor name {actor.name!r} already registered")
        actor.runtime = self
        self._actors[actor.name] = actor
        if self._started:
            actor.on_start()
        return actor

    def register_all(self, actors: Iterable[Actor]) -> List[Actor]:
        return [self.register(actor) for actor in actors]

    def replace(self, actor: Actor) -> Actor:
        """Swap the actor registered under ``actor.name`` for this one.

        Failure-injection primitive: models a crashed process restarting
        under the same address (e.g. a log maintainer recovered from its
        journal).  Messages already scheduled for the old actor are
        delivered to the replacement — exactly what a network gives a
        restarted node.
        """
        if actor.name not in self._actors:
            raise ConfigurationError(f"no actor {actor.name!r} to replace")
        actor.runtime = self
        self._actors[actor.name] = actor
        if actor.name in self._crashed:
            self.revive(actor.name)
        if self._started:
            actor.on_start()
        return actor

    def actor(self, name: str) -> Actor:
        return self._actors[name]

    def has_actor(self, name: str) -> bool:
        return name in self._actors

    def actors(self) -> List[Actor]:
        return list(self._actors.values())

    @property
    def now(self) -> float:
        return self.loop.now

    # -- crash / recovery ------------------------------------------------ #

    def crash(self, name: str) -> None:
        """Kill the actor registered under ``name``.

        Its outgoing messages are discarded and inbound traffic parks until
        :meth:`revive` or :meth:`replace` brings the address back (typically
        a :class:`~repro.runtime.supervisor.Supervisor` restarting it from a
        journal).
        """
        if name not in self._actors:
            raise ConfigurationError(f"no actor {name!r} to crash")
        self._crashed.add(name)

    def revive(self, name: str) -> None:
        """Clear ``name``'s crashed flag and redeliver its parked messages."""
        self._crashed.discard(name)
        parked = self._parked.pop(name, None)
        if parked:
            for src, message in parked:
                self.loop.schedule(
                    0.0, lambda s=src, m=message: self._on_deliver(s, name, m)
                )

    def is_crashed(self, name: str) -> bool:
        return name in self._crashed

    def crashed_actors(self) -> List[str]:
        return sorted(self._crashed)

    def _park(self, src: str, dst: str, message: Any) -> None:
        self.messages_parked += 1
        self._parked.setdefault(dst, []).append((src, message))

    def _on_deliver(self, src: str, dst: str, message: Any) -> None:
        """Delivery-time dispatch honouring crashes that happened in flight."""
        if dst in self._crashed:
            self._park(src, dst, message)
            return
        self._actors[dst].on_message(src, message)

    # -- lifecycle ------------------------------------------------------- #

    def start(self) -> "BaseRuntime":
        """Invoke every actor's ``on_start`` hook exactly once."""
        if not self._started:
            self._started = True
            for actor in list(self._actors.values()):
                actor.on_start()
        return self

    def stop(self) -> None:
        """Release what the runtime holds (nothing, for an in-process one)."""

    def send(self, src: str, dst: str, message: Any) -> None:
        raise NotImplementedError

    # -- execution ------------------------------------------------------- #

    def run_for(self, duration: float) -> float:
        raise NotImplementedError

    def run_until(self, predicate: Callable[[], bool], timeout: float = 60.0) -> float:
        raise NotImplementedError

    def settle(self, predicate: Callable[[], bool], max_seconds: float = 30.0) -> bool:
        """Run in :data:`SETTLE_SLICE` slices until ``predicate()`` holds,
        checking after each slice; False if ``max_seconds`` pass first."""
        self.start()
        deadline = self.now + max_seconds
        while self.now < deadline:
            self.run_for(SETTLE_SLICE)
            if self._check(predicate):
                return True
        return self._check(predicate)

    def _check(self, predicate: Callable[[], bool]) -> bool:
        """One settle check (where actor state lives elsewhere, fetch it first)."""
        return predicate()

    def peek(self, name: str, fn: Callable[[Actor], Any]) -> Any:
        """``fn(actor)`` evaluated where the actor lives."""
        return fn(self._actors[name])


class LocalRuntime(BaseRuntime):
    """Instant-delivery deterministic runtime with fault-injection hooks.

    ``chaos`` installs a :class:`~repro.chaos.plan.FaultPlan`: its message
    faults and partitions are applied to every send, and its crash events
    are scheduled when the runtime starts.  Without a plan the only cost is
    one ``is not None`` check per message.
    """

    loop: EventLoop

    def __init__(
        self,
        latency_fn: Optional[LatencyFn] = None,
        drop_fn: Optional[DropFn] = None,
        chaos: Optional["FaultPlan"] = None,
    ) -> None:
        super().__init__()
        self.loop = EventLoop()
        self.latency_fn = latency_fn
        self.drop_fn = drop_fn
        self.chaos = chaos
        self.messages_sent = 0
        self.messages_dropped = 0

    def start(self) -> "BaseRuntime":
        if not self._started and self.chaos is not None:
            for crash in self.chaos.crashes:
                self.loop.schedule(
                    crash.at,
                    lambda name=crash.actor: self.crash(name)
                    if name in self._actors
                    else None,
                )
        return super().start()

    def send(self, src: str, dst: str, message: Any) -> None:
        self.messages_sent += 1
        if self._crashed and src in self._crashed:
            self.messages_dropped += 1  # a dead process sends nothing
            return
        if self.drop_fn is not None and self.drop_fn(src, dst, message):
            self.messages_dropped += 1
            return
        if dst not in self._actors:
            raise ConfigurationError(f"message from {src!r} to unknown actor {dst!r}")
        delay = self.latency_fn(src, dst, message) if self.latency_fn else 0.0
        if self.chaos is not None:
            copies = self.chaos.intercept(src, dst, message, self.loop.now)
            if copies is None:
                self.messages_dropped += 1
                return
            for extra in copies:
                self.loop.schedule(
                    delay + extra, lambda: self._on_deliver(src, dst, message)
                )
            return
        # Resolve the target at delivery time so a replaced actor (crash
        # recovery) receives messages that were already in flight.
        self.loop.schedule(delay, lambda: self._on_deliver(src, dst, message))

    # -- execution ------------------------------------------------------- #

    def run(
        self,
        until_time: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Start (if needed) and drain the event loop."""
        self.start()
        return self.loop.run(until_time=until_time, max_events=max_events)

    def run_for(self, duration: float) -> float:
        """Advance virtual time by ``duration`` seconds."""
        self.start()
        return self.loop.run(until_time=self.loop.now + duration)

    def run_until(self, predicate: Callable[[], bool], timeout: float = 60.0) -> float:
        self.start()
        return self.loop.run_until(predicate, timeout)


def random_latency(seed: int, max_delay: float = 0.05) -> LatencyFn:
    """A reproducible random-latency hook for adversarial delivery tests."""
    rng = random.Random(seed)

    def fn(_src: str, _dst: str, _message: Any) -> float:
        return rng.uniform(0.0, max_delay)

    return fn


def random_drops(
    seed: int,
    probability: float,
    protected: Optional[Callable[[str, str, Any], bool]] = None,
) -> DropFn:
    """A reproducible random-drop hook.

    ``protected(src, dst, msg)`` may exempt messages (e.g. never drop client
    replies so tests terminate); replication traffic is retried by design so
    it tolerates drops.
    """
    rng = random.Random(seed)

    def fn(src: str, dst: str, message: Any) -> bool:
        if protected is not None and protected(src, dst, message):
            return False
        return rng.random() < probability

    return fn


def partitioned(blocked_pairs: Iterable[Tuple[str, str]]) -> DropFn:
    """A drop hook that severs specific (src-prefix, dst-prefix) pairs.

    Useful for datacenter-partition tests: ``partitioned([("A/", "B/")])``
    blocks every message from actors whose name starts with ``A/`` to actors
    whose name starts with ``B/``.
    """
    pairs = list(blocked_pairs)

    def fn(src: str, dst: str, _message: Any) -> bool:
        return any(src.startswith(s) and dst.startswith(d) for s, d in pairs)

    return fn
