"""The runtime base every runtime shares, and the deterministic one.

:class:`BaseRuntime` holds what all four runtimes (local, sim, aio,
multiproc) have in common: the actor registry, the driver surface, crash
bookkeeping and the one fault input, a seeded
:class:`~repro.chaos.plan.FaultPlan` passed as ``chaos``.  The plan is
applied here, once per send: a crashed sender's messages are dropped, then
:meth:`~repro.chaos.plan.FaultPlan.intercept` drops the message or returns
one delivery delay per copy, and the runtime schedules each copy its own
way.  Crash events are scheduled at :meth:`BaseRuntime.start`, where a
runtime also refuses (``ConfigurationError``) any fault it cannot apply.

:class:`LocalRuntime` is the substrate for functional tests, applications,
and examples: it delivers in a deterministic order on a virtual clock and
exposes ``run_until`` so synchronous client code can pump the network until
a reply arrives.

Crash semantics (every runtime but multiproc, which kills whole worker
processes instead): a crashed actor's outgoing messages are discarded (a
dead process sends nothing) and its inbound traffic is *parked* — held
aside and redelivered when the actor is revived or replaced.  Parking
models the reliable channels real deployments put in front of a restarted
node: peers keep retransmitting until the replacement accepts, so from the
protocol's point of view the messages were simply delayed across the
outage.
"""

from __future__ import annotations

from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple, TYPE_CHECKING,
)

from ..core.errors import ConfigurationError
from .actor import Actor, Timers
from .loop import EventLoop

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..chaos.plan import FaultPlan


#: Runtime seconds :meth:`BaseRuntime.settle` runs between two checks.
SETTLE_SLICE = 0.1

#: The fate of a send the fault plan leaves alone: one copy, no delay.
_ONCE: Sequence[float] = (0.0,)


class BaseRuntime:
    """The :class:`~repro.runtime.actor.Runtime` surface every runtime shares:
    the actor registry, crash bookkeeping, the fault plan, start / stop,
    ``send``, ``settle`` and ``peek``.  Subclasses supply ``loop``,
    ``run_for``, ``run_until`` and how a delivery is scheduled
    (:meth:`_schedule_delivery`)."""

    loop: Timers

    def __init__(self, chaos: Optional["FaultPlan"] = None) -> None:
        self._actors: Dict[str, Actor] = {}
        self._started = False
        self._crashed: Set[str] = set()
        #: Inbound messages held for crashed actors: name -> [(src, message)].
        self._parked: Dict[str, List[Tuple[str, Any]]] = {}
        #: The fault plan applied to every send (None: no faults, and the
        #: send path pays one ``is None`` check for it).
        self.chaos = chaos
        self.messages_sent = 0
        #: Sends lost to a crashed sender or to the plan.
        self.messages_dropped = 0
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
        """Schedule the plan's crash events, then invoke every actor's
        ``on_start`` hook exactly once."""
        if not self._started:
            self._refuse_faults()
            self._started = True
            if self.chaos is not None:
                for crash in self.chaos.crashes:
                    self.loop.schedule(
                        crash.at,
                        lambda name=crash.actor: self.crash(name)
                        if name in self._actors
                        else None,
                    )
            for actor in list(self._actors.values()):
                actor.on_start()
        return self

    def _refuse_faults(self) -> None:
        """Raise :class:`ConfigurationError` for a fault of the plan this
        runtime cannot apply: here, worker kills (no worker processes)."""
        if self.chaos is not None and self.chaos.kills:
            raise ConfigurationError(
                f"{type(self).__name__} has no worker processes to kill; "
                "FaultPlan.kill needs MultiprocRuntime (use crash() here)"
            )

    def stop(self) -> None:
        """Release what the runtime holds (nothing, for an in-process one)."""

    # -- messaging ------------------------------------------------------- #

    def send(self, src: str, dst: str, message: Any) -> None:
        """Apply the fault plan to one send, then schedule each surviving
        copy's delivery."""
        self.messages_sent += 1
        if dst not in self._actors:
            raise ConfigurationError(f"message from {src!r} to unknown actor {dst!r}")
        delays = self._fate(src, dst, message)
        if delays is not None:
            self._schedule_delivery(src, dst, message, delays)

    def _fate(self, src: str, dst: str, message: Any) -> Optional[Sequence[float]]:
        """One delivery delay per copy of a send, or None when it is lost:
        a crashed sender sends nothing, and the plan may drop, delay,
        duplicate or reorder."""
        if self._crashed and src in self._crashed:
            self.messages_dropped += 1
            return None
        if self.chaos is None:
            return _ONCE
        delays = self.chaos.intercept(src, dst, message, self.now)
        if delays is None:
            self.messages_dropped += 1
        return delays

    def _schedule_delivery(
        self, src: str, dst: str, message: Any, delays: Sequence[float]
    ) -> None:
        """Deliver one copy of ``message`` after each of ``delays`` seconds."""
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
    """Deterministic runtime on a virtual clock: every copy of a message is
    delivered as an event ``delay`` seconds on (instantly, without a plan)."""

    loop: EventLoop

    def __init__(self, chaos: Optional["FaultPlan"] = None) -> None:
        super().__init__(chaos)
        self.loop = EventLoop()

    def _schedule_delivery(
        self, src: str, dst: str, message: Any, delays: Sequence[float]
    ) -> None:
        # Resolve the target at delivery time so a replaced actor (crash
        # recovery) receives messages that were already in flight.
        for delay in delays:
            self.loop.schedule(delay, lambda: self._on_deliver(src, dst, message))

    # -- execution ------------------------------------------------------- #

    def run(self, until_time: Optional[float] = None) -> float:
        """Start (if needed) and drain the event loop."""
        self.start()
        return self.loop.run(until_time=until_time)

    def run_for(self, duration: float) -> float:
        """Advance virtual time by ``duration`` seconds."""
        self.start()
        return self.loop.run(until_time=self.loop.now + duration)

    def run_until(self, predicate: Callable[[], bool], timeout: float = 60.0) -> float:
        self.start()
        return self.loop.run_until(predicate, timeout)
