"""Actor abstraction: every protocol component is an actor.

Actors interact with the world only through ``send``, timers, and the
messages delivered to :meth:`Actor.on_message`.  This is what lets the same
maintainer/batcher/filter/queue code run unchanged on every runtime: the
deterministic local runtime, the discrete-event capacity simulator, the
asyncio TCP runtime and the multi-process runtime.  :class:`Runtime` is the
surface all four offer, to actors and to the deployments that drive them.
"""

from __future__ import annotations

from abc import ABC
from typing import Any, Callable, Iterable, List, Optional, Protocol

from ..core.errors import ConfigurationError, SessionError


class Cancellable(Protocol):
    """A scheduled timer."""

    def cancel(self) -> None: ...


class Timers(Protocol):
    """A runtime's clock and one-shot timers (``runtime.loop``)."""

    @property
    def now(self) -> float: ...
    def schedule(self, delay: float, callback: Callable[[], None]) -> Cancellable: ...


class Runtime(Protocol):
    """The contract every runtime meets, synchronously.

    Registry: an actor registered after :meth:`start` starts at once.
    ``send`` to an unknown destination raises
    :class:`~repro.core.errors.ConfigurationError`.  ``start`` and ``stop``
    are idempotent; the drivers start the runtime first.  ``run_until``
    raises :class:`~repro.core.errors.RuntimeExhaustedError` when
    ``timeout`` passes first; ``settle`` checks its predicate after each
    0.1 s slice and returns False once ``max_seconds`` pass.  ``peek``
    evaluates a module-level ``fn(actor)`` where the actor lives.  Seconds
    are virtual on the local and simulated runtimes, wall-clock on the
    others.
    """

    @property
    def loop(self) -> Timers: ...
    @property
    def now(self) -> float: ...
    def register(self, actor: "Actor") -> "Actor": ...
    def register_all(self, actors: Iterable["Actor"]) -> List["Actor"]: ...
    def actor(self, name: str) -> "Actor": ...
    def has_actor(self, name: str) -> bool: ...
    def actors(self) -> List["Actor"]: ...
    def send(self, src: str, dst: str, message: Any) -> None: ...
    def start(self) -> "Runtime": ...
    def stop(self) -> None: ...
    def run_for(self, duration: float) -> float: ...
    def run_until(self, predicate: Callable[[], bool], timeout: float = 60.0) -> float: ...
    def settle(self, predicate: Callable[[], bool], max_seconds: float = 30.0) -> bool: ...
    def peek(self, name: str, fn: Callable[["Actor"], Any]) -> Any: ...


class _PeriodicTimer:
    """A timer that re-arms itself after each firing until cancelled."""

    __slots__ = ("_timers", "_delay", "_callback", "_handle", "_cancelled")

    def __init__(self, timers: Timers, delay: float, callback: Callable[[], None]) -> None:
        self._timers = timers
        self._delay = delay
        self._callback = callback
        self._cancelled = False
        self._handle = timers.schedule(delay, self._fire)

    def _fire(self) -> None:
        self._callback()
        if not self._cancelled:
            self._handle = self._timers.schedule(self._delay, self._fire)

    def cancel(self) -> None:
        self._cancelled = True
        self._handle.cancel()


class Actor(ABC):
    """Base class for protocol components.

    Subclasses implement :meth:`on_message` and may override
    :meth:`on_start` (called once when the runtime starts) and
    :meth:`service_cost` (consulted by the capacity simulator).
    """

    def __init__(self, name: str) -> None:
        if not name:
            raise ConfigurationError("actors need a non-empty name")
        self.name = name
        self.runtime: Optional[Runtime] = None

    # -- lifecycle ------------------------------------------------------ #

    def on_start(self) -> None:
        """Hook invoked when the runtime starts (set up periodic timers here)."""

    def on_message(self, sender: str, message: Any) -> None:
        """Handle one delivered message."""
        raise NotImplementedError

    # -- conveniences ---------------------------------------------------- #

    @property
    def now(self) -> float:
        return self._require_runtime().now

    def send(self, dst: str, message: Any) -> None:
        """Send ``message`` to the actor registered under ``dst``."""
        self._require_runtime().send(self.name, dst, message)

    def set_timer(
        self,
        delay: float,
        callback: Callable[[], None],
        periodic: bool = False,
    ) -> Cancellable:
        """Schedule ``callback`` after ``delay`` seconds (optionally repeating).

        Periodic timers re-arm themselves after each firing until cancelled.
        """
        timers = self._require_runtime().loop
        if periodic:
            return _PeriodicTimer(timers, delay, callback)
        return timers.schedule(delay, callback)

    def service_cost(self, message: Any) -> Optional[float]:
        """CPU seconds to process ``message`` under the capacity simulator.

        Return ``None`` (the default) to let the simulator derive the cost
        from the message's record count and the machine profile.
        """
        return None

    def _require_runtime(self) -> Runtime:
        if self.runtime is None:
            raise SessionError(
                f"actor {self.name!r} is not registered with a runtime"
            )
        return self.runtime

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"
