"""Seeded, deterministic fault plans for the actor runtimes.

A :class:`FaultPlan` is a declarative description of everything that goes
wrong during a run: message-level faults (drop / delay / duplicate / reorder,
scoped by source/destination prefix, message type, probability, and a time
window), actor crashes at fixed times, and datacenter partitions over fixed
windows.  The plan is driven by one seeded RNG, so the same plan + the same
workload reproduces the same failure schedule bit-for-bit — chaos tests are
regular deterministic tests.

A plan is the one fault input of every actor runtime (``chaos=``).  The
shared runtime base consults it through :meth:`FaultPlan.intercept`, which
maps one ``(src, dst, message, now)`` send to either ``None`` (dropped) or a
list of extra delivery delays (one entry per copy — duplicates yield two).
Installing no plan costs a single ``is None`` check on the send path, so
production configurations pay nothing.  A runtime that cannot apply one of
the plan's faults refuses it when it starts (``docs/FAULTS.md`` has the
runtime × fault matrix).

Plans round-trip through :meth:`to_dict` / :meth:`from_dict` so chaos suites
can be described in JSON (see ``docs/FAULTS.md`` for the schema).
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

from ..core.errors import ConfigurationError

_INF = math.inf

DROP = "drop"
DELAY = "delay"
DUPLICATE = "duplicate"
REORDER = "reorder"

_KINDS = (DROP, DELAY, DUPLICATE, REORDER)


@dataclass
class FaultRule:
    """One message-level fault, scoped by prefixes, type, window, probability.

    ``src`` / ``dst`` are name prefixes ("" matches everything);
    ``message_type`` matches the message class name (``None`` = any type).
    ``delay`` is the maximum extra latency injected by delay/reorder rules
    and the spread between duplicate copies.  ``max_count`` bounds how many
    times the rule may fire.
    """

    kind: str
    src: str = ""
    dst: str = ""
    message_type: Optional[str] = None
    probability: float = 1.0
    start: float = 0.0
    end: float = _INF
    delay: float = 0.0
    max_count: Optional[int] = None
    fired: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigurationError(f"unknown fault kind {self.kind!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError("probability must be in [0, 1]")
        if self.delay < 0:
            raise ConfigurationError("delay must be >= 0")

    def matches(self, src: str, dst: str, message: Any, now: float) -> bool:
        if not self.start <= now < self.end:
            return False
        if self.src and not src.startswith(self.src):
            return False
        if self.dst and not dst.startswith(self.dst):
            return False
        if self.message_type is not None and type(message).__name__ != self.message_type:
            return False
        return self.max_count is None or self.fired < self.max_count

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"kind": self.kind}
        if self.src:
            data["src"] = self.src
        if self.dst:
            data["dst"] = self.dst
        if self.message_type is not None:
            data["message_type"] = self.message_type
        if self.probability != 1.0:
            data["probability"] = self.probability
        if self.start:
            data["start"] = self.start
        if self.end != _INF:
            data["end"] = self.end
        if self.delay:
            data["delay"] = self.delay
        if self.max_count is not None:
            data["max_count"] = self.max_count
        return data


@dataclass
class CrashEvent:
    """Kill the actor registered under ``actor`` at simulated time ``at``.

    The runtime marks the actor crashed: its outgoing messages are discarded
    and incoming traffic parks until a supervisor restarts it (the network's
    view of a dead process whose peers keep retransmitting).
    """

    actor: str
    at: float

    def to_dict(self) -> Dict[str, Any]:
        return {"actor": self.actor, "at": self.at}


@dataclass(frozen=True)
class KillEvent:
    """SIGKILL a *worker process* of the multiproc runtime at time ``at``.

    ``worker`` is either a worker index or an actor name (resolved to the
    worker hosting that actor at placement time).  Unlike :class:`CrashEvent`
    this is a real OS-level kill: every actor co-located on the worker dies
    with it, and recovery requires a
    :class:`~repro.runtime.supervisor.ProcessSupervisor`.
    """

    worker: Union[int, str]
    at: float

    def to_dict(self) -> Dict[str, Any]:
        return {"worker": self.worker, "at": self.at}


@dataclass
class PartitionEvent:
    """Sever all traffic between two name-prefix groups during a window.

    ``partition("A/", "B/", 2.0, 5.0)`` drops every message between actors
    whose names start with ``A/`` and actors whose names start with ``B/``
    (both directions) while ``2.0 <= now < 5.0``.
    """

    a: str
    b: str
    start: float = 0.0
    end: float = _INF

    def active(self, src: str, dst: str, now: float) -> bool:
        if not self.start <= now < self.end:
            return False
        return (src.startswith(self.a) and dst.startswith(self.b)) or (
            src.startswith(self.b) and dst.startswith(self.a)
        )

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"a": self.a, "b": self.b}
        if self.start:
            data["start"] = self.start
        if self.end != _INF:
            data["end"] = self.end
        return data


class FaultPlan:
    """A deterministic schedule of injected faults (see module docstring).

    Builder methods chain::

        plan = (FaultPlan(seed=7)
                .drop(message_type="ReplicationShipment", probability=0.3)
                .duplicate(message_type="ReplicationShipment", probability=0.3)
                .reorder(dst="B/receiver", delay=0.05)
                .crash("A/store/0", at=1.0)
                .partition("C/", "A/", start=2.0, end=5.0))
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = random.Random(seed)
        self.rules: List[FaultRule] = []
        self.crashes: List[CrashEvent] = []
        self.kills: List[KillEvent] = []
        self.partitions: List[PartitionEvent] = []
        #: Injection counters: dropped / delayed / duplicated / reordered /
        #: partitioned / workers_killed — chaos tests assert the plan fired.
        self.stats: Counter[str] = Counter()

    # -- builders -------------------------------------------------------- #

    def _rule(self, kind: str, **kwargs: Any) -> "FaultPlan":
        self.rules.append(FaultRule(kind, **kwargs))
        return self

    def drop(self, **kwargs: Any) -> "FaultPlan":
        """Drop matching messages."""
        return self._rule(DROP, **kwargs)

    def delay(self, delay: float = 0.05, **kwargs: Any) -> "FaultPlan":
        """Add up to ``delay`` seconds of extra latency to matching messages."""
        return self._rule(DELAY, delay=delay, **kwargs)

    def duplicate(self, delay: float = 0.01, **kwargs: Any) -> "FaultPlan":
        """Deliver matching messages twice (the copy up to ``delay`` later)."""
        return self._rule(DUPLICATE, delay=delay, **kwargs)

    def reorder(self, delay: float = 0.05, **kwargs: Any) -> "FaultPlan":
        """Scramble delivery order of matching messages by random extra delay."""
        return self._rule(REORDER, delay=delay, **kwargs)

    def crash(self, actor: str, at: float) -> "FaultPlan":
        self.crashes.append(CrashEvent(actor, at))
        return self

    def kill(self, worker: Union[int, str], at: float) -> "FaultPlan":
        """SIGKILL a multiproc worker (by index or hosted-actor name)."""
        self.kills.append(KillEvent(worker, at))
        return self

    def partition(self, a: str, b: str, start: float = 0.0, end: float = _INF) -> "FaultPlan":
        self.partitions.append(PartitionEvent(a, b, start, end))
        return self

    # -- interception ---------------------------------------------------- #

    def intercept(
        self, src: str, dst: str, message: Any, now: float
    ) -> Optional[List[float]]:
        """Decide the fate of one send.

        Returns ``None`` to drop the message, otherwise a list of extra
        delivery delays — one element per copy to deliver (normally
        ``[0.0]``; duplicates append a second entry).
        """
        for part in self.partitions:
            if part.active(src, dst, now):
                self.stats["partitioned"] += 1
                return None
        delays = [0.0]
        for rule in self.rules:
            if not rule.matches(src, dst, message, now):
                continue
            if rule.probability < 1.0 and self._rng.random() >= rule.probability:
                continue
            rule.fired += 1
            if rule.kind == DROP:
                self.stats["dropped"] += 1
                return None
            if rule.kind == DELAY:
                self.stats["delayed"] += 1
                delays = [d + rule.delay * (0.5 + 0.5 * self._rng.random()) for d in delays]
            elif rule.kind == REORDER:
                # A random extra delay per message scrambles relative order
                # among everything the rule matches.
                self.stats["reordered"] += 1
                delays = [d + rule.delay * self._rng.random() for d in delays]
            elif rule.kind == DUPLICATE:
                self.stats["duplicated"] += 1
                delays = delays + [delays[0] + rule.delay * self._rng.random()]
        return delays

    # -- serialisation --------------------------------------------------- #

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "rules": [rule.to_dict() for rule in self.rules],
            "crashes": [crash.to_dict() for crash in self.crashes],
            "kills": [kill.to_dict() for kill in self.kills],
            "partitions": [part.to_dict() for part in self.partitions],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        plan = cls(seed=data.get("seed", 0))
        for rule in data.get("rules", []):
            plan._rule(rule["kind"], **{k: v for k, v in rule.items() if k != "kind"})
        for crash in data.get("crashes", []):
            plan.crash(crash["actor"], crash["at"])
        for kill in data.get("kills", []):
            plan.kill(kill["worker"], kill["at"])
        for part in data.get("partitions", []):
            plan.partition(
                part["a"], part["b"],
                start=part.get("start", 0.0), end=part.get("end", _INF),
            )
        return plan

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FaultPlan seed={self.seed} rules={len(self.rules)} "
            f"crashes={len(self.crashes)} kills={len(self.kills)} "
            f"partitions={len(self.partitions)}>"
        )
