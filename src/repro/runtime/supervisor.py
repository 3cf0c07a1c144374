"""Supervision: detect crashed actors and restart them automatically.

The paper's failure story (§1, §6) assumes components come back: log
maintainers recover their slice from durable state and the pipeline keeps
going.  :class:`Supervisor` turns the manual crash-recovery dance from the
failure-injection tests into a runtime feature — register a recovery factory
per supervised actor, and the supervisor sweeps the runtime's crash list on a
periodic timer, rebuilds each victim (e.g. a maintainer replayed from its
:class:`~repro.flstore.journal.MemoryJournal`), and swaps it in under the
same address via :meth:`~repro.runtime.local.BaseRuntime.replace`.  Traffic
parked during the outage is redelivered to the replacement, so peers observe
nothing worse than latency.

:class:`ProcessSupervisor` extends the same contract to real OS processes:
on a :class:`~repro.runtime.multiproc.MultiprocRuntime` its sweep also asks
the runtime to check its worker processes (heartbeat staleness, exit codes,
socket EOF) and respawn the dead ones, with journal-backed actors rebuilt
through the same recovery factories.  On single-process runtimes it behaves
exactly like :class:`Supervisor`, so deployments can register one supervisor
type regardless of substrate.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Dict, List

from .actor import Actor
from .local import BaseRuntime

#: A recovery factory rebuilds the replacement actor for one crashed address.
RecoveryFactory = Callable[[], Actor]


class Supervisor(Actor):
    """Watches the runtime for crashed actors and restarts supervised ones.

    Purely control-plane: it holds no data-path state, so losing the
    supervisor itself costs nothing but restart latency.
    """

    def __init__(self, name: str = "supervisor", check_interval: float = 0.05) -> None:
        super().__init__(name)
        self.check_interval = check_interval
        self._factories: Dict[str, RecoveryFactory] = {}
        #: Restart counts per actor name (diagnostics / test assertions).
        self.restarts: Counter[str] = Counter()

    def supervise(self, actor_name: str, factory: RecoveryFactory) -> None:
        """Register ``factory`` as the way to rebuild ``actor_name``."""
        self._factories[actor_name] = factory

    def supervised(self) -> List[str]:
        return sorted(self._factories)

    def on_start(self) -> None:
        self.set_timer(self.check_interval, self.sweep, periodic=True)

    def on_message(self, sender: str, message: Any) -> None:
        """The supervisor is timer-driven; stray messages are ignored."""

    def sweep(self) -> int:
        """Restart every supervised crashed actor; returns how many."""
        runtime = self._require_runtime()
        if not isinstance(runtime, BaseRuntime):
            return 0  # only BaseRuntime keeps crashed actors
        restarted = 0
        for name in runtime.crashed_actors():
            factory = self._factories.get(name)
            if factory is None:
                continue  # unsupervised: stays down until someone replaces it
            replacement = factory()
            runtime.replace(replacement)  # also revives + flushes parked mail
            self.restarts[name] += 1
            restarted += 1
        return restarted


class ProcessSupervisor(Supervisor):
    """Supervision for worker *processes*, not just in-process actors.

    Registered on a :class:`~repro.runtime.multiproc.MultiprocRuntime`, it
    switches the runtime into supervised mode (heartbeats, snapshots, frame
    retransmission — see :mod:`repro.runtime.multiproc.supervision`, which
    also holds the liveness and respawn constants) and drives failure
    detection + respawn from its sweep timer.  The recovery factories double
    as the journal-replay path: an actor with a registered factory is
    treated as journal-backed — excluded from worker snapshots and rebuilt
    from its durable journal on restart.
    """

    def __init__(self, name: str = "supervisor", check_interval: float = 0.05) -> None:
        super().__init__(name, check_interval)
        #: One entry per completed worker recovery (diagnostics / metrics):
        #: {"worker", "seconds", "replayed", "reason"}.
        self.recoveries: List[Dict[str, Any]] = []

    def is_journaled(self, actor_name: str) -> bool:
        """Actors with recovery factories restore from durable journals."""
        return actor_name in self._factories

    def build_replacement(self, actor_name: str) -> Actor:
        """Rebuild one journal-backed actor (counts as a restart)."""
        replacement = self._factories[actor_name]()
        self.restarts[actor_name] += 1
        return replacement

    def record_recovery(
        self,
        worker: int,
        detected: float,
        recovered: float,
        replayed: int,
        reason: str = "",
    ) -> None:
        """Called by the runtime after a worker respawn completes."""
        self.restarts[f"worker/{worker}"] += 1
        self.recoveries.append(
            {
                "worker": worker,
                "seconds": max(0.0, recovered - detected),
                "replayed": replayed,
                "reason": reason,
            }
        )

    def sweep(self) -> int:
        """Actor-level sweep, plus worker-process checks on a multiproc runtime."""
        from .multiproc import MultiprocRuntime  # multiproc imports this module

        restarted = super().sweep()
        runtime = self._require_runtime()
        if isinstance(runtime, MultiprocRuntime):
            restarted += runtime.check_workers()
        return restarted
