"""Request-level fault injection for the asyncio TCP path.

:class:`NetChaos` sits where the component servers take a request off a
connection and decides, per request, whether to serve it
normally, swallow it (the client sees a hung request and times out), stall it,
or drop the whole connection.  Like :class:`~repro.chaos.plan.FaultPlan` it is
seeded and deterministic, and a ``None`` default keeps the hot path free of
any overhead beyond one ``is not None`` check.

This is the adversary the net-layer :class:`~repro.core.retry.RetryPolicy`
and circuit breakers are tested against.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Optional, Sequence, Tuple

from ..core.errors import ConfigurationError

PASS = "pass"
DROP = "drop"
DELAY = "delay"
DISCONNECT = "disconnect"


class NetChaos:
    """Seeded per-request fault decisions for servers and the aio router.

    ``request_types`` limits injection to the named request kinds (``None``
    = every kind).  Probabilities are evaluated in the order drop →
    disconnect → delay; at most one fault applies per request.
    """

    def __init__(
        self,
        seed: int = 0,
        drop_probability: float = 0.0,
        delay_probability: float = 0.0,
        max_delay: float = 0.05,
        disconnect_probability: float = 0.0,
        request_types: Optional[Sequence[str]] = None,
        max_faults: Optional[int] = None,
    ) -> None:
        for name, p in (
            ("drop_probability", drop_probability),
            ("delay_probability", delay_probability),
            ("disconnect_probability", disconnect_probability),
        ):
            if not 0.0 <= p <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1]")
        self._rng = random.Random(seed)
        self.drop_probability = drop_probability
        self.delay_probability = delay_probability
        self.max_delay = max_delay
        self.disconnect_probability = disconnect_probability
        self.request_types = set(request_types) if request_types is not None else None
        #: Stop injecting after this many faults (None = unbounded) — lets a
        #: test guarantee eventual success without reseeding.
        self.max_faults = max_faults
        self.stats: Counter[str] = Counter()

    def decide(self, request_type: str) -> Tuple[str, float]:
        """Return ``(action, delay_seconds)`` for one inbound request."""
        if self.request_types is not None and request_type not in self.request_types:
            return PASS, 0.0
        if self.max_faults is not None and sum(self.stats.values()) >= self.max_faults:
            return PASS, 0.0
        roll = self._rng.random()
        if roll < self.drop_probability:
            self.stats[DROP] += 1
            return DROP, 0.0
        roll -= self.drop_probability
        if roll < self.disconnect_probability:
            self.stats[DISCONNECT] += 1
            return DISCONNECT, 0.0
        roll -= self.disconnect_probability
        if roll < self.delay_probability:
            self.stats[DELAY] += 1
            return DELAY, self.max_delay * self._rng.random()
        return PASS, 0.0
