"""Resilience policies: retry with capped exponential backoff, circuit breakers.

The paper counts "handling component and whole datacenter failures" among the
challenges Chariots addresses (§1).  These are the shared mechanisms every
layer uses to do that systematically instead of ad hoc:

* :class:`RetryPolicy` — capped exponential backoff with seeded jitter and an
  optional per-operation timeout.  The asyncio FLStore client retries
  idempotent requests and deferred appends through it, and replication
  senders derive their retransmission schedule from it (replacing the old
  fixed retransmit constant).
* :class:`CircuitBreaker` — per-peer closed → open → half-open breaker.  After
  ``failure_threshold`` consecutive failures the peer is considered down and
  traffic stops; after ``reset_timeout`` a single probe is allowed through,
  and its outcome closes or re-opens the breaker.  This is what lets a sender
  stop hammering a partitioned datacenter and still catch up promptly once
  the partition heals.

Both are clock-agnostic: callers pass ``now`` explicitly, so the same breaker
runs under simulated time (actor runtimes) and wall-clock time (asyncio).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Iterator, Optional, Tuple, Union

from .errors import ConfigurationError

_INF = float("inf")


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with jitter.

    Attempt ``n`` (0-based) waits ``min(max_delay, base_delay * multiplier**n)``
    seconds, scaled by a uniform ±``jitter`` fraction when an ``rng`` is
    supplied — jitter desynchronises retry storms without sacrificing
    determinism (callers seed the rng).
    """

    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    #: ±fraction of the delay added as seeded noise (0 disables jitter).
    jitter: float = 0.1
    max_attempts: int = 6
    #: Seconds an individual attempt may take before it counts as failed
    #: (``None`` = wait forever; only the asyncio layer enforces this).
    op_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.base_delay <= 0:
            raise ConfigurationError("base_delay must be positive")
        if self.max_delay < self.base_delay:
            raise ConfigurationError("max_delay must be >= base_delay")
        if self.multiplier < 1.0:
            raise ConfigurationError("multiplier must be >= 1.0")
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigurationError("jitter must be in [0, 1)")
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")

    def delay(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        """Backoff before retrying after the ``attempt``-th failure (0-based)."""
        base = min(self.max_delay, self.base_delay * self.multiplier ** max(0, attempt))
        if self.jitter and rng is not None:
            base *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return base

    def delays(self, rng: Optional[random.Random] = None) -> Iterator[float]:
        """The full backoff schedule (``max_attempts - 1`` waits)."""
        for attempt in range(self.max_attempts - 1):
            yield self.delay(attempt, rng)


class ReplayableRandom(random.Random):
    """A seeded ``random.Random`` that pickles as its seed and draw count.

    A ``random.Random`` pickles its whole Mersenne Twister state (about
    3.8 KB); this one pickles to its seed and the number of :meth:`random`
    draws so far, and unpickling replays those draws, so the copy continues
    the original's sequence.  Only :meth:`random` is counted — the one
    method :meth:`RetryPolicy.delay` draws with.
    """

    def __init__(self, seed: Union[int, str]) -> None:
        super().__init__(seed)
        self._seed = seed
        self._draws = 0

    def random(self) -> float:
        self._draws += 1
        return super().random()

    def __reduce__(self) -> Tuple[Any, ...]:
        return type(self), (self._seed,), self._draws

    def __setstate__(self, draws: int) -> None:
        draw = super().random
        for _ in range(draws):
            draw()
        self._draws = draws


class CircuitBreaker:
    """A per-peer closed → open → half-open circuit breaker.

    * **closed** — traffic flows; consecutive failures are counted.
    * **open** — after ``failure_threshold`` consecutive failures, every
      ``allow`` is refused until ``reset_timeout`` seconds have passed.
    * **half-open** — one probe is allowed through; success closes the
      breaker, failure re-opens it (and restarts the cooldown).

    Time is explicit (``now``) so the breaker works under both simulated and
    wall-clock time.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    __slots__ = ("failure_threshold", "reset_timeout", "state", "failures",
                 "opened_at", "opens", "probes")

    def __init__(self, failure_threshold: int = 5, reset_timeout: float = 2.0) -> None:
        if failure_threshold < 1:
            raise ConfigurationError("failure_threshold must be >= 1")
        if reset_timeout <= 0:
            raise ConfigurationError("reset_timeout must be positive")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.state = self.CLOSED
        self.failures = 0
        self.opened_at = -_INF
        #: Diagnostics: how often the breaker tripped / probed.
        self.opens = 0
        self.probes = 0

    def ready(self, now: float) -> bool:
        """Would :meth:`allow` let a request through at ``now``?  Asking
        changes nothing (no probe is taken)."""
        if self.state == self.CLOSED:
            return True
        # Open: only once the cooldown passed.  Half-open: the probe is out.
        return self.state == self.OPEN and now - self.opened_at >= self.reset_timeout

    def allow(self, now: float) -> bool:
        """May a request be issued at time ``now``?"""
        if not self.ready(now):
            return False
        if self.state == self.OPEN:
            self.state = self.HALF_OPEN
            self.probes += 1  # the single half-open probe
        return True

    def record_success(self, now: float = 0.0) -> None:
        self.state = self.CLOSED
        self.failures = 0

    def record_failure(self, now: float) -> None:
        self.failures += 1
        if self.state == self.HALF_OPEN or self.failures >= self.failure_threshold:
            if self.state != self.OPEN:
                self.opens += 1
            self.state = self.OPEN
            self.opened_at = now
            self.failures = 0
