"""asyncio client for a TCP-deployed FLStore.

Mirrors the in-process client (§3's interface): session bootstrap through
the controller, post-assignment appends round-robined over the maintainer
servers, reads routed by the deterministic ownership function, tag lookups
through the indexers.

Resilience: every request runs under the client's
:class:`~repro.core.retry.RetryPolicy` — idempotent operations (session,
reads, head queries) are retried across transport failures and per-operation
timeouts with capped, jittered backoff, and deferred appends
(:class:`~repro.core.errors.AppendDeferred`, which store nothing server-side)
are retried for any operation.  A :class:`~repro.core.retry.CircuitBreaker`
per server address sheds load from peers that keep failing
(:class:`~repro.core.errors.CircuitOpenError`) until a probe succeeds.
"""

from __future__ import annotations

import asyncio
import itertools
import random
from typing import Any, Dict, List, Mapping, Optional

from ..core.errors import (
    AppendDeferred,
    ChariotsError,
    CircuitOpenError,
    NetworkProtocolError,
    SessionError,
)
from ..core.hashing import champion
from ..core.record import AppendResult, LogEntry, ReadRules, Record
from ..core.retry import CircuitBreaker, RetryPolicy
from ..flstore.range_map import OwnershipPlan
from .protocol import Connection


class AsyncFLStoreClient:
    """Networked application client for FLStore over TCP."""

    def __init__(
        self,
        controller_address: str,
        client_id: str = "net-client",
        retry_policy: Optional[RetryPolicy] = None,
        breaker_failure_threshold: int = 5,
        breaker_reset_timeout: float = 1.0,
    ) -> None:
        self.controller = Connection(controller_address)
        self.client_id = client_id
        self.retry_policy = retry_policy or RetryPolicy(
            base_delay=0.05, max_delay=1.0, max_attempts=5, op_timeout=5.0
        )
        self._breaker_failure_threshold = breaker_failure_threshold
        self._breaker_reset_timeout = breaker_reset_timeout
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._rng = random.Random(client_id)
        self._maintainers: Dict[str, Connection] = {}
        self._indexers: Dict[str, Connection] = {}
        self._plan: Optional[OwnershipPlan] = None
        self._maintainer_cycle = None
        self._indexer_names: List[str] = []
        self._toids = itertools.count(1)

    # ------------------------------------------------------------------ #
    # Resilience plumbing
    # ------------------------------------------------------------------ #

    def breaker(self, address: str) -> CircuitBreaker:
        """The circuit breaker guarding the server at ``address``."""
        breaker = self._breakers.get(address)
        if breaker is None:
            breaker = CircuitBreaker(
                failure_threshold=self._breaker_failure_threshold,
                reset_timeout=self._breaker_reset_timeout,
            )
            self._breakers[address] = breaker
        return breaker

    async def _request(
        self,
        conn: Connection,
        message: Dict[str, Any],
        idempotent: bool = True,
    ) -> Dict[str, Any]:
        """Issue one request under the retry policy and circuit breaker.

        Transport failures and per-operation timeouts are retried only for
        ``idempotent`` operations (a lost append reply could mean the append
        landed, so appends must not be blindly resent).  ``append_deferred``
        replies become :class:`AppendDeferred` and are retried for every
        operation — the server stored nothing.
        """
        policy = self.retry_policy
        breaker = self.breaker(conn.address)
        loop = asyncio.get_running_loop()
        last_error: Optional[Exception] = None
        for attempt in range(policy.max_attempts):
            if not breaker.allow(loop.time()):
                raise CircuitOpenError(conn.address)
            try:
                response = await conn.request(message, policy.op_timeout)
                if response.get("type") == "append_deferred":
                    raise AppendDeferred(message.get("min_lid"))
            except AppendDeferred as exc:
                # The server answered (it is healthy) but deferred the
                # request on its minimum-LId bound: always safe to retry.
                breaker.record_success(loop.time())
                last_error = exc
            except (ConnectionError, OSError, asyncio.TimeoutError,
                    NetworkProtocolError) as exc:
                # conn.request() dropped its own link before it raised, so
                # the next attempt (or the next caller) reconnects.
                breaker.record_failure(loop.time())
                if not idempotent:
                    raise
                last_error = exc
            else:
                breaker.record_success(loop.time())
                return response
            if attempt + 1 < policy.max_attempts:
                await asyncio.sleep(policy.delay(attempt, self._rng))
        assert last_error is not None
        raise last_error

    # ------------------------------------------------------------------ #
    # Session
    # ------------------------------------------------------------------ #

    async def connect(self) -> None:
        info = await self._request(self.controller, {"type": "session", "request_id": 1})
        self._maintainers = {
            name: Connection(address) for name, address in info["maintainers"].items()
        }
        self._indexers = {
            name: Connection(address) for name, address in info["indexers"].items()
        }
        self._indexer_names = sorted(self._indexers)
        self._plan = OwnershipPlan.from_epochs(info["epochs"])
        self._maintainer_cycle = itertools.cycle(sorted(self._maintainers))

    async def close(self) -> None:
        await self.controller.close()
        for conn in list(self._maintainers.values()) + list(self._indexers.values()):
            await conn.close()

    def _require_session(self) -> OwnershipPlan:
        if self._plan is None:
            raise SessionError("call connect() before issuing operations")
        return self._plan

    # ------------------------------------------------------------------ #
    # Operations (§3)
    # ------------------------------------------------------------------ #

    async def append(
        self,
        body: Any,
        tags: Optional[Mapping[str, Any]] = None,
        min_lid: Optional[int] = None,
    ) -> AppendResult:
        results = await self.append_records(
            [Record.make(f"client/{self.client_id}", next(self._toids), body, tags=tags)],
            min_lid=min_lid,
        )
        return results[0]

    async def append_records(
        self, records: List[Record], min_lid: Optional[int] = None
    ) -> List[AppendResult]:
        self._require_session()
        assert self._maintainer_cycle is not None
        target = next(self._maintainer_cycle)
        # Not idempotent: a lost reply could mean the records landed, so
        # transport failures surface to the caller.  Deferred appends
        # (nothing stored) are still retried by the policy.
        response = await self._request(
            self._maintainers[target],
            {"type": "append", "records": records, "min_lid": min_lid},
            idempotent=False,
        )
        return response["results"]

    async def read_lid(self, lid: int) -> LogEntry:
        plan = self._require_session()
        response = await self._request(
            self._maintainers[plan.owner(lid)], {"type": "read_lid", "lids": [lid]}
        )
        if not response["entries"]:
            raise ChariotsError(response["error"])
        return response["entries"][0]

    async def read(self, rules: ReadRules) -> List[LogEntry]:
        self._require_session()
        if rules.tag_key is not None and self._indexer_names:
            return await self._read_via_index(rules)
        # One scan per maintainer, all in flight together.
        replies = await asyncio.gather(
            *(
                self._request(conn, {"type": "read_rules", "rules": rules})
                for conn in self._maintainers.values()
            )
        )
        return rules.merge_scan([entry for reply in replies for entry in reply["entries"]])

    async def _read_via_index(self, rules: ReadRules) -> List[LogEntry]:
        plan = self._require_session()
        assert rules.tag_key is not None
        indexer = champion(rules.tag_key, self._indexer_names)
        response = await self._request(
            self._indexers[indexer],
            {
                "type": "lookup",
                "tag_key": rules.tag_key,
                "tag_value": rules.tag_value,
                "tag_min_value": rules.tag_min_value,
                "limit": rules.limit,
                "most_recent": rules.most_recent,
                "max_lid": rules.max_lid,
            }
        )
        # One fetch per owning maintainer, all in flight together.
        lids = response["lids"]
        by_owner: Dict[str, List[int]] = {}
        for lid in lids:
            by_owner.setdefault(plan.owner(lid), []).append(lid)
        replies = await asyncio.gather(
            *(
                self._request(self._maintainers[owner], {"type": "read_lid", "lids": owned})
                for owner, owned in by_owner.items()
            )
        )
        return rules.merge_indexed(lids, (entry for reply in replies for entry in reply["entries"]))

    async def head(self) -> int:
        self._require_session()
        assert self._maintainer_cycle is not None
        target = next(self._maintainer_cycle)
        response = await self._request(self._maintainers[target], {"type": "head"})
        return response["head_lid"]
