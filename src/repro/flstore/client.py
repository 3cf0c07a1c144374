"""FLStore client library (§3, §5.1).

Applications link :class:`FLStoreClient` (callback-based, actor-native) or
wrap it in :class:`BlockingFLStoreClient` for synchronous code.  The client
polls the controller once per session for the maintainer/indexer addresses
and the ownership epoch journal; after that every append and read goes
straight to the data path, routed by the deterministic LId ownership
function — the controller is never consulted again unless the session is
reset.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, Optional

from ..core.errors import SessionError
from ..core.hashing import stable_hash
from ..core.record import AppendResult, LogEntry, ReadRules, Record
from ..runtime.actor import Actor, Runtime
from .messages import (
    AppendReply,
    AppendRequest,
    HeadReply,
    HeadRequest,
    LookupReply,
    LookupRequest,
    ReadReply,
    ReadRequest,
    SessionInfo,
    SessionRequest,
)
from .range_map import OwnershipPlan

Callback = Callable[[Any], None]


class FLStoreClient(Actor):
    """Callback-based application client for a single-datacenter FLStore."""

    def __init__(self, name: str, controller: str, seed: int = 0) -> None:
        super().__init__(name)
        self.controller = controller
        self._session: Optional[SessionInfo] = None
        self._plan: Optional[OwnershipPlan] = None
        self._request_ids = itertools.count(1)
        self._pending: Dict[int, Callback] = {}
        self._queued_ops: List[Callable[[], None]] = []
        self._maintainer_cycle = None
        self._toids = itertools.count(1)
        self._host_stream = f"client/{name}"
        self._seed = seed

    # ------------------------------------------------------------------ #
    # Session bootstrap (§5.1)
    # ------------------------------------------------------------------ #

    def on_start(self) -> None:
        request_id = next(self._request_ids)
        self._pending[request_id] = self._install_session
        self.send(self.controller, SessionRequest(request_id))

    def _install_session(self, info: SessionInfo) -> None:
        self._session = info
        plan = OwnershipPlan(info.epochs[0][2], batch_size=info.epochs[0][1])
        for start_lid, batch_size, maintainers in info.epochs[1:]:
            plan.add_epoch(start_lid, maintainers, batch_size)
        self._plan = plan
        # Start at the controller's least-loaded suggestion when present
        # (§5.2's load feedback); otherwise stagger by client seed.
        maintainers = list(info.maintainers)
        if info.suggested_maintainer in maintainers:
            offset = maintainers.index(info.suggested_maintainer)
        else:
            offset = self._seed % len(maintainers) if maintainers else 0
        self._maintainer_cycle = itertools.cycle(maintainers[offset:] + maintainers[:offset])
        queued, self._queued_ops = self._queued_ops, []
        for op in queued:
            op()

    @property
    def session_ready(self) -> bool:
        return self._session is not None

    def _when_ready(self, op: Callable[[], None]) -> None:
        if self._session is None:
            self._queued_ops.append(op)
        else:
            op()

    def _next_maintainer(self) -> str:
        if self._maintainer_cycle is None:
            raise SessionError(f"client {self.name!r} has no session yet")
        return next(self._maintainer_cycle)

    # ------------------------------------------------------------------ #
    # Public API: Append / Read / Head (§3)
    # ------------------------------------------------------------------ #

    def make_record(self, body: Any, tags: Optional[Dict[str, Any]] = None) -> Record:
        """Construct a record on this client's identity stream."""
        return Record.make(self._host_stream, next(self._toids), body, tags=tags)

    def append(
        self,
        body: Any,
        tags: Optional[Dict[str, Any]] = None,
        min_lid: Optional[int] = None,
        on_done: Optional[Callback] = None,
    ) -> None:
        """Append one record; ``on_done`` receives an :class:`AppendResult`."""
        record = self.make_record(body, tags)
        self.append_records([record], min_lid=min_lid, on_done=(
            (lambda results: on_done(results[0])) if on_done else None
        ))

    def append_records(
        self,
        records: List[Record],
        min_lid: Optional[int] = None,
        on_done: Optional[Callback] = None,
    ) -> None:
        """Append a batch; ``on_done`` receives ``List[AppendResult]``."""

        def op() -> None:
            request_id = next(self._request_ids)
            if on_done is not None:
                self._pending[request_id] = lambda reply: on_done(reply.results)
            self.send(
                self._next_maintainer(),
                AppendRequest(request_id, records, min_lid=min_lid),
            )

        self._when_ready(op)

    def read_lid(self, lid: int, on_done: Callback) -> None:
        """Read one record by position; ``on_done`` gets a ``ReadReply``."""

        def op() -> None:
            assert self._plan is not None
            owner = self._plan.owner(lid)
            request_id = next(self._request_ids)
            self._pending[request_id] = on_done
            self.send(owner, ReadRequest(request_id, lid=lid))

        self._when_ready(op)

    def read_rules(self, rules: ReadRules, on_done: Callable[[List[LogEntry]], None]) -> None:
        """Rule-based read (§3): via the indexers when a tag is given,
        otherwise a scatter-gather scan of every maintainer."""
        if rules.tag_key is not None and self._has_indexers():
            self._read_via_index(rules, on_done)
        else:
            self._read_via_scan(rules, on_done)

    def _has_indexers(self) -> bool:
        return bool(self._session and self._session.indexers)

    def _read_via_index(self, rules: ReadRules, on_done: Callable[[List[LogEntry]], None]) -> None:
        def op() -> None:
            assert self._session is not None
            indexers = self._session.indexers
            indexer = indexers[stable_hash(rules.tag_key) % len(indexers)]
            request_id = next(self._request_ids)

            def on_lookup(reply: LookupReply) -> None:
                self._fetch_lids(reply.lids, rules, on_done)

            self._pending[request_id] = on_lookup
            self.send(
                indexer,
                LookupRequest(
                    request_id,
                    tag_key=rules.tag_key,
                    tag_value=rules.tag_value,
                    tag_min_value=rules.tag_min_value,
                    limit=rules.limit,
                    most_recent=rules.most_recent,
                    max_lid=rules.max_lid,
                ),
            )

        self._when_ready(op)

    def _fetch_lids(
        self,
        lids: List[int],
        rules: ReadRules,
        on_done: Callable[[List[LogEntry]], None],
    ) -> None:
        if not lids:
            on_done([])
            return
        assert self._plan is not None
        results: Dict[int, Optional[LogEntry]] = {}

        def collect(lid: int) -> Callback:
            def handler(reply: ReadReply) -> None:
                results[lid] = reply.entries[0] if reply.entries else None
                if len(results) == len(lids):
                    entries = [results[l] for l in lids if results[l] is not None]
                    entries = [e for e in entries if rules.matches(e)]
                    if rules.limit is not None:
                        entries = entries[: rules.limit]
                    on_done(entries)

            return handler

        for lid in lids:
            request_id = next(self._request_ids)
            self._pending[request_id] = collect(lid)
            self.send(self._plan.owner(lid), ReadRequest(request_id, lid=lid))

    def _read_via_scan(self, rules: ReadRules, on_done: Callable[[List[LogEntry]], None]) -> None:
        def op() -> None:
            assert self._session is not None
            maintainers = self._session.maintainers
            replies: List[ReadReply] = []

            def collect(reply: ReadReply) -> None:
                replies.append(reply)
                if len(replies) == len(maintainers):
                    entries = [e for r in replies for e in r.entries]
                    entries.sort(key=lambda e: e.lid, reverse=rules.most_recent)
                    if rules.limit is not None:
                        entries = entries[: rules.limit]
                    on_done(entries)

            for maintainer in maintainers:
                request_id = next(self._request_ids)
                self._pending[request_id] = collect
                self.send(maintainer, ReadRequest(request_id, rules=rules))

        self._when_ready(op)

    def head(self, on_done: Callable[[int], None]) -> None:
        """Ask a maintainer for the head of the log (HL, §5.4)."""

        def op() -> None:
            request_id = next(self._request_ids)
            self._pending[request_id] = lambda reply: on_done(reply.head_lid)
            self.send(self._next_maintainer(), HeadRequest(request_id))

        self._when_ready(op)

    # ------------------------------------------------------------------ #
    # Reply dispatch
    # ------------------------------------------------------------------ #

    def on_message(self, sender: str, message: Any) -> None:
        if isinstance(message, SessionInfo):
            handler = self._pending.pop(message.request_id, None)
            if handler is not None:
                handler(message)
        elif isinstance(message, (AppendReply, ReadReply, HeadReply, LookupReply)):
            handler = self._pending.pop(message.request_id, None)
            if handler is not None:
                handler(message)


class BlockingFLStoreClient:
    """Synchronous facade over :class:`FLStoreClient` for tests and examples.

    Each call drives the runtime (``run_until``) until the reply arrives,
    so it works on every runtime; on the real-time ones a call blocks for
    as long as the round trip takes.
    """

    def __init__(self, client: FLStoreClient, runtime: Runtime) -> None:
        self.client = client
        self.runtime = runtime

    def _await(self, start: Callable[[Callback], None]) -> Any:
        box: List[Any] = []
        start(box.append)
        self.runtime.run_until(lambda: bool(box))
        return box[0]

    def append(
        self,
        body: Any,
        tags: Optional[Dict[str, Any]] = None,
        min_lid: Optional[int] = None,
    ) -> AppendResult:
        return self._await(
            lambda cb: self.client.append(body, tags=tags, min_lid=min_lid, on_done=cb)
        )

    def append_records(self, records: List[Record], min_lid: Optional[int] = None) -> List[AppendResult]:
        return self._await(
            lambda cb: self.client.append_records(records, min_lid=min_lid, on_done=cb)
        )

    def read_lid(self, lid: int) -> ReadReply:
        return self._await(lambda cb: self.client.read_lid(lid, cb))

    def read(self, rules: ReadRules) -> List[LogEntry]:
        return self._await(lambda cb: self.client.read_rules(rules, cb))

    def head(self) -> int:
        return self._await(lambda cb: self.client.head(cb))

    def wait_until_visible(self, host: str, toid: int, max_seconds: float = 30.0) -> LogEntry:
        """Block until record ``<host, toid>`` is readable locally.

        The session guarantee applications need after telling someone
        "record X exists": pump the runtime until replication has delivered
        it.  Returns the local log entry; raises
        :class:`~repro.core.errors.RuntimeExhaustedError` on timeout.
        """
        from ..core.errors import RuntimeExhaustedError

        deadline = self.runtime.now + max_seconds
        while True:
            entries = self.read(
                ReadRules(host=host, min_toid=toid, max_toid=toid, limit=1)
            )
            if entries:
                return entries[0]
            if self.runtime.now >= deadline:
                raise RuntimeExhaustedError(
                    f"record <{host},{toid}> not visible after {max_seconds}s"
                )
            self.runtime.run_for(min(0.05, max(1e-6, deadline - self.runtime.now)))
