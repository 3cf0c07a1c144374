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

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.errors import SessionError
from ..core.hashing import champion
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
OnEntries = Callable[[List[LogEntry]], None]


class FLStoreClient(Actor):
    """Callback-based application client for a single-datacenter FLStore."""

    def __init__(self, name: str, controller: str, seed: int = 0) -> None:
        super().__init__(name)
        self.controller = controller
        self._session: Optional[SessionInfo] = None
        self._plan: Optional[OwnershipPlan] = None
        #: The last request id and TOId issued (both count from 1).
        self._request_id = 0
        self._pending: Dict[int, Callback] = {}
        self._queued_ops: List[Callable[[], None]] = []
        #: The session's maintainers in round-robin order, and the index of
        #: the next one to use.
        self._maintainer_order: Optional[List[str]] = None
        self._next_maintainer_index = 0
        self._toid = 0
        self._host_stream = f"client/{name}"
        self._seed = seed

    # ------------------------------------------------------------------ #
    # Session bootstrap (§5.1)
    # ------------------------------------------------------------------ #

    def on_start(self) -> None:
        request_id = self._next_request_id()
        self._pending[request_id] = self._install_session
        self.send(self.controller, SessionRequest(request_id))

    def _install_session(self, info: SessionInfo) -> None:
        self._session = info
        self._plan = OwnershipPlan.from_epochs(info.epochs)
        # Start at the controller's least-loaded suggestion when present
        # (§5.2's load feedback); otherwise stagger by client seed.
        maintainers = list(info.maintainers)
        if info.suggested_maintainer in maintainers:
            offset = maintainers.index(info.suggested_maintainer)
        else:
            offset = self._seed % len(maintainers) if maintainers else 0
        self._maintainer_order = maintainers[offset:] + maintainers[:offset]
        self._next_maintainer_index = 0
        queued, self._queued_ops = self._queued_ops, []
        for op in queued:
            op()

    def _next_request_id(self) -> int:
        self._request_id += 1
        return self._request_id

    def _when_ready(self, op: Callable[[], None]) -> None:
        if self._session is None:
            self._queued_ops.append(op)
        else:
            op()

    def _next_maintainer(self) -> str:
        order = self._maintainer_order
        if order is None:
            raise SessionError(f"client {self.name!r} has no session yet")
        index = self._next_maintainer_index
        self._next_maintainer_index = (index + 1) % len(order)
        return order[index]

    # ------------------------------------------------------------------ #
    # Public API: Append / Read / Head (§3)
    # ------------------------------------------------------------------ #

    def make_record(self, body: Any, tags: Optional[Dict[str, Any]] = None) -> Record:
        """Construct a record on this client's identity stream."""
        self._toid += 1
        return Record.make(self._host_stream, self._toid, body, tags=tags)

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
            request_id = self._next_request_id()
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
            request_id = self._next_request_id()
            self._pending[request_id] = on_done
            self.send(self._plan.owner(lid), ReadRequest(request_id, [lid]))

        self._when_ready(op)

    def read_rules(self, rules: ReadRules, on_done: OnEntries) -> None:
        """Rule-based read (§3): via the indexers when a tag is given,
        otherwise a scatter-gather scan of every maintainer."""
        if rules.tag_key is not None and self._has_indexers():
            self._read_via_index(rules, on_done)
        else:
            self._read_via_scan(rules, on_done)

    def _has_indexers(self) -> bool:
        return bool(self._session and self._session.indexers)

    def _read_via_index(self, rules: ReadRules, on_done: OnEntries) -> None:
        def op() -> None:
            assert self._session is not None
            indexer = champion(rules.tag_key, self._session.indexers)
            request_id = self._next_request_id()

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

    def _fetch_lids(self, lids: List[int], rules: ReadRules, on_done: OnEntries) -> None:
        """One read per owning maintainer, all in flight together."""
        assert self._plan is not None
        by_owner: Dict[str, List[int]] = {}
        for lid in lids:
            by_owner.setdefault(self._plan.owner(lid), []).append(lid)
        self._gather(
            [(owner, owned, None) for owner, owned in by_owner.items()],
            lambda entries: rules.merge_indexed(lids, entries),
            on_done,
        )

    def _read_via_scan(self, rules: ReadRules, on_done: OnEntries) -> None:
        def op() -> None:
            assert self._session is not None
            maintainers = self._session.maintainers
            self._gather([(m, [], rules) for m in maintainers], rules.merge_scan, on_done)

        self._when_ready(op)

    def _gather(
        self,
        reads: List[Tuple[str, List[int], Optional[ReadRules]]],
        merge: Callable[[List[LogEntry]], List[LogEntry]],
        on_done: OnEntries,
    ) -> None:
        """Send each ``(maintainer, lids, rules)`` read at once; when the
        last reply is in, hand ``merge`` of all their entries to ``on_done``."""
        if not reads:
            on_done(merge([]))
            return
        replies: List[ReadReply] = []

        def collect(reply: ReadReply) -> None:
            replies.append(reply)
            if len(replies) == len(reads):
                on_done(merge([entry for r in replies for entry in r.entries]))

        for maintainer, lids, rules in reads:
            request_id = self._next_request_id()
            self._pending[request_id] = collect
            self.send(maintainer, ReadRequest(request_id, lids, rules))

    def head(self, on_done: Callable[[int], None]) -> None:
        """Ask a maintainer for the head of the log (HL, §5.4)."""

        def op() -> None:
            request_id = self._next_request_id()
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
