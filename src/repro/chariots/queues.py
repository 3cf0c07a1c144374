"""Queues: stage 4 of the Chariots pipeline (§6.2).

Queues assign LIds while preserving causal order.  A single **token**
circulates round-robin among the queues; it carries the datacenter's
incorporation frontier (max contiguous TOId per host), the next LId, and a
bounded set of deferred records.  The queue holding the token:

1. merges the token's deferred records with its own buffered arrivals;
2. admits every record whose causal dependencies the frontier satisfies
   (externals in per-host TOId order, local drafts by constructing the
   final record with the next local TOId and the current frontier as its
   causality metadata — the distributed counterpart of §6.1's Append; a
   draft naming a remote record not yet incorporated waits in the buffer);
3. assigns dense LIds and routes each record to the log maintainer that
   owns its position (the queues know the deterministic assignment, §6.2);
4. updates the token and passes it on.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..core.causality import CausalFrontier, DeferredQueue
from ..core.config import PipelineConfig
from ..core.errors import ConfigurationError
from ..core.record import DatacenterId, Record, RecordId, freeze_tags
from ..flstore.messages import PlaceRecords
from ..flstore.range_map import OwnershipPlan
from ..runtime.actor import Actor
from .messages import (
    AdmittedBatch,
    DraftCommitBatch,
    DraftCommitted,
    DraftRecord,
    FrontierUpdate,
    Token,
    TokenPass,
)

_tuple_new = tuple.__new__


class QueueStage(Actor):
    """One queue machine of the token ring."""

    def __init__(
        self,
        name: str,
        dc_id: DatacenterId,
        plan: OwnershipPlan,
        next_queue: Optional[str] = None,
        gc: Optional[str] = None,
        config: Optional[PipelineConfig] = None,
        holds_initial_token: bool = False,
    ) -> None:
        super().__init__(name)
        self.dc_id = dc_id
        self.plan = plan
        self.next_queue = next_queue  # None = solo queue, token never leaves
        #: The GC coordinator, told the frontier whenever it moves.
        self.gc = gc
        self.config = config or PipelineConfig()
        self._token: Optional[Token] = Token() if holds_initial_token else None
        self._buffered_externals: List[Record] = []
        self._buffered_drafts: List[DraftRecord] = []
        # Deferred records are awaiting causal dependencies and may not be
        # dropped or pushed back upstream; the token ships at most
        # token_deferred_limit of them per pass and every token visit drains
        # the ones whose dependencies arrived.
        self._local_deferred: List[Record] = []  # chariots: bounded-by=token-circulation
        self.records_sequenced = 0

    # ------------------------------------------------------------------ #

    @property
    def holds_token(self) -> bool:
        return self._token is not None

    def on_start(self) -> None:
        if self._token is not None and self.next_queue is not None:
            self.set_timer(self.config.token_hold_interval, self._pass_token)

    def on_message(self, sender: str, message: Any) -> None:
        if isinstance(message, AdmittedBatch):
            if (
                self._token is None
                and self.next_queue is not None
                and len(self._buffered_externals) + len(self._buffered_drafts)
                >= self.config.queue_buffer_limit
            ):
                # High-water mark: a token-less queue over its limit forwards
                # the batch toward the token instead of buffering more.  The
                # filters already round-robin batches across all queues (no
                # per-client stickiness to preserve), delivery is event-loop
                # mediated (no recursion), and the current token holder
                # always accepts, so a forwarded batch terminates there.
                self.send(self.next_queue, message)
                return
            self._buffered_externals.extend(message.externals)
            self._buffered_drafts.extend(message.drafts)
            if self._token is not None:
                self._process()
        elif isinstance(message, TokenPass):
            self._token = message.token
            self._local_deferred.extend(message.token.deferred)
            message.token.deferred = []
            self._process()
            if self.next_queue is not None:
                self.set_timer(self.config.token_hold_interval, self._pass_token)

    # ------------------------------------------------------------------ #
    # Token-holder processing
    # ------------------------------------------------------------------ #

    def _process(self) -> None:
        token = self._token
        assert token is not None
        frontier = CausalFrontier(token.frontier)

        # 1. Externals: admit in causal order, defer the rest.  Only records
        #    that must wait reach the priority queue; an in-order shipment
        #    (the common case) and pure-draft batches never touch it.
        if self._local_deferred or self._buffered_externals:
            deferred = DeferredQueue()
            ordered = deferred.admit(
                self._local_deferred + self._buffered_externals, frontier
            )
            self._buffered_externals = []
            still_deferred = deferred.peek_all()
        else:
            ordered = []
            still_deferred = []

        # 2. Local drafts: construct final records with the current frontier
        #    as their causality metadata (§6.1 Append, distributed form).
        #    Every draft in the batch shares the same frontier snapshot minus
        #    the local entry (only the local TOId advances inside this loop,
        #    and it is excluded from the vector), so the dependency tuple is
        #    computed once and reused for every draft.  A draft whose
        #    explicit dependency names a remote record the frontier has not
        #    incorporated is held, with every later draft of the buffer, until
        #    a later round (the abstract Append defers it too); the frontier
        #    then covers its dependencies, so they add nothing to the vector.
        #    Drafts take the LIds after the admitted externals, in order, so
        #    each commit is built with its final LId, in its client's batch.
        by_client: Dict[str, DraftCommitBatch] = {}
        drafts = self._buffered_drafts
        if drafts:
            dc = self.dc_id
            base_vector = frontier.snapshot()
            base_vector.pop(dc, None)
            base_items = tuple(sorted(base_vector.items()))
            first = toid = frontier.max_toid(dc)
            if first < 0:  # every TOId built below is first + 1 or more
                raise ConfigurationError(f"TOIds start at 1, got {first + 1}")
            lid_of_toid = token.next_lid + len(ordered) - first - 1
            new = _tuple_new
            for client, seq, body, tags, deps in drafts:
                if deps and any(
                    host != dc and dep_toid > base_vector.get(host, 0)
                    for host, dep_toid in deps
                ):
                    break
                toid += 1
                rid = new(RecordId, (dc, toid))
                tags = freeze_tags(dict(tags)) if tags else ()
                ordered.append(new(Record, (rid, body, tags, base_items, False)))
                batch = by_client.get(client)
                if batch is None:
                    batch = by_client[client] = DraftCommitBatch()
                batch.commits.append(DraftCommitted(client, seq, rid, lid_of_toid + toid))
            if toid > first:
                frontier.advance_host(dc, toid)
            self._buffered_drafts = drafts[toid - first:]

        # 3. Assign LIds and route to the owning maintainers: one ownership
        #    lookup and one slice per run of LIds with a single owner.
        if ordered:
            placements: Dict[str, PlaceRecords] = {}
            plan = self.plan
            start = lid = token.next_lid
            end = start + len(ordered)
            while lid < end:
                owner = plan.owner(lid)
                run_end = min(plan.owned_run_end(lid), end)
                message = placements.get(owner)
                if message is None:
                    message = placements[owner] = PlaceRecords()
                message.placements.extend(
                    zip(range(lid, run_end), ordered[lid - start : run_end - start])
                )
                lid = run_end
            token.next_lid = end
            self.records_sequenced += len(ordered)
            for owner, message in placements.items():
                self.send(owner, message)
            for client, batch in by_client.items():
                self.send(client, batch)

        # 4. Update the token; keep deferred overflow local.
        token.frontier = frontier.snapshot()
        self._local_deferred = still_deferred

        if ordered and self.gc is not None:
            self.send(self.gc, FrontierUpdate(token.frontier))

    def _pass_token(self) -> None:
        token = self._token
        if token is None or self.next_queue is None:
            return
        # Process anything that arrived during the hold interval.
        self._process()
        limit = self.config.token_deferred_limit
        token.deferred = self._local_deferred[:limit]
        self._local_deferred = self._local_deferred[limit:]
        self._token = None
        self.send(self.next_queue, TokenPass(token))

    # ------------------------------------------------------------------ #

    @property
    def deferred_count(self) -> int:
        """Records waiting here: externals whose dependencies have not
        arrived, and drafts not yet sequenced (held on a dependency, or
        buffered for the token)."""
        return len(self._local_deferred) + len(self._buffered_drafts)
