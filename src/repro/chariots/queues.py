"""Queues: stage 4 of the Chariots pipeline (§6.2).

Queues assign LIds while preserving causal order.  A single **token**
circulates round-robin among the queues; it carries the datacenter's
incorporation frontier (max contiguous TOId per host), the next LId, and a
bounded set of deferred records.  The queue holding the token:

1. merges the token's deferred records with its own buffered arrivals;
2. admits every record whose causal dependencies the frontier satisfies
   (externals in per-host TOId order, local drafts by constructing the
   final record with the next local TOId and the current frontier as its
   causality metadata — the distributed counterpart of §6.1's Append);
3. assigns dense LIds and routes each record to the log maintainer that
   owns its position (the queues know the deterministic assignment, §6.2);
4. updates the token and passes it on.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..core.causality import CausalFrontier, DeferredQueue
from ..core.config import PipelineConfig
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


class QueueStage(Actor):
    """One queue machine of the token ring."""

    def __init__(
        self,
        name: str,
        dc_id: DatacenterId,
        plan: OwnershipPlan,
        next_queue: Optional[str] = None,
        frontier_listeners: Optional[List[str]] = None,
        config: Optional[PipelineConfig] = None,
        holds_initial_token: bool = False,
    ) -> None:
        super().__init__(name)
        self.dc_id = dc_id
        self.plan = plan
        self.next_queue = next_queue  # None = solo queue, token never leaves
        self.frontier_listeners = list(frontier_listeners or [])
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
        #    computed once and reused for every dep-free draft.
        commits: List[DraftCommitted] = []
        drafts = self._buffered_drafts
        if drafts:
            dc = self.dc_id
            base_vector = frontier.snapshot()
            base_vector.pop(dc, None)
            base_items = tuple(sorted(base_vector.items()))
            toid = frontier.max_toid(dc)
            for draft in drafts:
                toid += 1
                if draft.deps:
                    vector = dict(base_vector)
                    for host, dep_toid in draft.deps:
                        if host != dc and dep_toid > vector.get(host, 0):
                            vector[host] = dep_toid
                    dep_items = tuple(sorted(vector.items()))
                else:
                    dep_items = base_items
                tags = freeze_tags(dict(draft.tags)) if draft.tags else ()
                record = Record(
                    rid=RecordId(dc, toid),
                    body=draft.body,
                    tags=tags,
                    deps=dep_items,
                )
                ordered.append(record)
                commits.append(DraftCommitted(draft.client, draft.seq, record.rid, -1))
            frontier.advance_host(dc, toid)
            self._buffered_drafts = []

        # 3. Assign LIds and route to the owning maintainers.  Ownership is
        #    constant across a round, so look it up once per run of LIds
        #    instead of once per record.
        if ordered:
            placements: Dict[str, PlaceRecords] = {}
            lid_by_rid: Dict[RecordId, int] = {}
            plan = self.plan
            lid = token.next_lid
            run_end = -1
            target: List[Tuple[int, Record]] = []
            for record in ordered:
                if lid >= run_end:
                    owner = plan.owner(lid)
                    run_end = plan.owned_run_end(lid)
                    message = placements.get(owner)
                    if message is None:
                        message = placements[owner] = PlaceRecords()
                    target = message.placements
                lid_by_rid[record.rid] = lid
                target.append((lid, record))
                lid += 1
            token.next_lid = lid
            self.records_sequenced += len(ordered)
            for owner, message in placements.items():
                self.send(owner, message)
            by_client: Dict[str, DraftCommitBatch] = {}
            for commit in commits:
                commit.lid = lid_by_rid[commit.rid]
                by_client.setdefault(commit.client, DraftCommitBatch()).commits.append(commit)
            for client, batch in by_client.items():
                self.send(client, batch)

        # 4. Update the token; keep deferred overflow local.
        token.frontier = frontier.snapshot()
        self._local_deferred = still_deferred

        if ordered:
            update = FrontierUpdate(token.frontier, token.next_lid)
            for listener in self.frontier_listeners:
                self.send(listener, update)

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
        return len(self._local_deferred)
