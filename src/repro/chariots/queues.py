"""Queues: stage 4 of the Chariots pipeline (§6.2).

Queues assign LIds while preserving causal order.  A single **token**
circulates round-robin among the queues; it carries the datacenter's
incorporation frontier (max contiguous TOId per host), the next LId, and a
bounded set of deferred records.  The queue holding the token:

1. merges the token's deferred records with its own buffered arrivals;
2. admits every record whose causal dependencies the frontier satisfies
   (externals in per-host TOId order — a shipped run the frontier admits
   whole in one step; local drafts as one run of final records with the
   next local TOIds and the current frontier as their causality metadata,
   the distributed counterpart of §6.1's Append; a draft naming a remote
   record not yet incorporated waits in the buffer);
3. assigns dense LIds and routes each record or run to the log maintainer
   that owns its position (the queues know the deterministic assignment,
   §6.2), splitting a run only where ownership changes;
4. updates the token and passes it on.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Dict, List, Optional

from ..core.causality import CausalFrontier, DeferredQueue
from ..core.config import PipelineConfig
from ..core.errors import ConfigurationError
from ..core.record import DatacenterId, Record, RecordItem, RecordRun, count_records
from ..flstore.maintainer import Placements
from ..flstore.messages import PlaceRecords
from ..flstore.range_map import OwnershipPlan
from ..runtime.actor import Actor
from .messages import (
    AdmittedBatch,
    DraftCommitBatch,
    DraftRecord,
    FrontierUpdate,
    Token,
    TokenPass,
)

# The columns of a draft (a ``DraftRecord`` is its field tuple).
_client_of = itemgetter(0)
_seq_of = itemgetter(1)
_body_of = itemgetter(2)
_tags_of = itemgetter(3)
_deps_of = itemgetter(4)


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
        #: The GC coordinator, told the frontier at most once per
        #: ``replication_interval`` (its own gossip cadence) after it moves.
        self.gc = gc
        self.config = config or PipelineConfig()
        self._token: Optional[Token] = Token() if holds_initial_token else None
        # Counted in records toward queue_buffer_limit (see on_message).
        self._buffered_externals: List[RecordItem] = []  # chariots: bounded-by=queue_buffer_limit
        self._buffered_drafts: List[DraftRecord] = []
        # Deferred records are awaiting causal dependencies and may not be
        # dropped or pushed back upstream; the token ships at most
        # token_deferred_limit of them per pass and every token visit drains
        # the ones whose dependencies arrived.
        self._local_deferred: List[Record] = []  # chariots: bounded-by=token-circulation
        self.records_sequenced = 0
        #: The newest frontier this queue produced.
        self.frontier: Dict[DatacenterId, int] = {}
        #: True while the report timer is set.  A snapshot or a restart
        #: carries the flag but not the timer, so ``on_start`` re-arms.
        self._report_armed = False

    # ------------------------------------------------------------------ #

    @property
    def holds_token(self) -> bool:
        return self._token is not None

    def on_start(self) -> None:
        if self._token is not None and self.next_queue is not None:
            self.set_timer(self.config.token_hold_interval, self._pass_token)
        self._report_armed = False
        if self.frontier:
            self._arm_report()

    def on_message(self, sender: str, message: Any) -> None:
        if isinstance(message, AdmittedBatch):
            if (
                self._token is None
                and self.next_queue is not None
                and count_records(self._buffered_externals) + len(self._buffered_drafts)
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

        # 1. Externals: admit in causal order, defer the rest.  A run the
        #    frontier admits whole (it starts at its host's next TOId and its
        #    shared deps are known) is taken in one step; any other external
        #    is split into records, and only records that must wait reach
        #    the priority queue.
        ordered: List[RecordItem] = []
        lone: List[Record] = list(self._local_deferred)
        for item in self._buffered_externals:
            if type(item) is not RecordRun:
                lone.append(item)  # type: ignore[arg-type]
            elif _admits_run(frontier, item):
                ordered.append(item)
                frontier.advance_host(item.host, item.end_toid - 1)
            else:
                lone += item.records()
        self._buffered_externals = []
        still_deferred: List[Record] = []
        if lone:
            deferred = DeferredQueue()
            ordered += deferred.admit(lone, frontier)
            still_deferred = deferred.peek_all()

        # 2. Local drafts: one run of final records with the current
        #    frontier as their causality metadata (§6.1 Append, distributed
        #    form).  Every draft of the round shares the same frontier
        #    snapshot minus the local entry (only the local TOId advances,
        #    and it is excluded from the vector), so the run carries one
        #    deps tuple.  A draft whose explicit dependency names a remote
        #    record the frontier has not incorporated is held, with every
        #    later draft of the buffer, until a later round (the abstract
        #    Append defers it too); the frontier then covers its
        #    dependencies, so they add nothing to the vector.  Drafts take
        #    the LIds after the admitted externals, so a draft's LId is its
        #    TOId plus one offset, and each client's commits are runs.
        commits: Dict[str, List[List[int]]] = {}
        lid_offset = 0
        drafts = self._buffered_drafts
        if drafts:
            dc = self.dc_id
            base_vector = frontier.snapshot()
            base_vector.pop(dc, None)
            first = frontier.max_toid(dc)
            if first < 0:  # every TOId built below is first + 1 or more
                raise ConfigurationError(f"TOIds start at 1, got {first + 1}")
            n = len(drafts)
            if any(map(_deps_of, drafts)):
                n = 0
                for deps in map(_deps_of, drafts):
                    if deps and any(
                        host != dc and dep_toid > base_vector.get(host, 0)
                        for host, dep_toid in deps
                    ):
                        break
                    n += 1
            if n:
                admitted = drafts if n == len(drafts) else drafts[:n]
                lid_offset = token.next_lid + count_records(ordered) - first - 1
                ordered.append(
                    RecordRun(
                        dc,
                        first + 1,
                        tuple(sorted(base_vector.items())),
                        list(map(_body_of, admitted)),
                        list(map(_tags_of, admitted)),
                    )
                )
                frontier.advance_host(dc, first + n)
                self._buffered_drafts = drafts[n:]
                commits = _commit_runs(admitted, first + 1)

        # 3. Assign LIds and route to the owning maintainers: a run is split
        #    only where ownership changes, at ``plan.owned_run_end``.
        if ordered:
            placements: Dict[str, Placements] = {}
            plan = self.plan
            lid = run_end = token.next_lid
            placed: Placements = []
            for item in ordered:
                n = len(item) if type(item) is RecordRun else 1
                done = 0
                while done < n:
                    if lid >= run_end:
                        run_end = plan.owned_run_end(lid)
                        placed = placements.setdefault(plan.owner(lid), [])
                    take = min(n - done, run_end - lid)
                    part = item if take == n else item.slice(done, done + take)  # type: ignore[union-attr]
                    placed.append((lid, part))
                    lid += take
                    done += take
            self.records_sequenced += lid - token.next_lid
            token.next_lid = lid
            for owner, owned in placements.items():
                self.send(owner, PlaceRecords(owned))
            for client, runs in commits.items():
                self.send(client, DraftCommitBatch(self.dc_id, lid_offset, runs))

        # 4. Update the token; keep deferred overflow local.
        token.frontier = frontier.snapshot()
        self._local_deferred = still_deferred
        if ordered:
            self.frontier = token.frontier
            if not self._report_armed:
                self._arm_report()

    def _arm_report(self) -> None:
        if self.gc is not None:
            self._report_armed = True
            self.set_timer(self.config.replication_interval, self._report)

    def _report(self) -> None:
        self._report_armed = False
        assert self.gc is not None
        self.send(self.gc, FrontierUpdate(self.frontier))

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


def _admits_run(frontier: CausalFrontier, run: RecordRun) -> bool:
    """Whether ``frontier`` admits every record of ``run`` in turn: the run
    starts at its host's next TOId and its shared deps are known."""
    host = run.host
    if frontier.max_toid(host) != run.first_toid - 1:
        return False
    return all(
        dep_host == host or frontier.max_toid(dep_host) >= dep_toid
        for dep_host, dep_toid in run.deps
    )


def _commit_runs(drafts: List[DraftRecord], first_toid: int) -> Dict[str, List[List[int]]]:
    """Per client, ``[first_seq, first_toid, count]`` runs of ``drafts``,
    which take consecutive TOIds from ``first_toid``: a run continues while
    the same client's sequence numbers do."""
    clients = list(map(_client_of, drafts))
    seqs = list(map(_seq_of, drafts))
    n = len(drafts)
    first_seq = seqs[0]
    if clients.count(clients[0]) == n and seqs == list(range(first_seq, first_seq + n)):
        return {clients[0]: [[first_seq, first_toid, n]]}  # one client, in order
    commits: Dict[str, List[List[int]]] = {}
    run = [0, 0, 0]
    previous = None
    for toid, client, seq in zip(range(first_toid, first_toid + n), clients, seqs):
        if client == previous and seq == run[0] + run[2]:
            run[2] += 1
        else:
            run = [seq, toid, 1]
            commits.setdefault(client, []).append(run)
            previous = client
    return commits
