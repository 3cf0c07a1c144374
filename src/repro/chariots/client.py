"""Chariots application client (§3's interface over the full pipeline).

Reads, head-of-log queries, and tag lookups reuse the FLStore client logic
(the log maintainers and indexers are FLStore components); appends enter
the pipeline as draft records via the batchers and complete when the queue
stage reports the assigned TOId and LId.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional

from ..core.errors import ConfigurationError
from ..core.record import AppendResult, DatacenterId, RecordId, freeze_tags
from ..flstore.client import BlockingFLStoreClient, FLStoreClient
from ..runtime.actor import Runtime
from .messages import DraftBatch, DraftCommitBatch, DraftRecord

Callback = Callable[[Any], None]

_tuple_new = tuple.__new__


class ChariotsClient(FLStoreClient):
    """Client of one datacenter's Chariots instance.

    Appends are burst-native: :meth:`append` only buffers the draft, and all
    drafts issued in one turn of the caller leave together — one
    :class:`DraftBatch` per batcher — from a zero-delay timer that fires as
    soon as the caller yields to the runtime.
    """

    def __init__(
        self,
        name: str,
        controller: str,
        batchers: List[str],
        seed: int = 0,
    ) -> None:
        super().__init__(name, controller, seed=seed)
        self.batchers = list(batchers)
        # Stagger the starting batcher per client so load spreads (§6.2).
        self._next_batcher = seed % len(self.batchers) if self.batchers else 0
        #: Sequence number of the last draft issued (drafts count from 1).
        self._draft_seq = 0
        #: Drafts of the current burst, in call order, until the flush timer
        #: armed by the burst's first append fires (so never more than the
        #: caller appends in one turn).
        self._burst: List[DraftRecord] = []
        self._pending_commits: Dict[int, Callback] = {}

    # ------------------------------------------------------------------ #
    # Append (§3): via the pipeline, not directly to maintainers
    # ------------------------------------------------------------------ #

    def append(  # type: ignore[override]
        self,
        body: Any,
        tags: Optional[Mapping[str, Any]] = None,
        deps: Optional[Mapping[DatacenterId, int]] = None,
        on_done: Optional[Callback] = None,
    ) -> int:
        """Append one record; ``on_done`` receives an :class:`AppendResult`.

        Returns at once with the draft sequence number; the draft leaves at
        the end of the caller's turn, batched with every other append of
        that turn.  ``deps`` declares explicit causal dependencies on
        records from other datacenters (their host → TOId), e.g. after
        reading them.
        """
        if not self._burst:
            if not self.batchers:
                raise ConfigurationError(f"client {self.name!r} has no batchers to append through")
            self.set_timer(0.0, self._flush_burst)
        seq = self._draft_seq = self._draft_seq + 1
        draft = _tuple_new(
            DraftRecord,
            (
                self.name,
                seq,
                body,
                freeze_tags(tags) if tags else (),
                tuple(sorted(deps.items())) if deps else (),
            ),
        )
        if on_done is not None:
            self._pending_commits[seq] = on_done
        self._burst.append(draft)
        return seq

    def _flush_burst(self) -> None:
        """Send the buffered burst: draft ``i`` goes to the ``i``-th batcher
        of the round-robin, so each batcher gets one message per burst."""
        drafts, self._burst = self._burst, []
        batchers = self.batchers
        fanout = len(batchers)
        start = self._next_batcher
        for k in range(min(fanout, len(drafts))):
            self.send(batchers[(start + k) % fanout], DraftBatch(drafts[k::fanout]))
        self._next_batcher = (start + len(drafts)) % fanout

    def on_message(self, sender: str, message: Any) -> None:
        if isinstance(message, DraftCommitBatch):
            self._handle_commits(message)
        else:
            super().on_message(sender, message)

    def _handle_commits(self, batch: DraftCommitBatch) -> None:
        """Resolve each committed draft's ``on_done``, a run at a time."""
        pending = self._pending_commits
        host = batch.host
        lid_offset = batch.lid_offset
        new = _tuple_new
        for first_seq, first_toid, count in batch.runs:
            for seq, toid in zip(
                range(first_seq, first_seq + count), range(first_toid, first_toid + count)
            ):
                handler = pending.pop(seq, None)
                if handler is not None:
                    handler(new(AppendResult, (new(RecordId, (host, toid)), toid + lid_offset)))


class BlockingChariotsClient(BlockingFLStoreClient):
    """Synchronous facade over :class:`ChariotsClient`."""

    client: ChariotsClient

    def __init__(self, client: ChariotsClient, runtime: Runtime) -> None:
        super().__init__(client, runtime)

    def append(  # type: ignore[override]
        self,
        body: Any,
        tags: Optional[Mapping[str, Any]] = None,
        deps: Optional[Mapping[DatacenterId, int]] = None,
    ) -> AppendResult:
        return self._await(
            lambda cb: self.client.append(body, tags=tags, deps=deps, on_done=cb)
        )
