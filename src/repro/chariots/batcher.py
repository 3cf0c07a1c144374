"""Batchers: stage 2 of the Chariots pipeline (§6.2).

Batchers buffer records received from local application clients and from
the receivers, grouped per destination filter, and flush a buffer when it
reaches the configured threshold (or on a timer, so light traffic is not
stranded).  Batchers are completely independent of one another — adding one
requires no coordination (§6.3).

Routing must agree with the filters' championing scheme, so both sides use
the shared :class:`~repro.chariots.filters.FilterMap`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..core.config import PipelineConfig
from ..runtime.actor import Actor
from .filters import FilterMap
from .messages import DraftBatch, DraftRecord, FilterBatch


class Batcher(Actor):
    """Stage 2: buffer and forward records to their champion filters."""

    def __init__(
        self,
        name: str,
        filter_map: FilterMap,
        config: Optional[PipelineConfig] = None,
    ) -> None:
        super().__init__(name)
        self.filter_map = filter_map
        self.config = config or PipelineConfig()
        self._buffers: Dict[str, FilterBatch] = {}
        #: Records currently buffered across every filter.
        self._pending_records = 0
        self.records_batched = 0

    def on_start(self) -> None:
        self.set_timer(self.config.batcher_flush_interval, self._flush_all, periodic=True)

    def on_message(self, sender: str, message: Any) -> None:
        if isinstance(message, DraftBatch):
            self._buffer_drafts(message.drafts)
            self._flush_full()
        elif isinstance(message, FilterBatch):
            # Receivers forward external records wrapped as FilterBatch.
            filter_for_record = self.filter_map.filter_for_record
            for record in message.externals:
                self._buffer_for(filter_for_record(record)).externals.append(record)
            self._pending_records += len(message.externals)
            self.records_batched += len(message.externals)
            self._buffer_drafts(message.drafts)
            self._flush_full()
        else:
            return
        # High-water mark across all per-filter buffers: a stream of small
        # batches for many filters can stay under every per-filter flush
        # threshold while the total grows; force a full flush at the cap.
        if self._pending_records >= self.config.batcher_buffer_limit:
            self._flush_all()

    def _buffer_drafts(self, drafts: List[DraftRecord]) -> None:
        # Client champions are sticky, so a run of drafts from one client
        # (the dominant arrival pattern) resolves its champion once.
        filter_for_draft = self.filter_map.filter_for_draft
        last_client: Optional[str] = None
        target: List[DraftRecord] = []
        for draft in drafts:
            if draft.client != last_client:
                last_client = draft.client
                target = self._buffer_for(filter_for_draft(draft)).drafts
            target.append(draft)
        self._pending_records += len(drafts)
        self.records_batched += len(drafts)

    def _buffer_for(self, filter_name: str) -> FilterBatch:
        buffer = self._buffers.get(filter_name)
        if buffer is None:
            buffer = FilterBatch()
            self._buffers[filter_name] = buffer
        return buffer

    def _flush_full(self) -> None:
        threshold = self.config.batcher_flush_threshold
        for filter_name in list(self._buffers):
            if self._buffers[filter_name].record_count() >= threshold:
                self._flush(filter_name)

    def _flush_all(self) -> None:
        for filter_name in list(self._buffers):
            if self._buffers[filter_name].record_count() > 0:
                self._flush(filter_name)

    def _flush(self, filter_name: str) -> None:
        batch = self._buffers.pop(filter_name)
        self._pending_records -= batch.record_count()
        self.send(filter_name, batch)
