"""Distributed tag indexers (§5.3).

Indexers provide access to log maintainers by tag information: maintainers
stream ``(tag key, tag value, LId)`` postings to the indexer championing the
tag key (hash partitioning), and clients look up LIds by tag rules before
reading the records from the owning maintainers.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, List, Optional, Tuple

from ..runtime.actor import Actor
from .messages import IndexUpdate, LookupReply, LookupRequest, PruneIndexBelow


class IndexerCore:
    """Pure-logic posting store for one indexer."""

    def __init__(self, name: str) -> None:
        self.name = name
        #: tag key -> LId-sorted list of (lid, value) postings.
        self._postings: Dict[str, List[Tuple[int, object]]] = {}
        self.postings_stored = 0

    def add(self, key: str, value: object, lid: int) -> None:
        """Store one posting; storing it again is a no-op.

        A maintainer rebuilt from its journal re-queues every posting it
        ever made, so the same posting can arrive twice — and a lookup that
        returned an LId twice would leave a reader waiting for a second,
        distinct answer.  LIds usually arrive in order, so the common case
        is one comparison with the bucket's tail and an append."""
        bucket = self._postings.setdefault(key, [])
        posting = (lid, value)
        if not bucket or bucket[-1] < posting:
            bucket.append(posting)
        else:
            at = bisect_left(bucket, posting)
            if at < len(bucket) and bucket[at] == posting:
                return
            bucket.insert(at, posting)
        self.postings_stored += 1

    def add_many(self, postings: List[Tuple[str, object, int]]) -> None:
        for key, value, lid in postings:
            self.add(key, value, lid)

    def lookup(
        self,
        tag_key: str,
        tag_value: Optional[object] = None,
        tag_min_value: Optional[object] = None,
        limit: Optional[int] = None,
        most_recent: bool = True,
        max_lid: Optional[int] = None,
    ) -> List[int]:
        """LIds of records tagged ``tag_key`` matching the value rule.

        ``max_lid`` bounds the search to positions at or below it — this is
        how Hyksos reads "the most recent write at a position less than i"
        for snapshot get-transactions (§4.1, Algorithm 1).
        """
        bucket = self._postings.get(tag_key, [])
        if max_lid is not None:
            cut = bisect_left(bucket, (max_lid + 1, float("-inf")))
            bucket = bucket[:cut]
        order = reversed(bucket) if most_recent else iter(bucket)
        lids: List[int] = []
        for lid, value in order:
            if tag_value is not None and value != tag_value:
                continue
            if tag_min_value is not None and (value is None or value < tag_min_value):
                continue
            lids.append(lid)
            if limit is not None and len(lids) >= limit:
                break
        return lids

    def prune_below(self, lid: int) -> int:
        """Drop postings for garbage-collected positions.  Returns count."""
        dropped = 0
        for key in list(self._postings):
            bucket = self._postings[key]
            cut = bisect_left(bucket, (lid, float("-inf")))
            if cut:
                del bucket[:cut]
                dropped += cut
            if not bucket:
                del self._postings[key]
        self.postings_stored -= dropped
        return dropped

    def keys(self) -> List[str]:
        return sorted(self._postings)


class Indexer(Actor):
    """Actor adapter for :class:`IndexerCore`."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.core = IndexerCore(name)

    def on_message(self, sender: str, message: Any) -> None:
        if isinstance(message, IndexUpdate):
            self.core.add_many(message.postings)
        elif isinstance(message, LookupRequest):
            lids = self.core.lookup(
                message.tag_key,
                tag_value=message.tag_value,
                tag_min_value=message.tag_min_value,
                limit=message.limit,
                most_recent=message.most_recent,
                max_lid=message.max_lid,
            )
            self.send(sender, LookupReply(message.request_id, lids))
        elif isinstance(message, PruneIndexBelow):
            self.core.prune_below(message.below_lid)
