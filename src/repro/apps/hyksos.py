"""Hyksos: the causally consistent key-value store of §4.1.

Values live in the shared log: a put appends a record tagged with the
written key(s); the current value of a key is the tag value of the record
with the highest log position containing a put to it.  Gets never observe
gaps because they are bounded by the head of the log (HL).

Causality across sessions: every get records the returned record's
``(host, TOId)`` in the session's dependency vector, and every put attaches
that vector to the appended record — so a value you read at one datacenter
happens-before anything you subsequently write, at every datacenter.

Get transactions (Algorithm 1) read a consistent snapshot: pin the head of
the log, then read each key's most recent version at a position below the
pin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from ..core.record import KnowledgeVector, LogEntry, ReadRules

#: Tag-key prefix for puts; the tag value is the written value.
KEY_TAG_PREFIX = "kv:"


def key_tag(key: str) -> str:
    return KEY_TAG_PREFIX + key


@dataclass
class VersionedValue:
    """A value together with the log position/record that produced it."""

    key: str
    value: Any
    lid: int
    host: str
    toid: int


class Hyksos:
    """A key-value session over any blocking shared-log client.

    Works over :class:`~repro.chariots.client.BlockingChariotsClient`
    (geo-replicated, causal) and
    :class:`~repro.flstore.client.BlockingFLStoreClient` (single
    datacenter) alike — both expose ``append``/``read``/``head``.
    """

    def __init__(self, log: Any) -> None:
        self.log = log
        #: Causal session state: records this session has observed.
        self.session_deps: KnowledgeVector = {}

    # ------------------------------------------------------------------ #
    # Put
    # ------------------------------------------------------------------ #

    def put(self, key: str, value: Any) -> VersionedValue:
        """Write one key.  Returns the new version."""
        return self.put_many({key: value})[key]

    def put_many(self, items: Mapping[str, Any]) -> Dict[str, VersionedValue]:
        """Write several keys atomically in one record (§4.1: "a record
        holds one, or more put operation information")."""
        tags = {key_tag(k): v for k, v in items.items()}
        body = {"op": "put", "keys": sorted(items)}
        result = self._append(body, tags)
        versions = {
            k: VersionedValue(k, v, result.lid, result.rid.host, result.rid.toid)
            for k, v in items.items()
        }
        self._observe(result.rid.host, result.rid.toid)
        return versions

    def _append(self, body: Any, tags: Dict[str, Any]) -> Any:
        try:
            return self.log.append(body, tags=tags, deps=dict(self.session_deps))
        except TypeError:
            # FLStore clients take no deps (single-datacenter deployment).
            return self.log.append(body, tags=tags)

    # ------------------------------------------------------------------ #
    # Get
    # ------------------------------------------------------------------ #

    def get(self, key: str) -> Optional[Any]:
        version = self.get_version(key)
        return None if version is None else version.value

    def get_version(self, key: str, max_lid: Optional[int] = None) -> Optional[VersionedValue]:
        """Most recent version of ``key``, optionally at or below ``max_lid``.

        Plain gets read the most recent put wherever it is (§4.1's Get);
        only get transactions pin a gap-free snapshot position (Algorithm 1
        passes the head of the log as ``max_lid``).
        """
        if max_lid is not None and max_lid < 0:
            return None
        entries: List[LogEntry] = self.log.read(
            ReadRules(tag_key=key_tag(key), max_lid=max_lid, limit=1, most_recent=True)
        )
        if not entries:
            return None
        entry = entries[0]
        value = entry.record.tag_dict()[key_tag(key)]
        self._observe(entry.record.host, entry.record.toid)
        return VersionedValue(key, value, entry.lid, entry.record.host, entry.record.toid)

    # ------------------------------------------------------------------ #
    # Get transactions (Algorithm 1)
    # ------------------------------------------------------------------ #

    def get_transaction(self, keys: Iterable[str]) -> Tuple[Dict[str, Optional[Any]], int]:
        """Read a consistent snapshot of ``keys``.

        Returns ``(values, snapshot_lid)``: the view of the log up to
        ``snapshot_lid`` — the head of the log at the start of the
        transaction, below which no gaps exist (§5.4 guarantees HL is
        gap-free).
        """
        snapshot_lid = self.log.head()  # Algorithm 1, line 2
        values: Dict[str, Optional[Any]] = {}
        for key in keys:  # Algorithm 1, lines 4-6
            version = self.get_version(key, max_lid=snapshot_lid)
            values[key] = None if version is None else version.value
        return values, snapshot_lid

    # ------------------------------------------------------------------ #

    def _observe(self, host: str, toid: int) -> None:
        if toid > self.session_deps.get(host, 0):
            self.session_deps[host] = toid
